#!/usr/bin/env bash
# Builds the benchmark from the checkout this file sits in and runs it:
#
#   bash benchmark/run.sh --workload andrew-cluster --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# binary) goes to .bench_build at the root of the checkout. Outside a
# full checkout the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

(cd "$here" && go build -o "$build/archos-benchmark" .)
exec "$build/archos-benchmark" "$@"
