GO ?= go

.PHONY: build test race bench bench-load bench-compare fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Regenerate the committed RPC hot-path benchmark trajectory. Run this
# (and commit the result) whenever a change legitimately moves the hot
# path; CI replays bench-compare against the committed file.
bench:
	$(GO) run ./cmd/rpcbench -bench -benchout BENCH_rpc.json

# Regenerate the committed overload-soak trajectory (virtual time, so
# the file is byte-identical for the same seed). Run this (and commit
# the result) whenever a change legitimately moves the soak.
bench-load:
	$(GO) run ./cmd/rpcbench -load -loadout BENCH_load.json

# Fail if the hot path regressed against the committed trajectory
# (>20% slower ns/op on any class, or any allocs/op increase), or if
# defended goodput under overload dropped >20% against the committed
# soak — or the undefended collapse disappeared.
bench-compare:
	$(GO) run ./cmd/rpcbench -bench -benchcompare BENCH_rpc.json
	$(GO) run ./cmd/rpcbench -load -loadcompare BENCH_load.json

# Short fuzz passes over the wire codec's three fuzz targets, the WAL
# record-batch decoder and the TLB's differential check against its
# reference model; native Go fuzzing runs one target per invocation.
fuzz-smoke:
	$(GO) test ./internal/ipc/wire/ -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s
	$(GO) test ./internal/ipc/wire/ -run='^$$' -fuzz='^FuzzUnmarshal$$' -fuzztime=10s
	$(GO) test ./internal/ipc/wire/ -run='^$$' -fuzz='^FuzzMarshalRoundTrip$$' -fuzztime=10s
	$(GO) test ./internal/fs/ -run='^$$' -fuzz='^FuzzDecodeRecords$$' -fuzztime=10s
	$(GO) test ./internal/tlb/ -run='^$$' -fuzz='^FuzzTLB$$' -fuzztime=10s
