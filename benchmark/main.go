// Command benchmark is the repository's benchmark: three workloads that
// together cover every layer of the stack, measured end to end with
// tracing off and layer by layer in a separate traced run.
//
//	go run . --workload andrew-cluster --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it record
// the host, the inputs and every metric as a table. See README.md for
// the workloads and the metric → layer → workload map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"archos/internal/arch"
	"archos/internal/kernel"
)

// HeldOutSeed is never used while tuning the benchmark or a change: a
// claimed gain must also hold on it.
const HeldOutSeed = 4242

var workloads = map[string]func(cfg config) (*outcome, error){
	"andrew-cluster": runAndrew,
	"scan-single":    runScan,
	"mach-table7":    runTable7,
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// metric is one named, united number of a result.
type metric struct {
	name, unit string
	value      float64
}

// outcome is one run's result. failed counts every failed or wrong
// answer and every mismatch a correctness check finds; error_rate is
// failed ÷ attempted.
type outcome struct {
	attempted int
	failed    int
	metrics   []metric
	info      map[string]interface{} // inputs and counts recorded with the result
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

func (o *outcome) note(key string, v interface{}) {
	if o.info == nil {
		o.info = map[string]interface{}{}
	}
	o.info[key] = v
}

// costModel prices virtual time on the paper's DECstation 5000/200.
func costModel() *kernel.CostModel { return kernel.NewCostModel(arch.R3000) }

func main() {
	workload := flag.String("workload", "", "andrew-cluster, scan-single or mach-table7")
	seed := flag.Int64("seed", 1, "seed the op streams are generated from")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload andrew-cluster|scan-single|mach-table7 --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *workload, cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report prints the host fingerprint and inputs, a metric table, and
// the result line.
func report(w io.Writer, workload string, cfg config, out *outcome) error {
	header := map[string]interface{}{
		"workload": workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"host":     hostFingerprint(),
		"run":      out.info,
	}
	hb, err := json.Marshal(header)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(hb))
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "%-44s %18g %s\n", "error_rate", errRate, "ratio")
	metrics := map[string]interface{}{}
	for _, m := range out.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "%-44s %18g %s\n", m.name, m.value, m.unit)
		metrics[m.name] = map[string]interface{}{"value": m.value, "unit": m.unit}
	}
	rb, err := json.Marshal(map[string]interface{}{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(rb))
	return nil
}

// hostFingerprint records what a number depends on besides the code,
// so no result is compared blindly across hosts.
func hostFingerprint() map[string]interface{} {
	return map[string]interface{}{
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"gogc":       os.Getenv("GOGC"), // empty: the runtime's default
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// timeSetup runs build reps times, timing each, and returns the last
// build's value with the median set-up time: the first builds pay for
// lazy initialisation a user pays once, and the median is steadier than
// any single build.
func timeSetup[T any](reps int, build func() (T, error)) (T, float64, error) {
	var v T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		v, err = build()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return v, median(times), nil
}
