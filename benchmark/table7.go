package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"archos/internal/mach"
	"archos/internal/paper"
	"archos/internal/workload"
)

// table7Reference holds the simulated counts of all 14 Table-7 cells as
// the program produced them when the benchmark was defined, one
// cellLine per cell. A speed-only change must reproduce them exactly;
// `go test -run TestTable7Reference -update` rewrites the file after a
// change that moves them on purpose.
//
//go:embed table7_reference.txt
var table7Reference string

var structures = []mach.Structure{mach.Monolithic, mach.Microkernel}

// structureSlug names a structure in metric names.
func structureSlug(s mach.Structure) string {
	if s == mach.Microkernel {
		return "mach30"
	}
	return "mach25"
}

// slug turns a workload name such as "parthenon (1 thread)" into a
// metric-name component ("parthenon-1-thread").
func slug(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(name) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			if dash && b.Len() > 0 {
				b.WriteByte('-')
			}
			b.WriteRune(r)
			dash = false
		} else {
			dash = true
		}
	}
	return b.String()
}

// cellLine is a cell's simulated counts in the reference format.
func cellLine(r mach.Result) string {
	return fmt.Sprintf("%s %s %d %d %d %d %d %d", structureSlug(r.Structure), slug(r.Workload),
		r.ASSwitches, r.ThreadSwitches, r.Syscalls, r.EmulInstrs, r.KTLBMisses, r.OtherExcept)
}

// regeneration is one regeneration of the 14 cells: their results in
// (structure, workload) order and the host time each took.
type regeneration struct {
	results []mach.Result
	cellNS  []float64
	totalS  float64
}

// regenerate runs every workload.All() spec under both structures
// through mach.OS.Run, on sims, one OS per structure as core.Table7
// builds them. With perCell set each Run is timed on its own — the
// benchmark's wrapper around the mach layer; without it only the whole
// regeneration is.
func regenerate(sims []*mach.OS, specs []workload.Spec, perCell bool) regeneration {
	g := regeneration{}
	start := time.Now()
	for _, sim := range sims {
		for _, w := range specs {
			if !perCell {
				g.results = append(g.results, sim.Run(w))
				continue
			}
			t0 := time.Now()
			r := sim.Run(w)
			g.cellNS = append(g.cellNS, float64(time.Since(t0)))
			g.results = append(g.results, r)
		}
	}
	g.totalS = time.Since(start).Seconds()
	return g
}

// newSims builds one OS per structure.
func newSims() []*mach.OS {
	var sims []*mach.OS
	for _, st := range structures {
		sims = append(sims, mach.New(mach.DefaultConfig(st)))
	}
	return sims
}

// regenerateFor regenerates the table until dur has passed, at least once.
func regenerateFor(sims []*mach.OS, specs []workload.Spec, dur time.Duration, perCell bool) []regeneration {
	var out []regeneration
	forDuration(dur, func() { out = append(out, regenerate(sims, specs, perCell)) })
	return out
}

// referenceCells parses the committed reference into one line per cell.
func referenceCells() []string {
	var cells []string
	for _, l := range strings.Split(table7Reference, "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			cells = append(cells, l)
		}
	}
	return cells
}

// checkCells counts the cells of every regeneration whose simulated
// counts differ from the reference, and digests the last one.
func checkCells(regs []regeneration, ref []string) (mismatches int, digest string) {
	var last []string
	for _, g := range regs {
		last = last[:0]
		for i, r := range g.results {
			l := cellLine(r)
			if i >= len(ref) || l != ref[i] {
				mismatches++
			}
			last = append(last, l)
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(last, "\n") + "\n"))
	return mismatches, hex.EncodeToString(sum[:])
}

// table7ErrPct is the geometric mean of |relative error| of the six
// simulated counts of every cell against the paper's Table 7, in
// percent — simulated accuracy, which a speed-only change leaves
// identical.
func table7ErrPct(results []mach.Result) float64 {
	logSum, n := 0.0, 0
	for i, r := range results {
		rows := paper.Table7Mach25
		if r.Structure == mach.Microkernel {
			rows = paper.Table7Mach30
		}
		p := rows[i%len(rows)]
		pairs := [][2]int64{
			{r.ASSwitches, p.ASSwitches}, {r.ThreadSwitches, p.ThreadSwitch},
			{r.Syscalls, p.Syscalls}, {r.EmulInstrs, p.EmulInstrs},
			{r.KTLBMisses, p.KTLBMisses}, {r.OtherExcept, p.OtherExcept},
		}
		for _, c := range pairs {
			e := math.Abs(float64(c[0]-c[1])) / float64(c[1])
			logSum += math.Log(math.Max(e, 1e-6))
			n++
		}
	}
	return 100 * math.Exp(logSum/float64(n))
}

// table7Inputs is what mach-table7's set-up builds and its
// regenerations use.
type table7Inputs struct {
	specs []workload.Spec
	sims  []*mach.OS
	ref   []string
}

// setupTable7 is mach-table7's set-up: the workload specs, the two OS
// instances every regeneration runs on and the parsed reference. It is
// cheap, so it is repeated many times for a steady median.
func setupTable7() (*table7Inputs, error) {
	in := &table7Inputs{specs: workload.All(), sims: newSims(), ref: referenceCells()}
	if len(in.ref) != len(in.specs)*len(in.sims) {
		return nil, fmt.Errorf("table7 reference has %d cells, want %d", len(in.ref), len(in.specs)*len(in.sims))
	}
	return in, nil
}

const table7SetupReps = 10001

// runTable7 regenerates Table 7 for the run's time. Its unit of work
// ("op") is one cell; the seed is ignored, since the table has no
// random input.
func runTable7(cfg config) (*outcome, error) {
	in, setupS, err := timeSetup(table7SetupReps, setupTable7)
	if err != nil {
		return nil, err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	out := &outcome{}
	var regs []regeneration
	if cfg.trace {
		if regs, err = tracedTable7(in, dur, out); err != nil {
			return nil, err
		}
	} else {
		m0 := mallocs()
		regs = regenerateFor(in.sims, in.specs, dur, true)
		cells := len(regs) * len(regs[0].results)
		allocs := float64(mallocs()-m0) / float64(cells)
		// Each regeneration is one window of the latency percentiles: it
		// holds every cell once, so all windows hold the same mix.
		win := make([]latHist, len(regs))
		var totals []float64
		var simulated float64
		for i, g := range regs {
			for _, ns := range g.cellNS {
				win[i].add(int64(ns))
			}
			totals = append(totals, g.totalS)
		}
		for _, r := range regs[0].results {
			simulated += r.ElapsedSec * 1e6
		}
		out.add("setup_s", "s", setupS)
		out.add("ops_per_s", "1/s", float64(len(regs[0].results))/median(totals))
		out.add("op_p50_us", "us", windowQuantileUS(win, 0.50))
		out.add("op_p99_us", "us", windowQuantileUS(win, 0.99))
		out.add("allocs_per_op", "count", allocs)
		out.add("heap_mb", "MiB", simHeapMB(in))
		out.add("vt_op_us", "vus", simulated/float64(len(regs[0].results)))
		out.note("table7_s", median(totals))
		out.note("regeneration_s", totals)
		var w50, w99 []float64
		for i := range win {
			w50 = append(w50, win[i].quantile(0.50)/1e3)
			w99 = append(w99, win[i].quantile(0.99)/1e3)
		}
		out.note("window_p50_us", w50)
		out.note("window_p99_us", w99)
		out.note("table7_err_pct", table7ErrPct(regs[0].results))
		out.note("latency_samples", cells)
	}
	bad, digest := checkCells(regs, in.ref)
	out.attempted = len(regs) * len(in.ref)
	out.failed = bad
	out.note("regenerations", len(regs))
	out.note("cells", out.attempted)
	out.note("table7_digest", digest)
	return out, nil
}

// simHeapMB is the live heap the simulators hold after the run: the
// live heap while in.sims is referenced minus the live heap once it is
// dropped, so the benchmark's own inputs and results cancel out.
func simHeapMB(in *table7Inputs) float64 {
	with := liveHeapMB()
	in.sims = nil
	return with - liveHeapMB()
}
