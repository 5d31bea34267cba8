package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/workload"
)

var update = flag.Bool("update", false, "rewrite table7_reference.txt from the program's current output")

// TestTable7Reference checks the committed reference against a fresh
// regeneration, or rewrites it with -update.
func TestTable7Reference(t *testing.T) {
	g := regenerate(newSims(), workload.All(), false)
	var lines []string
	for _, r := range g.results {
		lines = append(lines, cellLine(r))
	}
	got := "# structure workload as_switches thread_switches syscalls emul_instrs ktlb_misses other_exceptions\n" +
		strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile("table7_reference.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != table7Reference {
		t.Fatalf("simulated counts differ from table7_reference.txt:\n%s", got)
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func names(ms []unitName) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name+" "+m.unit)
	}
	return out
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// benchmark's workloads and metrics, with the units it prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	var ws, e2e, layers []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(ws)
	sort.Strings(want)
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", ws, want)
	}
	if !reflect.DeepEqual(e2e, names(endToEnd)) {
		t.Errorf("end_to_end: BENCHMARK.json %v, benchmark %v", e2e, names(endToEnd))
	}
	if !reflect.DeepEqual(layers, names(perLayer())) {
		t.Errorf("per_layer: BENCHMARK.json %v, benchmark %v", layers, names(perLayer()))
	}
}

// TestShortRunsEmitEveryMetric runs each workload briefly, untraced and
// traced, and checks it emits every named metric with its unit and
// answers correctly.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := run(config{seed: 3, seconds: 0.3, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			var got []unitName
			for _, m := range out.metrics {
				got = append(got, unitName{m.name, m.unit})
			}
			if !reflect.DeepEqual(names(got), names(want)) {
				t.Errorf("%s trace=%v emits %v, want %v", name, traced, names(got), names(want))
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d answers wrong", name, traced, out.failed, out.attempted)
			}
		}
	}
}

// plantedRun runs scan-single end to end with plant applied to every
// target set-up builds, and returns the printed result line.
func plantedRun(t *testing.T, plant func(*target)) map[string]interface{} {
	t.Helper()
	w := scanSingle
	w.build = func(s *stream) (*target, error) {
		tg, err := buildSingle(s)
		if err == nil {
			plant(tg)
		}
		return tg, err
	}
	out, err := runFS(config{seed: 4, seconds: 0.2}, w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report(&buf, "scan-single", config{seed: 4, seconds: 0.2}, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]interface{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "error_rate") {
		t.Error("no error_rate line")
	}
	return res
}

// TestPlantedErrorsAreCounted plants a wrong expected byte, a stray
// file on the server and a wrong reference cell, and checks each one
// makes the result incorrect.
func TestPlantedErrorsAreCounted(t *testing.T) {
	res := plantedRun(t, func(tg *target) {
		for _, p := range tg.s.payloads {
			p[1] ^= 0xff // the generator now expects bytes the server never stored
		}
	})
	if res["correct"] != false || res["failed"].(float64) == 0 {
		t.Errorf("planted wrong byte: %v", res)
	}
	res = plantedRun(t, func(tg *target) {
		if err := tg.remotes[0].Mkdir("/stray"); err != nil {
			t.Error(err)
		}
	})
	if res["correct"] != false || res["failed"].(float64) == 0 {
		t.Errorf("planted wrong fingerprint: %v", res)
	}

	g := regenerate(newSims(), workload.All(), false)
	ref := referenceCells()
	ref[3] += "0"
	if bad, _ := checkCells([]regeneration{g}, ref); bad != 1 {
		t.Errorf("planted wrong reference cell: %d mismatches, want 1", bad)
	}
}

// TestSameSeedSameInputs checks that a seed fixes the op streams and
// every deterministic metric.
func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(genAndrew(7), genAndrew(7)) || !reflect.DeepEqual(genScan(7, 2), genScan(7, 2)) {
		t.Error("one seed gave two op streams")
	}
	if reflect.DeepEqual(genAndrew(7), genAndrew(8)) || reflect.DeepEqual(genScan(7, 2), genScan(8, 2)) {
		t.Error("two seeds gave one op stream")
	}
	for name, w := range map[string]fsWorkload{"andrew-cluster": andrewCluster, "scan-single": scanSingle} {
		vt1, _, _, bad1, err1 := cycleReplay(w, 7)
		vt2, _, _, bad2, err2 := cycleReplay(w, 7)
		if err1 != nil || err2 != nil || bad1+bad2 != 0 {
			t.Fatalf("%s: cycle replay failed: %v %v, %d wrong", name, err1, err2, bad1+bad2)
		}
		if vt1 != vt2 {
			t.Errorf("%s: vt_op_us %v then %v", name, vt1, vt2)
		}
	}
	sims := newSims() // reused, as a run reuses them
	regs := regenerateFor(sims, workload.All(), time.Nanosecond, false)
	regs = append(regs, regenerate(sims, workload.All(), true))
	for i, r := range regs[0].results {
		if cellLine(r) != cellLine(regs[1].results[i]) {
			t.Errorf("cell %d: %s then %s", i, cellLine(r), cellLine(regs[1].results[i]))
		}
	}
	if a, b := table7ErrPct(regs[0].results), table7ErrPct(regs[1].results); a != b {
		t.Errorf("table7_err_pct %v then %v", a, b)
	}
}

// readLog is a Service that logs, for every Read, the bytes asked for
// and the bytes returned.
type readLog struct {
	fsserver.Service
	reads [][2]int
}

func (r *readLog) Read(fd, n int) ([]byte, error) {
	b, err := r.Service.Read(fd, n)
	r.reads = append(r.reads, [2]int{n, len(b)})
	return b, err
}

// TestAndrewReadsMatchAndrewMini checks that andrew-cluster reads a file
// the way fsserver.AndrewMini does: the same Read calls, asking for and
// returning the same sizes, in its scan and copy phases.
func TestAndrewReadsMatchAndrewMini(t *testing.T) {
	s := genAndrew(7)
	var path int32 = -1
	var got [][2]int
	size := 0
	for _, o := range s.clients[0] {
		if o.kind == opRead && path < 0 {
			path, size = o.path, len(s.payloads[o.data])
		}
		if o.path != path {
			continue
		}
		if o.kind == opUnlink {
			break
		}
		if o.kind == opRead {
			got = append(got, [2]int{int(o.n), min(int(o.n), size-int(o.off))})
		}
	}
	log := &readLog{Service: fsserver.NewDirect(fs.New(andrewBlocks), costModel())}
	script := fsserver.AndrewMini{Dirs: 1, FilesPerDir: 1, FileBytes: size, Seed: 1}
	if _, err := script.Run(log); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, log.reads) {
		t.Errorf("reads of a %d-byte file: benchmark %v, AndrewMini %v", size, got, log.reads)
	}
}
