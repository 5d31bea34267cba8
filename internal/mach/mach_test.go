package mach

import (
	"sync"
	"testing"

	"archos/internal/paper"
	"archos/internal/workload"
)

func mono() *OS  { return New(DefaultConfig(Monolithic)) }
func micro() *OS { return New(DefaultConfig(Microkernel)) }

// A Run's result depends only on the OS configuration and the workload
// (TestDeterministicRuns holds that), so the tests that only read the
// stock results share one run of each structure over workload.All().
var (
	stockOnce             sync.Once
	stockMono, stockMicro map[string]Result
)

// stock returns the stock-configuration result of w under structure s.
func stock(s Structure, w workload.Spec) Result {
	stockOnce.Do(func() {
		stockMono, stockMicro = map[string]Result{}, map[string]Result{}
		for _, w := range workload.All() {
			stockMono[w.Name] = mono().Run(w)
			stockMicro[w.Name] = micro().Run(w)
		}
	})
	rs := stockMono
	if s == Microkernel {
		rs = stockMicro
	}
	r, ok := rs[w.Name]
	if !ok {
		panic("mach test: no stock result for " + w.Name)
	}
	return r
}

func TestZeroConfigMicrokernelRuns(t *testing.T) {
	// A Config that never set Servers must normalise to the stock two
	// Mach 3.0 servers and run the microkernel path — the serverTask
	// modulo in the TLB drive must never see a zero divisor.
	os := New(Config{Spec: DefaultConfig(Microkernel).Spec, Structure: Microkernel})
	if got := os.Config().Servers; got != 2 {
		t.Fatalf("zero-valued Servers normalised to %d, want the stock 2", got)
	}
	r := os.Run(workload.AndrewLocal)
	if r.Syscalls <= 0 || r.ElapsedSec <= 0 {
		t.Errorf("zero-config microkernel run produced empty result: %+v", r)
	}
}

func TestDecompositionMultipliesPrimitives(t *testing.T) {
	// Table 7's first-order content: "a decomposed system will execute
	// more low-level system functions than a monolithic system."
	for _, w := range workload.All() {
		a, b := stock(Monolithic, w), stock(Microkernel, w)
		if b.Syscalls <= a.Syscalls {
			t.Errorf("%s: syscalls %d (3.0) ≤ %d (2.5)", w.Name, b.Syscalls, a.Syscalls)
		}
		if b.ASSwitches <= a.ASSwitches {
			t.Errorf("%s: AS switches %d (3.0) ≤ %d (2.5)", w.Name, b.ASSwitches, a.ASSwitches)
		}
		if b.ThreadSwitches <= a.ThreadSwitches {
			t.Errorf("%s: thread switches %d (3.0) ≤ %d (2.5)", w.Name, b.ThreadSwitches, a.ThreadSwitches)
		}
		if b.EmulInstrs <= a.EmulInstrs {
			t.Errorf("%s: emulated instructions %d (3.0) ≤ %d (2.5)", w.Name, b.EmulInstrs, a.EmulInstrs)
		}
	}
}

func TestKernelTLBMissInflation(t *testing.T) {
	// "the number of kernel-level TLB misses is significantly larger
	// for all applications running under Mach 3.0 ... increase the
	// number of second-level misses by an order of magnitude."
	for _, w := range []workload.Spec{workload.Spellcheck, workload.Latex150, workload.AndrewLocal, workload.AndrewRemote, workload.LinkVmunix} {
		a, b := stock(Monolithic, w), stock(Microkernel, w)
		if ratio := float64(b.KTLBMisses) / float64(a.KTLBMisses); ratio < 4 {
			t.Errorf("%s: kernel TLB misses grew only %.1fx (2.5: %d → 3.0: %d); paper says an order of magnitude",
				w.Name, ratio, a.KTLBMisses, b.KTLBMisses)
		}
	}
}

func TestAndrewRemoteContextSwitchInflation(t *testing.T) {
	// "there is a 33-fold increase in context switches for the remote
	// Andrew benchmark on Mach 3.0 over Mach 2.5."
	a := stock(Monolithic, workload.AndrewRemote)
	b := stock(Microkernel, workload.AndrewRemote)
	ratio := float64(b.ASSwitches) / float64(a.ASSwitches)
	if ratio < 15 || ratio > 50 {
		t.Errorf("andrew-remote AS-switch inflation %.0fx, paper says 33x", ratio)
	}
}

func TestTimeInPrimitivesBand(t *testing.T) {
	// "Under Mach 3.0, most of the applications spend between 15 and 20
	// percent of their time executing these primitives" (latex is the
	// low outlier at 5%).
	inBand := 0
	for _, w := range workload.All() {
		r := stock(Microkernel, w)
		if r.PctInPrims < 2 || r.PctInPrims > 30 {
			t.Errorf("%s: %.1f%% in primitives — implausible", w.Name, r.PctInPrims)
		}
		if r.PctInPrims >= 10 && r.PctInPrims <= 25 {
			inBand++
		}
	}
	if inBand < 4 {
		t.Errorf("only %d/7 workloads in the 10–25%% primitive band; paper has most at 15–20%%", inBand)
	}
}

func TestParthenonEmulatedInstructionsAreSyncOps(t *testing.T) {
	// parthenon's 1.3–1.4M kernel-emulated instructions are its lock
	// traffic (no atomic test-and-set on MIPS) under both structures.
	for _, w := range []workload.Spec{workload.Parthenon1, workload.Parthenon10} {
		for _, st := range []Structure{Monolithic, Microkernel} {
			r := stock(st, w)
			lo, hi := w.SyncOps, w.SyncOps+w.SyncOps/10
			if r.EmulInstrs < lo || r.EmulInstrs > hi {
				t.Errorf("%s/%s: emulated instructions %d, want ≈SyncOps %d",
					w.Name, st, r.EmulInstrs, w.SyncOps)
			}
		}
	}
}

func TestMonolithicCalibration(t *testing.T) {
	// The monolithic half of Table 7 is nearly direct workload data;
	// hold the simulation to ±35% on every count column that the paper
	// reports (emulated instructions are a flat trickle for the
	// non-parthenon rows and are checked by sign only).
	for i, w := range workload.All() {
		r := stock(Monolithic, w)
		p := paper.Table7Mach25[i]
		check := func(name string, got, want int64) {
			if want == 0 {
				return
			}
			rel := float64(got-want) / float64(want)
			if rel > 0.40 || rel < -0.40 {
				t.Errorf("%s %s: %d vs paper %d (%.0f%%)", w.Name, name, got, want, 100*rel)
			}
		}
		check("AS switches", r.ASSwitches, p.ASSwitches)
		check("thread switches", r.ThreadSwitches, p.ThreadSwitch)
		check("syscalls", r.Syscalls, p.Syscalls)
		if p.KTLBMisses >= 5000 {
			// Below a few thousand the paper's miss counts are noise-
			// level background activity; hold only the big rows.
			check("kTLB misses", r.KTLBMisses, p.KTLBMisses)
		}
		if rel := (r.ElapsedSec - p.Seconds) / p.Seconds; rel > 0.25 || rel < -0.25 {
			t.Errorf("%s elapsed %.1f s vs paper %.1f s", w.Name, r.ElapsedSec, p.Seconds)
		}
	}
}

func TestMicrokernelOrdersOfMagnitude(t *testing.T) {
	// The decomposed half: hold every count to within a factor of ~2.5
	// of the paper — the shape target.
	for i, w := range workload.All() {
		r := stock(Microkernel, w)
		p := paper.Table7Mach30[i]
		check := func(name string, got, want int64) {
			if want == 0 {
				return
			}
			ratio := float64(got) / float64(want)
			if ratio > 2.5 || ratio < 0.4 {
				t.Errorf("%s %s: %d vs paper %d (%.1fx)", w.Name, name, got, want, ratio)
			}
		}
		check("AS switches", r.ASSwitches, p.ASSwitches)
		check("thread switches", r.ThreadSwitches, p.ThreadSwitch)
		check("syscalls", r.Syscalls, p.Syscalls)
		check("emul instrs", r.EmulInstrs, p.EmulInstrs)
		check("kTLB misses", r.KTLBMisses, p.KTLBMisses)
		check("other exceptions", r.OtherExcept, p.OtherExcept)
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, os := range []*OS{mono(), micro()} {
		a := os.Run(workload.AndrewLocal)
		b := os.Run(workload.AndrewLocal)
		if a != b {
			t.Errorf("%v: nondeterministic run:\n%+v\n%+v", os.Config().Structure, a, b)
		}
	}
}

func TestDeeperDecompositionCostsMore(t *testing.T) {
	// The A5 ablation invariant: more servers → more switches, more
	// kernel TLB misses, more time.
	prev := Result{}
	for i, servers := range []int{2, 4, 8} {
		cfg := DefaultConfig(Microkernel)
		cfg.Servers = servers
		r := New(cfg).Run(workload.AndrewLocal)
		if i > 0 {
			if r.ASSwitches <= prev.ASSwitches || r.KTLBMisses <= prev.KTLBMisses || r.ElapsedSec <= prev.ElapsedSec {
				t.Errorf("decomposition to %d servers did not cost more: %+v vs %+v", servers, r, prev)
			}
		}
		prev = r
	}
}

func TestRunAllAndStructureString(t *testing.T) {
	rs := micro().RunAll(workload.All())
	if len(rs) != 7 {
		t.Fatalf("RunAll returned %d results", len(rs))
	}
	if Monolithic.String() == Microkernel.String() {
		t.Error("structure names collide")
	}
	if New(Config{Spec: DefaultConfig(Monolithic).Spec}).Config().Servers != 2 {
		t.Error("zero servers should normalise to the stock 2")
	}
}

func TestPrimSecondsPositiveAndBelowElapsed(t *testing.T) {
	for _, st := range []Structure{Monolithic, Microkernel} {
		for _, w := range workload.All() {
			r := stock(st, w)
			if r.PrimSeconds <= 0 || r.PrimSeconds >= r.ElapsedSec {
				t.Errorf("%s/%v: PrimSeconds %.2f vs elapsed %.2f", w.Name, st, r.PrimSeconds, r.ElapsedSec)
			}
		}
	}
}

func TestPrimBreakdownSumsAndKTLBDominates(t *testing.T) {
	// The per-kind decomposition must sum to PrimSeconds, and under the
	// decomposed structure on the R3000 the slow kernel-TLB-miss path
	// must be the largest bucket for the file-intensive workloads —
	// the paper's third Section 5 observation.
	for _, w := range []workload.Spec{workload.AndrewLocal, workload.AndrewRemote, workload.LinkVmunix} {
		r := stock(Microkernel, w)
		sum := 0.0
		max := PrimKind(0)
		for k := PrimKind(0); k < NumPrimKinds; k++ {
			sum += r.PrimSecondsByKind[k]
			if r.PrimSecondsByKind[k] > r.PrimSecondsByKind[max] {
				max = k
			}
		}
		if diff := sum - r.PrimSeconds; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: breakdown sums to %.3f, PrimSeconds %.3f", w.Name, sum, r.PrimSeconds)
		}
		if max != PrimKTLBMisses {
			t.Errorf("%s: dominant bucket %v, want kernel TLB misses", w.Name, max)
		}
	}
	// parthenon's bill is emulation (lock traps), not TLB misses.
	r := stock(Microkernel, workload.Parthenon1)
	if r.PrimSecondsByKind[PrimEmulation] < r.PrimSecondsByKind[PrimKTLBMisses] {
		t.Error("parthenon: emulation should dominate its primitive time")
	}
}

func TestPrimKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := PrimKind(0); k < NumPrimKinds; k++ {
		n := k.String()
		if n == "unknown" || seen[n] {
			t.Errorf("bad or duplicate PrimKind name %q", n)
		}
		seen[n] = true
	}
	if PrimKind(99).String() != "unknown" {
		t.Error("out-of-range PrimKind should be unknown")
	}
}
