package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func taggedCfg() Config {
	return Config{
		Name: "test", Entries: 8, Tagged: true, Refill: SoftwareRefill,
		UserMissCycles: 12, KernelMissCycles: 300, PurgeCycles: 8, Lockable: 2,
	}
}

func untaggedCfg() Config {
	c := taggedCfg()
	c.Tagged = false
	return c
}

func TestLookupMissThenHit(t *testing.T) {
	tl := New(taggedCfg())
	hit, pen := tl.Lookup(1, 100, false)
	if hit || pen != 12 {
		t.Errorf("first lookup: hit=%v pen=%.0f, want user miss costing 12", hit, pen)
	}
	hit, pen = tl.Lookup(1, 100, false)
	if !hit || pen != 0 {
		t.Errorf("second lookup: hit=%v pen=%.0f, want free hit", hit, pen)
	}
}

func TestKernelMissCostsMore(t *testing.T) {
	// The R3000's two refill paths: "about a dozen cycles" for user
	// misses, "a few hundred cycles" through the common vector for
	// kernel misses.
	tl := New(taggedCfg())
	_, userPen := tl.Lookup(1, 1, false)
	_, kernPen := tl.Lookup(1, 2, true)
	if kernPen <= userPen {
		t.Errorf("kernel miss (%.0f) not dearer than user miss (%.0f)", kernPen, userPen)
	}
	if tl.MissCycles() != userPen+kernPen {
		t.Errorf("MissCycles = %.0f, want %.0f", tl.MissCycles(), userPen+kernPen)
	}
}

func TestTaggedTLBSurvivesContextSwitch(t *testing.T) {
	tl := New(taggedCfg())
	tl.Lookup(1, 100, false)
	if pen := tl.ContextSwitch(2); pen != 0 {
		t.Errorf("tagged TLB charged %.0f cycles at context switch", pen)
	}
	if hit, _ := tl.Lookup(1, 100, false); !hit {
		t.Error("tagged entry lost across context switch")
	}
	// But the other process must not hit it.
	if hit, _ := tl.Lookup(2, 100, false); hit {
		t.Error("cross-PID hit in a tagged TLB")
	}
}

func TestUntaggedTLBPurgesOnContextSwitch(t *testing.T) {
	tl := New(untaggedCfg())
	tl.Lookup(1, 100, false)
	if pen := tl.ContextSwitch(2); pen != 8 {
		t.Errorf("untagged switch cost %.0f, want the 8-cycle purge", pen)
	}
	_, _, _, purges := tl.Stats()
	if purges != 1 {
		t.Errorf("purges = %d, want 1", purges)
	}
	if tl.Valid() != 0 {
		t.Errorf("%d entries survived an untagged purge", tl.Valid())
	}
}

func TestUntaggedTLBMatchesOnVPNAlone(t *testing.T) {
	// Untagged hardware has no PID: without a purge, a stale entry
	// wrongly hits — exactly why the purge is mandatory.
	tl := New(untaggedCfg())
	tl.Lookup(1, 100, false)
	if hit, _ := tl.Lookup(2, 100, false); !hit {
		t.Error("untagged TLB should match on VPN alone (that is the hazard)")
	}
}

func TestLRUEviction(t *testing.T) {
	tl := New(taggedCfg())
	for v := uint64(0); v < 8; v++ {
		tl.Lookup(1, v, false)
	}
	tl.Lookup(1, 0, false) // refresh vpn 0
	tl.Lookup(1, 99, false)
	// vpn 1 was least recently used.
	if hit, _ := tl.Lookup(1, 1, false); hit {
		t.Error("LRU entry survived eviction")
	}
	if hit, _ := tl.Lookup(1, 0, false); !hit {
		t.Error("recently used entry was evicted")
	}
}

func TestLockedEntries(t *testing.T) {
	// SPARC/Cypress: "an operating system specified portion of the
	// 64-entry TLB can be locked to prevent hardware from replacing
	// entries in that section."
	tl := New(taggedCfg())
	if !tl.Lock(1000) || !tl.Lock(1001) {
		t.Fatal("could not lock entries within quota")
	}
	if tl.Lock(1002) {
		t.Error("lock succeeded beyond the lockable quota")
	}
	// Thrash the TLB; locked entries must survive.
	for v := uint64(0); v < 100; v++ {
		tl.Lookup(1, v, false)
	}
	if hit, _ := tl.Lookup(1, 1000, false); !hit {
		t.Error("locked entry was evicted")
	}
	// Locked entries are global: any PID hits them.
	if hit, _ := tl.Lookup(7, 1001, false); !hit {
		t.Error("locked global entry not visible to another PID")
	}
	// And they survive purges.
	tl.Purge()
	if hit, _ := tl.Lookup(1, 1000, true); !hit {
		t.Error("locked entry lost in a purge")
	}
}

func TestInvalidateVPN(t *testing.T) {
	tl := New(taggedCfg())
	tl.Lookup(1, 5, false)
	tl.Lookup(2, 5, false)
	if n := tl.InvalidateVPN(1, 5); n != 1 {
		t.Errorf("invalidated %d entries, want 1 (PID-specific)", n)
	}
	if hit, _ := tl.Lookup(2, 5, false); !hit {
		t.Error("invalidate removed another process's entry")
	}
}

func TestResetClearsEverything(t *testing.T) {
	tl := New(taggedCfg())
	tl.Lock(1)
	tl.Lookup(1, 2, false)
	tl.Reset()
	if tl.Valid() != 0 || tl.MissCycles() != 0 {
		t.Error("reset left state behind")
	}
	// Lock quota is restored.
	if !tl.Lock(9) {
		t.Error("lock quota not restored by reset")
	}
}

func TestNewPanicsOnZeroEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-entry TLB did not panic")
		}
	}()
	New(Config{Entries: 0})
}

// TestTLBMatchesReferenceModel runs seeded mixed op streams through the
// TLB and the naive reference model, on tagged and untagged TLBs with
// and without a lockable range, and compares every result and counter
// after every op.
func TestTLBMatchesReferenceModel(t *testing.T) {
	for _, entries := range []int{1, 4, 64} {
		for _, tagged := range []bool{true, false} {
			for _, lockable := range []int{0, 1 + entries/8} {
				cfg := Config{
					Name: "ref", Entries: entries, Tagged: tagged,
					UserMissCycles: 12, KernelMissCycles: 300, PurgeCycles: 8, Lockable: lockable,
				}
				for seed := int64(1); seed <= 20; seed++ {
					ops := randomOps(rand.New(rand.NewSource(seed)), entries, 3000)
					if err := diverge(cfg, ops); err != nil {
						t.Fatalf("entries=%d tagged=%v lockable=%d seed=%d: %v",
							entries, tagged, lockable, seed, err)
					}
				}
			}
		}
	}
}

// randomOps draws a stream that is mostly lookups over about twice the
// TLB's reach, with sparse locks, invalidates, context switches, purges
// and resets so the TLB both fills and is disturbed.
func randomOps(rng *rand.Rand, entries, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		o := op{pid: rng.Intn(3), vpn: uint64(rng.Intn(2*entries + 4)), kernel: rng.Intn(2) == 0}
		switch d := rng.Intn(1000); {
		case d < 940:
			o.kind = opLookup
		case d < 960:
			o.kind = opLock
		case d < 985:
			o.kind = opInvalidate
		case d < 993:
			o.kind = opContextSwitch
		case d < 997:
			o.kind = opPurge
		default:
			o.kind = opReset
		}
		ops[i] = o
	}
	return ops
}

// FuzzTLB decodes a TLB configuration and an op stream from the fuzz
// input and checks the TLB against the reference model: it must never
// panic or diverge.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{7, 5, 0, 1, 6, 0, 1, 5, 10, 0, 5, 12, 1, 5})
	f.Add([]byte{0, 3, 0, 0, 1, 10, 0, 1, 0, 2, 2, 14, 0, 0, 15, 0, 0})
	f.Add([]byte{63, 16, 0, 0, 9, 16, 1, 9, 13, 2, 0, 11, 0, 9, 3, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		entries := 1 + int(data[0])%128
		cfg := Config{
			Name: "fuzz", Entries: entries, Tagged: data[1]&1 == 1,
			UserMissCycles: 12, KernelMissCycles: 300, PurgeCycles: 8,
			Lockable: int(data[1]>>1) % (entries + 2),
		}
		var ops []op
		for b := data[2:]; len(b) >= 3; b = b[3:] {
			ops = append(ops, op{
				kind:   decodeKind(b[0]),
				kernel: b[0]&0x10 != 0,
				pid:    int(b[1] % 4),
				vpn:    uint64(b[2]) % uint64(2*entries+8),
			})
		}
		if err := diverge(cfg, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// decodeKind maps the low nibble of a fuzz byte to an op, weighted
// towards lookups.
func decodeKind(b byte) opKind {
	switch n := b & 0x0F; {
	case n < 10:
		return opLookup
	case n < 12:
		return opLock
	case n == 12:
		return opInvalidate
	case n == 13:
		return opContextSwitch
	case n == 14:
		return opPurge
	}
	return opReset
}

func TestLookupDoesNotAllocate(t *testing.T) {
	tl := New(taggedCfg())
	tl.Lookup(1, 5, false)
	if n := testing.AllocsPerRun(1000, func() { tl.Lookup(1, 5, false) }); n != 0 {
		t.Errorf("hit path allocates %.1f times per lookup", n)
	}
	vpn := uint64(100)
	if n := testing.AllocsPerRun(1000, func() {
		vpn++
		tl.Lookup(1, vpn, true)
	}); n != 0 {
		t.Errorf("miss path allocates %.1f times per lookup", n)
	}
}

func TestLockPrefersFreeSlot(t *testing.T) {
	tl := New(taggedCfg())
	tl.Lookup(1, 6, false)
	if !tl.Lock(7) {
		t.Fatal("lock within quota failed")
	}
	if hit, _ := tl.Lookup(1, 6, false); !hit {
		t.Error("lock evicted a live entry while free slots remained")
	}
	if tl.Valid() != 2 {
		t.Errorf("%d valid entries, want 2", tl.Valid())
	}
}

func TestLockReusesEntryForSameVPN(t *testing.T) {
	tl := New(taggedCfg())
	tl.Lookup(1, 6, false)
	tl.Lookup(1, 5, false)
	if !tl.Lock(5) {
		t.Fatal("lock within quota failed")
	}
	if hit, _ := tl.Lookup(1, 6, false); !hit {
		t.Error("locking vpn 5 evicted vpn 6")
	}
	if tl.Valid() != 2 {
		t.Errorf("%d valid entries, want 2 (the pinned 5 and 6)", tl.Valid())
	}
	if n := tl.InvalidateVPN(1, 5); n != 1 {
		t.Errorf("invalidating vpn 5 removed %d entries, want 1", n)
	}
}

func TestLockDropsOtherEntriesForVPN(t *testing.T) {
	tl := New(taggedCfg())
	tl.Lookup(1, 5, false)
	tl.Lookup(2, 5, false)
	if !tl.Lock(5) {
		t.Fatal("lock within quota failed")
	}
	if tl.Valid() != 1 {
		t.Errorf("%d valid entries after locking vpn 5, want only the pinned one", tl.Valid())
	}
	if n := tl.InvalidateVPN(3, 5); n != 1 {
		t.Errorf("invalidating vpn 5 removed %d entries, want 1", n)
	}
}

func TestRelockKeepsQuota(t *testing.T) {
	tl := New(taggedCfg()) // two lockable entries
	if !tl.Lock(5) || !tl.Lock(5) {
		t.Fatal("locking or re-locking vpn 5 failed")
	}
	if !tl.Lock(6) {
		t.Error("re-locking vpn 5 consumed lock quota")
	}
	if tl.Lock(7) {
		t.Error("lock succeeded beyond the lockable quota")
	}
	if tl.Valid() != 2 {
		t.Errorf("%d valid entries, want 2", tl.Valid())
	}
}

func TestLockEvictsLRUWhenFull(t *testing.T) {
	tl := New(taggedCfg())
	for v := uint64(0); v < 8; v++ {
		tl.Lookup(1, v, false)
	}
	tl.Lookup(1, 0, false) // refresh vpn 0; vpn 1 is now least recent
	if !tl.Lock(100) {
		t.Fatal("lock within quota failed")
	}
	for _, v := range []uint64{0, 2, 3, 4, 5, 6, 7} {
		if hit, _ := tl.Lookup(1, v, false); !hit {
			t.Errorf("vpn %d evicted; the lock should take the LRU vpn 1", v)
		}
	}
	if hit, _ := tl.Lookup(1, 1, false); hit {
		t.Error("LRU vpn 1 survived the lock")
	}
}

// TestTLBMissesMonotoneInSize: a bigger TLB never misses more on the
// same stream.
func TestTLBMissesMonotoneInSize(t *testing.T) {
	f := func(stream []uint8) bool {
		run := func(entries int) int64 {
			tl := New(Config{Name: "q", Entries: entries, Tagged: true, UserMissCycles: 1, KernelMissCycles: 1})
			for _, v := range stream {
				tl.Lookup(0, uint64(v%48), false)
			}
			_, u, k, _ := tl.Stats()
			return u + k
		}
		return run(32) <= run(8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
