// Package tlb simulates translation lookaside buffers with the design
// axes the paper compares: tagged (process-ID) versus untagged entries,
// hardware (microcoded) versus software miss handling, lockable entry
// ranges, and full purges on address-space change.
//
// The paper's data points this package must be able to express:
//
//   - The CVAX TLB is untagged, so a cross-address-space LRPC "must be
//     purged twice, once during the call and once on return", costing an
//     estimated 25% of the null LRPC time (Section 3.2).
//   - The MIPS R2000/R3000 has a 64-entry, software-refilled, tagged
//     TLB; user-space misses take about a dozen cycles, kernel-space
//     misses a few hundred (Section 5).
//   - The SPARC/Cypress implementation supports locking an operating-
//     system-specified portion of its 64-entry TLB (Section 3.2).
//
// A TLB is a fixed array of slots. The virtual page numbers sit in
// their own packed slice, and a lookup compares them all in turn, the
// software stand-in for the hardware's parallel match; every machine
// modelled here has 28 to 128 entries, so the scan stays a few cache
// lines long. Replacement is exact LRU through an intrusive doubly-
// linked recency list threaded through the unlocked slots: a hit moves
// its slot to the front, invalid slots are kept at the back, and a fill
// takes the back slot, so the victim is a free slot when one exists and
// otherwise the least recently used unlocked entry. Locked slots are off
// the list and never chosen.
package tlb

// RefillStyle selects who services a TLB miss.
type RefillStyle int

const (
	// HardwareRefill means a hardware or microcode walker fills the TLB
	// (VAX, 88000, SPARC/Cypress); the OS never sees routine misses.
	HardwareRefill RefillStyle = iota
	// SoftwareRefill means misses trap to an OS handler (MIPS); the
	// architecture does not dictate page-table structure.
	SoftwareRefill
)

func (r RefillStyle) String() string {
	if r == SoftwareRefill {
		return "software"
	}
	return "hardware"
}

// Config describes a TLB.
type Config struct {
	Name    string
	Entries int
	// Tagged entries carry a process ID and survive context switches.
	// Untagged TLBs must be purged on every address-space change.
	Tagged bool
	Refill RefillStyle
	// UserMissCycles and KernelMissCycles are the costs of servicing a
	// miss against a user-space or kernel-space address. For software
	// refill these are the handler path lengths (the R3000's "dozen
	// cycles" vs "a few hundred cycles"); for hardware refill they are
	// the walker's memory accesses.
	UserMissCycles   float64
	KernelMissCycles float64
	// PurgeCycles is the cost of a full purge (untagged TLBs at address-
	// space switch, e.g. VAX TBIA).
	PurgeCycles float64
	// Lockable is the number of entries the OS may pin (SPARC/Cypress);
	// locked entries are never chosen as victims.
	Lockable int
}

// slot is one TLB entry's match state plus its recency-list links.
type slot struct {
	valid  bool
	locked bool
	// global entries match regardless of PID (used for superpage /
	// locked kernel mappings).
	global bool
	pid    int
	// prev and next link the unlocked slots, most recent first; the
	// list is circular through a sentinel at index Entries.
	prev, next int32
}

// TLB is a fully-associative translation buffer with LRU replacement.
// (The machines in the paper use fully- or highly-associative TLBs; full
// associativity keeps the model simple and matches the 64-entry MIPS and
// Cypress parts.)
type TLB struct {
	cfg Config
	// vpns[i] is slot i's virtual page number, packed apart from the
	// rest of the slot so the match loop reads contiguous words.
	vpns  []uint64
	slots []slot
	// sentinel is the recency list's head-and-tail node.
	sentinel int32

	hits, userMisses, kernelMisses, purges int64
	missCycles                             float64
	locked                                 int
}

// New creates a TLB. It panics on a non-positive entry count because
// configurations are static architecture descriptions.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 {
		panic("tlb: entry count must be positive")
	}
	t := &TLB{
		cfg:      cfg,
		vpns:     make([]uint64, cfg.Entries),
		slots:    make([]slot, cfg.Entries+1),
		sentinel: int32(cfg.Entries),
	}
	t.Reset()
	return t
}

// unlink takes slot i off the recency list.
func (t *TLB) unlink(i int32) {
	s := &t.slots[i]
	t.slots[s.prev].next = s.next
	t.slots[s.next].prev = s.prev
}

// linkAfter puts slot i on the recency list right after slot at: after
// the sentinel is the front (most recent), after the back slot is the
// back.
func (t *TLB) linkAfter(i, at int32) {
	next := t.slots[at].next
	t.slots[i].prev, t.slots[i].next = at, next
	t.slots[at].next = i
	t.slots[next].prev = i
}

// match returns the slot translating vpn for pid, or -1.
func (t *TLB) match(pid int, vpn uint64) int32 {
	for i, v := range t.vpns {
		if v != vpn {
			continue
		}
		// Untagged TLBs have no notion of process: whatever survives a
		// (purging) context switch matches on virtual page alone, just
		// like the hardware. Tagged TLBs match PID or a global entry.
		if s := &t.slots[i]; s.valid && (!t.cfg.Tagged || s.global || s.pid == pid) {
			return int32(i)
		}
	}
	return -1
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Lookup translates virtual page number vpn for process pid. kernel
// marks a kernel-space reference. It reports whether the translation
// hit and the miss penalty in cycles (0 on hit). On a miss the entry is
// filled (the refill handler or walker ran).
func (t *TLB) Lookup(pid int, vpn uint64, kernel bool) (hit bool, penalty float64) {
	if i := t.match(pid, vpn); i >= 0 {
		if !t.slots[i].locked && t.slots[t.sentinel].next != i {
			t.unlink(i)
			t.linkAfter(i, t.sentinel)
		}
		t.hits++
		return true, 0
	}
	if kernel {
		t.kernelMisses++
		penalty = t.cfg.KernelMissCycles
	} else {
		t.userMisses++
		penalty = t.cfg.UserMissCycles
	}
	t.missCycles += penalty
	victim := t.slots[t.sentinel].prev
	if victim == t.sentinel {
		// Every entry locked: drop the fill. The OS misconfigured the
		// lock range; real hardware would fault, we simply do not cache.
		return false, penalty
	}
	t.unlink(victim)
	t.linkAfter(victim, t.sentinel)
	s := &t.slots[victim]
	s.valid, s.global, s.pid = true, false, pid
	t.vpns[victim] = vpn
	return false, penalty
}

// Lock pins a translation for vpn (global, kernel) into the TLB,
// consuming one lockable slot. It reuses a slot already translating vpn,
// else a free slot, else the least recently used unlocked entry, and
// drops every other entry for vpn so no lookup can match two slots.
// Re-locking a pinned vpn succeeds without using quota. It returns false
// when the lockable quota is exhausted.
func (t *TLB) Lock(vpn uint64) bool {
	target := int32(-1)
	for i, v := range t.vpns {
		if v != vpn || !t.slots[i].valid {
			continue
		}
		if t.slots[i].locked {
			return true
		}
		if target < 0 {
			target = int32(i)
		}
	}
	if t.locked >= t.cfg.Lockable {
		return false
	}
	if target < 0 {
		target = t.slots[t.sentinel].prev
		if target == t.sentinel {
			return false
		}
	}
	for i, v := range t.vpns {
		if v == vpn && int32(i) != target && t.slots[i].valid {
			t.invalidate(int32(i))
		}
	}
	t.unlink(target)
	s := &t.slots[target]
	s.valid, s.locked, s.global, s.pid = true, true, true, 0
	t.vpns[target] = vpn
	t.locked++
	return true
}

// invalidate empties slot i and puts it at the back of the recency list.
func (t *TLB) invalidate(i int32) {
	s := &t.slots[i]
	if s.locked {
		t.locked--
	} else {
		t.unlink(i)
	}
	s.valid, s.locked, s.global, s.pid = false, false, false, 0
	t.linkAfter(i, t.slots[t.sentinel].prev)
}

// InvalidateVPN removes any entry translating vpn for pid (a single-
// entry invalidate, e.g. VAX TBIS after a PTE change). It returns the
// number of entries removed.
func (t *TLB) InvalidateVPN(pid int, vpn uint64) int {
	n := 0
	for i, v := range t.vpns {
		s := &t.slots[i]
		if v == vpn && s.valid && (s.pid == pid || s.global || !t.cfg.Tagged) {
			t.invalidate(int32(i))
			n++
		}
	}
	return n
}

// ContextSwitch informs the TLB of an address-space change to pid. For
// an untagged TLB this purges every non-locked entry and returns the
// purge cost in cycles; tagged TLBs return zero.
func (t *TLB) ContextSwitch(pid int) (penalty float64) {
	if t.cfg.Tagged {
		return 0
	}
	return t.Purge()
}

// Purge invalidates every non-locked entry and returns PurgeCycles.
// Every slot left on the recency list is then invalid, so its order
// needs no repair.
func (t *TLB) Purge() float64 {
	for i := range t.vpns {
		if !t.slots[i].locked {
			t.slots[i].valid = false
		}
	}
	t.purges++
	return t.cfg.PurgeCycles
}

// Valid returns the number of valid entries.
func (t *TLB) Valid() int {
	n := 0
	for i := range t.vpns {
		if t.slots[i].valid {
			n++
		}
	}
	return n
}

// Stats reports hit and miss counts.
func (t *TLB) Stats() (hits, userMisses, kernelMisses, purges int64) {
	return t.hits, t.userMisses, t.kernelMisses, t.purges
}

// MissCycles returns the total cycles spent servicing misses.
func (t *TLB) MissCycles() float64 { return t.missCycles }

// Reset invalidates all entries (including locked) and clears statistics.
func (t *TLB) Reset() {
	s := t.sentinel
	t.slots[s].prev, t.slots[s].next = s, s
	for i := range t.vpns {
		t.vpns[i] = 0
		t.slots[i] = slot{}
		t.linkAfter(int32(i), t.slots[s].prev)
	}
	t.hits, t.userMisses, t.kernelMisses, t.purges = 0, 0, 0, 0
	t.missCycles = 0
	t.locked = 0
}
