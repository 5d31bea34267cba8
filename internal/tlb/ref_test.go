package tlb

import "fmt"

// refTLB is a naive exact-LRU TLB the real one is checked against:
// every entry carries the stamp of its last use, every operation scans
// all entries, and a fill takes an invalid entry or else the unlocked
// entry with the oldest stamp. It shares no code with TLB.
type refTLB struct {
	cfg     Config
	entries []refEntry
	stamp   uint64

	hits, userMisses, kernelMisses, purges int64
	missCycles                             float64
}

type refEntry struct {
	valid, locked, global bool
	pid                   int
	vpn                   uint64
	stamp                 uint64
}

func newRef(cfg Config) *refTLB {
	return &refTLB{cfg: cfg, entries: make([]refEntry, cfg.Entries)}
}

func (r *refTLB) find(pid int, vpn uint64) int {
	for i, e := range r.entries {
		if e.valid && e.vpn == vpn && (!r.cfg.Tagged || e.global || e.pid == pid) {
			return i
		}
	}
	return -1
}

// victim returns an invalid entry, else the least recently used
// unlocked one, else -1.
func (r *refTLB) victim() int {
	v := -1
	for i, e := range r.entries {
		if !e.valid {
			return i
		}
		if !e.locked && (v < 0 || e.stamp < r.entries[v].stamp) {
			v = i
		}
	}
	return v
}

func (r *refTLB) lookup(pid int, vpn uint64, kernel bool) (bool, float64) {
	r.stamp++
	if i := r.find(pid, vpn); i >= 0 {
		r.entries[i].stamp = r.stamp
		r.hits++
		return true, 0
	}
	pen := r.cfg.UserMissCycles
	if kernel {
		r.kernelMisses++
		pen = r.cfg.KernelMissCycles
	} else {
		r.userMisses++
	}
	r.missCycles += pen
	if v := r.victim(); v >= 0 {
		r.entries[v] = refEntry{valid: true, pid: pid, vpn: vpn, stamp: r.stamp}
	}
	return false, pen
}

func (r *refTLB) lock(vpn uint64) bool {
	locked := 0
	for _, e := range r.entries {
		if e.valid && e.locked {
			if e.vpn == vpn {
				return true
			}
			locked++
		}
	}
	if locked >= r.cfg.Lockable {
		return false
	}
	slot := -1
	for i, e := range r.entries {
		if e.valid && e.vpn == vpn {
			slot = i
			break
		}
	}
	if slot < 0 {
		if slot = r.victim(); slot < 0 {
			return false
		}
	}
	for i, e := range r.entries {
		if i != slot && e.valid && e.vpn == vpn {
			r.entries[i] = refEntry{}
		}
	}
	r.entries[slot] = refEntry{valid: true, locked: true, global: true, vpn: vpn}
	return true
}

func (r *refTLB) invalidate(pid int, vpn uint64) int {
	n := 0
	for i, e := range r.entries {
		if e.valid && e.vpn == vpn && (e.pid == pid || e.global || !r.cfg.Tagged) {
			r.entries[i] = refEntry{}
			n++
		}
	}
	return n
}

func (r *refTLB) purge() float64 {
	for i, e := range r.entries {
		if !e.locked {
			r.entries[i] = refEntry{}
		}
	}
	r.purges++
	return r.cfg.PurgeCycles
}

func (r *refTLB) contextSwitch() float64 {
	if r.cfg.Tagged {
		return 0
	}
	return r.purge()
}

func (r *refTLB) valid() int {
	n := 0
	for _, e := range r.entries {
		if e.valid {
			n++
		}
	}
	return n
}

func (r *refTLB) reset() {
	*r = refTLB{cfg: r.cfg, entries: make([]refEntry, len(r.entries))}
}

// opKind is one TLB operation of a differential op stream.
type opKind uint8

const (
	opLookup opKind = iota
	opLock
	opInvalidate
	opContextSwitch
	opPurge
	opReset
)

type op struct {
	kind   opKind
	pid    int
	vpn    uint64
	kernel bool
}

// observation is everything a caller can see after one op.
type observation struct {
	hit                                    bool
	penalty                                float64
	count                                  int
	hits, userMisses, kernelMisses, purges int64
	missCycles                             float64
	valid                                  int
}

// diverge applies ops to a fresh TLB and a fresh reference model built
// from cfg, comparing every result plus Stats, MissCycles and Valid
// after each op. It returns the first divergence, or nil.
func diverge(cfg Config, ops []op) error {
	t, r := New(cfg), newRef(cfg)
	for n, o := range ops {
		var got, want observation
		switch o.kind {
		case opLookup:
			got.hit, got.penalty = t.Lookup(o.pid, o.vpn, o.kernel)
			want.hit, want.penalty = r.lookup(o.pid, o.vpn, o.kernel)
		case opLock:
			got.hit, want.hit = t.Lock(o.vpn), r.lock(o.vpn)
		case opInvalidate:
			got.count, want.count = t.InvalidateVPN(o.pid, o.vpn), r.invalidate(o.pid, o.vpn)
		case opContextSwitch:
			got.penalty, want.penalty = t.ContextSwitch(o.pid), r.contextSwitch()
		case opPurge:
			got.penalty, want.penalty = t.Purge(), r.purge()
		case opReset:
			t.Reset()
			r.reset()
		}
		got.hits, got.userMisses, got.kernelMisses, got.purges = t.Stats()
		got.missCycles, got.valid = t.MissCycles(), t.Valid()
		want.hits, want.userMisses, want.kernelMisses, want.purges = r.hits, r.userMisses, r.kernelMisses, r.purges
		want.missCycles, want.valid = r.missCycles, r.valid()
		if got != want {
			return fmt.Errorf("op %d %+v: got %+v, reference %+v", n, o, got, want)
		}
	}
	return nil
}
