package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
)

// target is a built file service with its clients, the links its
// frames cross, and each client's position in its cyclic stream.
type target struct {
	s       *stream
	blocks  int
	remotes []*fsserver.Remote
	execs   []*exec
	pos     []int // ops each client has issued so far
	cluster *fsserver.Cluster
	links   []*wire.Link
}

// localNet is the cross-address-space link fsserver.NewRemote builds;
// scan-single builds the same arrangement through NewRemoteOnLink only
// to keep the link, whose frame count is a per-layer metric.
var localNet = ipc.NetworkConfig{Name: "local", BandwidthMbps: 1e6, PerPacketLatencyMicros: 0}

func newTarget(s *stream, blocks int, remotes []*fsserver.Remote) *target {
	t := &target{s: s, blocks: blocks, remotes: remotes, pos: make([]int, len(remotes))}
	for _, r := range remotes {
		t.execs = append(t.execs, newExec(s, r))
	}
	return t
}

// buildCluster builds a replica set with the given number of backups,
// WAL shipping and self-heal on, and replays the prologue through one
// client.
func buildCluster(s *stream, backups int) (*target, error) {
	cfg := fsserver.DefaultReplicaConfig()
	cfg.Backups = backups
	cfg.Failover = backups > 0
	c := fsserver.NewCluster(andrewBlocks, costModel(), cfg)
	c.EnableSelfHeal(fsserver.DefaultSelfHealPolicy())
	r := c.NewClient()
	if bad := newExec(s, r).run(s.prologue, len(s.prologue)); bad > 0 {
		return nil, fmt.Errorf("prologue: %d wrong answers", bad)
	}
	t := newTarget(s, andrewBlocks, []*fsserver.Remote{r})
	t.cluster = c
	t.links = append(t.links, c.PrimaryLink())
	for i := 0; i < backups; i++ {
		t.links = append(t.links, c.BackupLink(i), c.ReplLink(i))
	}
	return t, nil
}

// fsWorkload is an fs workload's inputs and target: gen makes the op
// streams from the seed, build the target holding the prologue's tree.
type fsWorkload struct {
	gen   func(seed int64) *stream
	build func(s *stream) (*target, error)
}

// andrewCluster drives a 2-backup cluster.
var andrewCluster = fsWorkload{
	gen:   genAndrew,
	build: func(s *stream) (*target, error) { return buildCluster(s, 2) },
}

// scanSingle drives a single server.
var scanSingle = fsWorkload{
	gen:   func(seed int64) *stream { return genScan(seed, scanClients()) },
	build: buildSingle,
}

// scanClients is scan-single's client count: two, but never more than
// the host has processors.
func scanClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// buildSingle builds the prologue's tree in a file system directly and
// puts it behind a single server, with one client per client stream.
func buildSingle(s *stream) (*target, error) {
	fsys := fs.New(scanBlocks)
	if bad := newExec(s, fsserver.NewDirect(fsys, costModel())).run(s.prologue, len(s.prologue)); bad > 0 {
		return nil, fmt.Errorf("prologue: %d wrong answers", bad)
	}
	link := wire.NewLink(localNet)
	r := fsserver.NewRemoteOnLink(fsys, costModel(), link)
	remotes := []*fsserver.Remote{r}
	for len(remotes) < len(s.clients) {
		remotes = append(remotes, r.NewPeer())
	}
	t := newTarget(s, scanBlocks, remotes)
	t.links = []*wire.Link{link}
	return t, nil
}

// windowsFor is how many equal slices a timed phase of length dur is
// cut into: one a second, and at least ten. A phase reports figures
// over its slices, so a burst of interference in a few slices does
// not move the result.
func windowsFor(dur time.Duration) int {
	if n := int(dur / time.Second); n > 10 {
		return n
	}
	return 10
}

// phase is what one timed phase of a target measured.
type phase struct {
	ops     int
	bad     int
	all     latHist   // host ns of every op
	win     []latHist // host ns of the ops completed in each window
	kindNS  [numKinds]float64
	kindN   [numKinds]int
	mallocs uint64
}

// clientPhase is one client's share of a phase, written only by that
// client's goroutine.
type clientPhase struct {
	all    latHist
	win    []latHist
	kindNS [numKinds]int64
	kindN  [numKinds]int
	ops    int
	bad    int
}

// drive runs every client of t in a closed loop — each waits for its
// reply before issuing its next op — for dur, continuing each client's
// stream where the previous phase stopped. With traced set, the
// benchmark's own per-kind span wrapper rides every call. Answers are
// checked after each call's end time is taken, so checks never count
// in op latency.
func drive(t *target, dur time.Duration, traced bool) *phase {
	nwin := windowsFor(dur)
	cps := make([]*clientPhase, len(t.execs))
	for i := range cps {
		cps[i] = &clientPhase{win: make([]latHist, nwin)}
	}
	runtime.GC()
	m0 := mallocs()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range t.execs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cp := cps[c]
			e := t.execs[c]
			ops := t.s.clients[c]
			pos := t.pos[c]
			for {
				o := ops[pos%len(ops)]
				pos++
				t0 := time.Now()
				r := e.do(o)
				t1 := time.Now()
				d := int64(t1.Sub(t0))
				if traced {
					cp.kindNS[o.kind] += d
					cp.kindN[o.kind]++
				}
				cp.all.add(d)
				if w := int(int64(t1.Sub(start)) * int64(nwin) / int64(dur)); w < nwin {
					cp.win[w].add(d)
				}
				cp.ops++
				if !e.check(o, r) {
					cp.bad++
				}
				if !t1.Before(deadline) {
					break
				}
			}
			t.pos[c] = pos
		}(c)
	}
	wg.Wait()
	p := &phase{win: make([]latHist, nwin), mallocs: mallocs() - m0}
	for _, cp := range cps {
		p.ops += cp.ops
		p.bad += cp.bad
		p.all.merge(&cp.all)
		for w := range cp.win {
			p.win[w].merge(&cp.win[w])
		}
		for k := range cp.kindN {
			p.kindNS[k] += float64(cp.kindNS[k])
			p.kindN[k] += cp.kindN[k]
		}
	}
	return p
}

// percentileUS is the median over windows of each window's q-quantile
// op latency, in µs.
func (p *phase) percentileUS(q float64) float64 { return windowQuantileUS(p.win, q) }

// virtual returns Σ VirtualMicros and Σ Ops over the target's clients.
func (t *target) virtual() (float64, int64) {
	var v float64
	var n int64
	for _, r := range t.remotes {
		st := r.Stats()
		v += st.VirtualMicros
		n += st.Ops
	}
	return v, n
}

// opsPerSecond is the median window's throughput.
func (p *phase) opsPerSecond(dur time.Duration) float64 {
	rates := make([]float64, len(p.win))
	for w := range p.win {
		rates[w] = float64(p.win[w].n) / (dur.Seconds() / float64(len(p.win)))
	}
	return median(rates)
}

// meanNS is the mean host ns per op of the phase.
func (p *phase) meanNS() float64 { return p.all.mean() }

// verify checks the end state of t against a Direct replay of exactly
// the ops each client issued, on every node, and returns the number of
// mismatches. s is the stream regenerated from the seed, so the check
// needs nothing the timed run kept.
func verify(t *target, s *stream) (mismatches int, fps []string) {
	fsys := fs.New(t.blocks)
	d := fsserver.NewDirect(fsys, costModel())
	mismatches += newExec(s, d).run(s.prologue, len(s.prologue))
	for c, ops := range s.clients {
		mismatches += newExec(s, d).run(ops, t.pos[c])
	}
	want := fsys.Fingerprint()
	if t.cluster != nil {
		t.cluster.Quiesce()
		if err := t.cluster.Audit(); err != nil {
			mismatches++
		}
		fps = t.cluster.NodeFingerprints()
	} else {
		fps = []string{t.remotes[0].ServerFS().Fingerprint()}
	}
	for _, fp := range fps {
		if fp != want {
			mismatches++
		}
	}
	return mismatches, fps
}

// setupReps is how many times a run builds its target; set-up time is
// the median.
const setupReps = 31

// heapSamples is how many times a cycle replay samples the live heap.
const heapSamples = 128

// cycleReplay builds a fresh target and replays exactly one cycle of
// each client's stream, one client after the other. It reports the
// virtual µs per op, and the median over the cycle of the live heap
// the target holds: the WAL tail grows and folds into a snapshot every
// few hundred ops, so a single reading would depend on where it fell.
// Both depend only on the seed, not on the host or on how far a timed
// run got, so they are measured here rather than in the timed window.
func cycleReplay(w fsWorkload, seed int64) (vtOpUS, heapMB float64, ops, bad int, err error) {
	s := w.gen(seed)
	base := liveHeapMB() // the benchmark's own inputs
	t, err := w.build(s)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	total := 0
	for _, c := range s.clients {
		total += len(c)
	}
	v0, n0 := t.virtual()
	var heap []float64
	for c, e := range t.execs {
		for _, o := range s.clients[c] {
			if !e.check(o, e.do(o)) {
				bad++
			}
			if ops++; ops%(total/heapSamples+1) == 0 {
				heap = append(heap, liveHeapMB()-base)
			}
		}
	}
	v1, n1 := t.virtual()
	return (v1 - v0) / float64(n1-n0), median(heap), ops, bad, nil
}

// runFS is the end-to-end (or, with cfg.trace, the per-layer) run of an
// fs workload.
func runFS(cfg config, w fsWorkload) (*outcome, error) {
	t, setupS, err := timeSetup(setupReps, func() (*target, error) { return w.build(w.gen(cfg.seed)) })
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	out.note("clients", len(t.execs))
	if cfg.trace {
		if err := tracedFS(cfg, t, out); err != nil {
			return nil, err
		}
	} else {
		dur := time.Duration(cfg.seconds * float64(time.Second))
		p := drive(t, dur, false)
		out.attempted, out.failed = p.ops, p.bad
		out.note("ops", p.ops)
		out.note("latency_samples", p.all.n)
		out.note("latency_us", map[string]float64{
			"p50": p.all.quantile(0.50) / 1e3, "p90": p.all.quantile(0.90) / 1e3,
			"p99": p.all.quantile(0.99) / 1e3, "p999": p.all.quantile(0.999) / 1e3})
		var winOps []int
		var w50, w99 []float64
		for w := range p.win {
			winOps = append(winOps, p.win[w].n)
			w50 = append(w50, p.win[w].quantile(0.5)/1e3)
			w99 = append(w99, p.win[w].quantile(0.99)/1e3)
		}
		out.note("window_ops", winOps)
		out.note("window_p50_us", w50)
		out.note("window_p99_us", w99)
		out.add("setup_s", "s", setupS)
		out.add("ops_per_s", "1/s", p.opsPerSecond(dur))
		out.add("op_p50_us", "us", p.percentileUS(0.50))
		out.add("op_p99_us", "us", p.percentileUS(0.99))
		out.add("allocs_per_op", "count", float64(p.mallocs)/float64(p.ops))
	}
	bad, fps := verify(t, w.gen(cfg.seed))
	out.failed += bad
	out.note("fingerprints", fps)
	out.note("ops_per_client", t.pos)
	if !cfg.trace {
		t = nil
		vt, heap, ops, bad, err := cycleReplay(w, cfg.seed)
		if err != nil {
			return nil, err
		}
		out.attempted += ops
		out.failed += bad
		out.add("heap_mb", "MiB", heap)
		out.add("vt_op_us", "vus", vt)
	}
	return out, nil
}

func runAndrew(cfg config) (*outcome, error) { return runFS(cfg, andrewCluster) }

func runScan(cfg config) (*outcome, error) { return runFS(cfg, scanSingle) }
