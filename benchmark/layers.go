package main

import (
	"fmt"
	"math"
	"time"

	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/ipc/wire"
	"archos/internal/mach"
	"archos/internal/obs"
	"archos/internal/tlb"
	"archos/internal/workload"
)

// The traced run times each layer from outside, by replaying the
// workload's own inputs into the layer's public functions or by reading
// the program's public counters around a traced pass of the workload.
// Every run prints every per-layer metric; a layer that does no work in
// a workload reads 0 there.

type unitName struct{ name, unit string }

var endToEnd = []unitName{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"allocs_per_op", "count"},
	{"heap_mb", "MiB"},
	{"vt_op_us", "vus"},
}

// perLayer lists every per-layer metric in output order.
func perLayer() []unitName {
	out := []unitName{
		{"wire.codec_ns", "ns"},
		{"wire.call_raw_ns", "ns"},
		{"wire.call_boxed_ns", "ns"},
		{"wire.call_boxed_op_ns", "ns"},
		{"wire.frames_per_op", "count"},
		{"wire.retransmits_per_op", "count"},
		{"fs.apply_ns", "ns"},
		{"fs.wal_append_ns", "ns"},
		{"fs.snapshot_ns", "ns"},
		{"fs.snapshots_per_kop", "count/kop"},
		{"fs.record_encode_ns", "ns"},
		{"fs.record_decode_ns", "ns"},
		{"fs.record_bytes", "bytes"},
		{"fs.readdir_ns", "ns"},
		{"fs.range_fingerprints_ns", "ns"},
		{"fs.cache_hit_ratio", "ratio"},
	}
	for _, k := range kindNames {
		out = append(out, unitName{"fsserver.op_ns." + k, "ns"})
	}
	out = append(out,
		unitName{"fsserver.repl_ns_per_op", "ns"},
		unitName{"fsserver.ship_calls_per_op", "count"},
		unitName{"fsserver.records_per_ship", "count"},
		unitName{"fsserver.lag_ops", "count/kop"},
		unitName{"fsserver.scrub_passes", "count/kop"},
		unitName{"fsserver.unattributed_frac", "ratio"},
		unitName{"obs.recorder_overhead_frac", "ratio"},
		unitName{"tlb.lookup_ns", "ns"},
		unitName{"mach.table7_s", "s"},
		unitName{"mach.table7_err_pct", "%"},
	)
	for _, st := range structures {
		for _, w := range workload.All() {
			out = append(out, unitName{"mach.cell_s." + structureSlug(st) + "." + slug(w.Name), "s"})
		}
	}
	for _, st := range structures {
		for _, w := range workload.All() {
			cell := structureSlug(st) + "." + slug(w.Name)
			out = append(out,
				unitName{"mach.ktlb_misses." + cell, "count"},
				unitName{"mach.as_switches." + cell, "count"})
		}
	}
	return append(out, unitName{"bench.trace_overhead_frac", "ratio"})
}

// emitPerLayer adds every per-layer metric to out in order, 0 where the
// workload's layers left vals without it.
func emitPerLayer(out *outcome, vals map[string]float64) error {
	seen := 0
	for _, m := range perLayer() {
		v, ok := vals[m.name]
		if ok {
			seen++
		}
		out.add(m.name, m.unit, v)
	}
	if seen != len(vals) {
		return fmt.Errorf("per-layer values outside the metric list: %v", vals)
	}
	return nil
}

// ---- fs workloads ----

// counters are the program's public counters a traced pass reads.
type counters struct {
	frames, retries, snapshots                  int
	hits, misses                                int64
	shipCalls, shipRecords, lagOps, scrubPasses int
}

func (t *target) counters() counters {
	var c counters
	for _, l := range t.links {
		c.frames += l.Frames()
	}
	for _, r := range t.remotes {
		c.retries += r.Stats().Wire.Retries
	}
	if t.cluster == nil {
		c.hits, c.misses = t.remotes[0].ServerFS().CacheStats()
		return c
	}
	cs := t.cluster.Stats()
	c.shipCalls, c.shipRecords, c.lagOps, c.scrubPasses = cs.ShipCalls, cs.ShipRecords, cs.LagOps, cs.ScrubPasses
	c.hits, c.misses = t.cluster.ActiveFS().CacheStats()
	c.snapshots = t.cluster.Primary().WALStats().Snapshots
	return c
}

// plus returns c + (b − a): c with the counts between a and b added.
func (c counters) plus(a, b counters) counters {
	c.frames += b.frames - a.frames
	c.retries += b.retries - a.retries
	c.snapshots += b.snapshots - a.snapshots
	c.hits += b.hits - a.hits
	c.misses += b.misses - a.misses
	c.shipCalls += b.shipCalls - a.shipCalls
	c.shipRecords += b.shipRecords - a.shipRecords
	c.lagOps += b.lagOps - a.lagOps
	c.scrubPasses += b.scrubPasses - a.scrubPasses
	return c
}

// defaultSnapshotEvery reads the server's snapshot interval from a
// throwaway server: a single-server Remote does not expose its WAL
// counters, so scan-single derives its snapshot rate from the logged
// op count and this interval.
func defaultSnapshotEvery() int {
	return fsserver.NewServer(fs.New(1), wire.NewLink(localNet), wire.B).SnapshotEvery
}

// logged reports whether the server appends an op of kind k to its WAL
// (stat and readdir are queries and are not logged).
func logged(k opKind) bool { return k != opStat && k != opReadDir }

// tracedFS is the per-layer run of an fs workload. The run's time is
// shared out among alternating untraced and traced passes of the
// workload on its own target, and one replay per layer.
func tracedFS(cfg config, t *target, out *outcome) error {
	total := cfg.seconds * float64(time.Second)
	slice := func(f float64) time.Duration { return time.Duration(f * total) }
	vals := map[string]float64{}
	bad := 0
	count := func(ops, wrong int) { out.attempted += ops; bad += wrong }

	// Untraced and traced passes alternate, so warm-up and drift fall
	// on both sides of the trace-overhead ratio.
	var untracedNS, tracedNS []float64
	var tc counters
	var kindNS [numKinds]float64
	var kindN [numKinds]int
	tracedOps := 0
	for i := 0; i < 4; i++ {
		traced := i%2 == 1
		before := t.counters()
		p := drive(t, slice(0.075), traced)
		count(p.ops, p.bad)
		if !traced {
			untracedNS = append(untracedNS, p.meanNS())
			continue
		}
		tc = tc.plus(before, t.counters())
		tracedNS = append(tracedNS, p.meanNS())
		tracedOps += p.ops
		for k := range kindN {
			kindNS[k] += p.kindNS[k]
			kindN[k] += p.kindN[k]
		}
	}
	opNS := mean(tracedNS)
	ops := float64(tracedOps)
	for k, name := range kindNames {
		if kindN[k] > 0 {
			vals["fsserver.op_ns."+name] = kindNS[k] / float64(kindN[k])
		}
	}
	vals["bench.trace_overhead_frac"] = opNS/mean(untracedNS) - 1
	vals["wire.frames_per_op"] = float64(tc.frames) / ops
	vals["wire.retransmits_per_op"] = float64(tc.retries) / ops
	vals["fs.cache_hit_ratio"] = ratio(float64(tc.hits), float64(tc.hits+tc.misses))
	var mutFrac float64
	for k, n := range kindN {
		if logged(opKind(k)) {
			mutFrac += float64(n) / ops
		}
	}
	dirFrac := float64(kindN[opReadDir]) / ops
	snapsPerOp := mutFrac / float64(defaultSnapshotEvery())
	batch := 1
	nodes := 1
	if t.cluster != nil {
		nodes += t.cluster.Stats().Backups
		snapsPerOp = float64(tc.snapshots) / ops
		vals["fsserver.ship_calls_per_op"] = float64(tc.shipCalls) / ops
		vals["fsserver.records_per_ship"] = ratio(float64(tc.shipRecords), float64(tc.shipCalls))
		vals["fsserver.lag_ops"] = 1000 * float64(tc.lagOps) / ops
		vals["fsserver.scrub_passes"] = 1000 * float64(tc.scrubPasses) / ops
		batch = int(math.Max(1, math.Round(vals["fsserver.records_per_ship"])))
	}
	vals["fs.snapshots_per_kop"] = 1000 * snapsPerOp

	rr := replayRecords(t.s, t.blocks, slice(0.08))
	count(rr.n, rr.bad)
	vals["fs.wal_append_ns"] = rr.appendNS
	vals["fs.apply_ns"] = rr.applyNS
	payloads, enc, dec, size := recordCodec(rr.records, batch, slice(0.06))
	vals["fs.record_encode_ns"], vals["fs.record_decode_ns"], vals["fs.record_bytes"] = enc, dec, size
	vals["fs.snapshot_ns"] = timeEach(slice(0.04), func() {
		if err := fs.NewWAL(t.blocks).Snapshot(rr.fsys); err != nil {
			bad++
		}
	})
	ranges := fsserver.DefaultSelfHealPolicy().ScrubRanges
	vals["fs.range_fingerprints_ns"] = timeEach(slice(0.03), func() { rr.fsys.RangeFingerprints(ranges) })
	dirs := t.s.pathsOf(opReadDir)
	i := 0
	vals["fs.readdir_ns"] = timeEach(slice(0.03), func() {
		if _, err := rr.fsys.ReadDir(dirs[i%len(dirs)]); err != nil {
			bad++
		}
		i++
	})

	vals["wire.codec_ns"] = codecReplay(t.s, slice(0.04))
	vals["wire.call_raw_ns"] = callRawReplay(t.s, slice(0.06))
	vals["wire.call_boxed_op_ns"] = callBoxedOpReplay(t.s, slice(0.06))
	vals["wire.call_boxed_ns"] = callBoxedShipReplay(payloads, slice(0.04))

	repl, n, wrong, err := replCost(t.s, slice(0.12))
	if err != nil {
		return err
	}
	count(n, wrong)
	vals["fsserver.repl_ns_per_op"] = repl
	over, n, wrong := recorderOverhead(t, slice(0.12))
	count(n, wrong)
	vals["obs.recorder_overhead_frac"] = over

	// The rows-add-up check: the layers' ns, weighted by how often an
	// average op of the traced passes reaches them, against the op's ns.
	call := vals["wire.call_raw_ns"]
	if t.cluster != nil {
		call = vals["wire.call_boxed_op_ns"]
	}
	attributed := call +
		mutFrac*(rr.appendNS+rr.applyNS) +
		dirFrac*vals["fs.readdir_ns"] +
		snapsPerOp*float64(nodes)*vals["fs.snapshot_ns"] +
		vals["fsserver.ship_calls_per_op"]*(vals["wire.call_boxed_ns"]+enc+dec+float64(batch)*(rr.appendNS+rr.applyNS)) +
		vals["fsserver.scrub_passes"]/1000*float64(nodes)*vals["fs.range_fingerprints_ns"]
	vals["fsserver.unattributed_frac"] = 1 - attributed/opNS

	out.failed += bad
	out.note("traced_ops", tracedOps)
	out.note("record_batch", batch)
	return emitPerLayer(out, vals)
}

// pathsOf returns the paths the client-0 stream passes to ops of kind k.
func (s *stream) pathsOf(k opKind) []string {
	var out []string
	for _, o := range s.clients[0] {
		if o.kind == k {
			out = append(out, s.paths[o.path])
		}
	}
	return out
}

// recordReplay is a replay of client 0's stream as WAL records into a
// private log and file system, the way the server logs and applies them.
type recordReplay struct {
	fsys     *fs.FS
	records  []fs.Record // the first maxKeptRecords, for the codec replay
	appendNS float64
	applyNS  float64
	n, bad   int
}

const maxKeptRecords = 4096

// record is the WAL record the server logs for o, or false for the
// ops it does not log.
func (s *stream) record(o op, fds [2]int, last []byte) (fs.Record, bool) {
	p := s.paths[o.path]
	switch o.kind {
	case opMkdir:
		return fs.Record{Op: fs.OpMkdir, Path: p}, true
	case opCreate:
		return fs.Record{Op: fs.OpCreate, Path: p}, true
	case opOpen:
		return fs.Record{Op: fs.OpOpen, Path: p}, true
	case opUnlink:
		return fs.Record{Op: fs.OpUnlink, Path: p}, true
	case opClose:
		return fs.Record{Op: fs.OpClose, FD: fds[o.fd]}, true
	case opRead:
		return fs.Record{Op: fs.OpRead, FD: fds[o.fd], N: int(o.n)}, true
	case opWrite:
		data := s.payloads[o.data]
		if o.fromRead {
			data = last
		}
		return fs.Record{Op: fs.OpWrite, FD: fds[o.fd], Data: data}, true
	}
	return fs.Record{}, false
}

// replayRecords times WAL.Append and FS.Apply on client 0's stream for
// dur, then finishes the stream's cycle untimed, so the file system is
// left holding the workload's live tree at a cycle boundary.
func replayRecords(s *stream, blocks int, dur time.Duration) *recordReplay {
	rr := &recordReplay{fsys: fs.New(blocks)}
	rr.bad = newExec(s, fsserver.NewDirect(rr.fsys, costModel())).run(s.prologue, len(s.prologue))
	wal := fs.NewWAL(blocks)
	if err := wal.Snapshot(rr.fsys); err != nil {
		rr.bad++
	}
	every := defaultSnapshotEvery()
	var fds [2]int
	var last []byte
	ops := s.clients[0]
	// replay logs and applies op i of the stream, if the server logs it,
	// and returns whether it did and how long Append and Apply took.
	replay := func(i int) (bool, time.Duration, time.Duration) {
		o := ops[i%len(ops)]
		rec, ok := s.record(o, fds, last)
		if !ok {
			return false, 0, 0
		}
		rec.Client, rec.Call = 1, uint32(i+1)
		t0 := time.Now()
		r := wal.Append(rec)
		t1 := time.Now()
		res, err := rr.fsys.Apply(r)
		t2 := time.Now()
		if err != nil {
			rr.bad++
		}
		switch o.kind {
		case opCreate, opOpen:
			fds[o.fd] = res.FD
		case opRead:
			last = res.Data
		}
		if len(rr.records) < maxKeptRecords {
			rr.records = append(rr.records, r)
		}
		if wal.SinceSnapshot() >= every {
			if err := wal.Snapshot(rr.fsys); err != nil {
				rr.bad++
			}
		}
		return true, t1.Sub(t0), t2.Sub(t1)
	}
	var appendD, applyD time.Duration
	i := 0
	rr.n, _ = forDuration(dur, func() {
		for ; ; i++ {
			if ok, a, b := replay(i); ok {
				appendD += a
				applyD += b
				i++
				return
			}
		}
	})
	for ; i%len(ops) != 0; i++ {
		replay(i)
	}
	rr.appendNS = float64(appendD) / float64(rr.n)
	rr.applyNS = float64(applyD) / float64(rr.n)
	return rr
}

// recordCodec times EncodeRecords and DecodeRecords on consecutive
// batches of the given size and returns the encoded batches with the
// mean ns of each and the mean encoded bytes per batch.
func recordCodec(records []fs.Record, batch int, dur time.Duration) (payloads [][]byte, encNS, decNS, bytes float64) {
	batch = min(batch, len(records))
	var encD, decD time.Duration
	total, j := 0, 0
	n, _ := forDuration(dur, func() {
		b := records[j : j+batch]
		j = (j + batch) % (len(records) - batch + 1)
		t0 := time.Now()
		p, err := fs.EncodeRecords(b)
		t1 := time.Now()
		if err != nil {
			panic(err) // the program's own records: cannot fail
		}
		if _, err := fs.DecodeRecords(p); err != nil {
			panic(err)
		}
		t2 := time.Now()
		encD += t1.Sub(t0)
		decD += t2.Sub(t1)
		total += len(p)
		if len(payloads) < 256 {
			payloads = append(payloads, p)
		}
	})
	return payloads, float64(encD) / float64(n), float64(decD) / float64(n), float64(total) / float64(n)
}

// opShape is the argument list the fsserver client marshals for o.
type opShape struct {
	str   string
	ints  []int64
	data  []byte
	isStr bool
}

func (s *stream) shape(o op) opShape {
	var sh opShape
	const fd = 3
	switch o.kind {
	case opClose:
		sh.ints = []int64{fd}
	case opRead:
		sh.ints = []int64{fd, int64(o.n)}
	case opWrite:
		sh.ints = []int64{fd}
		sh.data = s.payloads[o.data]
	default:
		sh.str, sh.isStr = s.paths[o.path], true
	}
	return sh
}

func (s *stream) shapes() []opShape {
	var out []opShape
	for _, o := range s.clients[0] {
		out = append(out, s.shape(o))
	}
	return out
}

// codecReplay round-trips each op's arguments through the typed
// appenders and the Args cursor, as the raw stubs do.
func codecReplay(s *stream, dur time.Duration) float64 {
	shapes := s.shapes()
	buf := make([]byte, 0, 16<<10)
	i := 0
	return timeEach(dur, func() {
		sh := shapes[i%len(shapes)]
		i++
		buf = buf[:0]
		if sh.isStr {
			buf = wire.AppendString(buf, sh.str)
		}
		for _, v := range sh.ints {
			buf = wire.AppendInt64(buf, v)
		}
		if sh.data != nil {
			buf = wire.AppendBytes(buf, sh.data)
		}
		a := wire.NewArgs(buf)
		if sh.isStr {
			_ = a.String()
		}
		for range sh.ints {
			a.Int64()
		}
		if sh.data != nil {
			a.Bytes()
		}
		if a.Err() != nil {
			panic(a.Err())
		}
	})
}

// nullEndpoint is a clean link with a server whose handlers do no work:
// proc 1 raw, proc 2 boxed.
func nullEndpoint() (*wire.Client, *wire.Server) {
	link := wire.NewLink(localNet)
	server := wire.NewServer(link, wire.B)
	server.RegisterRaw(1, func(wire.Header, *wire.Args, *wire.Reply) error { return nil })
	server.Register(2, func([]interface{}) ([]interface{}, error) { return []interface{}{uint64(0)}, nil })
	return wire.NewClient(link, wire.A), server
}

// callRawReplay sends each op's arguments through Client.CallRaw to a
// null raw handler: link, dispatch and reply cache with no fs work.
func callRawReplay(s *stream, dur time.Duration) float64 {
	shapes := s.shapes()
	client, server := nullEndpoint()
	i := 0
	return timeEach(dur, func() {
		sh := shapes[i%len(shapes)]
		i++
		w := client.NewCallArgs()
		if sh.isStr {
			w.String(sh.str)
		}
		for _, v := range sh.ints {
			w.Int64(v)
		}
		if sh.data != nil {
			w.Bytes(sh.data)
		}
		if _, err := client.CallRaw(server, 1, w); err != nil {
			panic(err)
		}
	})
}

// callBoxedOpReplay sends each op's arguments through the boxed
// Client.Call, the path a replicated client's ops take.
func callBoxedOpReplay(s *stream, dur time.Duration) float64 {
	shapes := s.shapes()
	client, server := nullEndpoint()
	i := 0
	return timeEach(dur, func() {
		sh := shapes[i%len(shapes)]
		i++
		var err error
		switch {
		case sh.isStr:
			_, err = client.Call(server, 2, sh.str)
		case sh.data != nil:
			_, err = client.Call(server, 2, sh.ints[0], sh.data)
		case len(sh.ints) == 2:
			_, err = client.Call(server, 2, sh.ints[0], sh.ints[1])
		default:
			_, err = client.Call(server, 2, sh.ints[0])
		}
		if err != nil {
			panic(err)
		}
	})
}

// callBoxedShipReplay sends ship-shaped arguments — an epoch and an
// encoded record batch — through the boxed Client.Call.
func callBoxedShipReplay(payloads [][]byte, dur time.Duration) float64 {
	client, server := nullEndpoint()
	i := 0
	return timeEach(dur, func() {
		if _, err := client.Call(server, 2, uint32(1), payloads[i%len(payloads)]); err != nil {
			panic(err)
		}
		i++
	})
}

// replCost runs client 0's stream in chunks on a 2-backup and on a
// 0-backup cluster, alternating which of the two runs a chunk first so
// warm-up and host drift fall on both sides, and returns the difference
// in ns per op: what replication adds to an op.
func replCost(s *stream, dur time.Duration) (nsPerOp float64, ops, bad int, err error) {
	const chunk = 64
	stream := s.clients[0]
	replicated, err := buildCluster(s, 2)
	if err != nil {
		return 0, 0, 0, err
	}
	bare, err := buildCluster(s, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	// runChunk runs ops from..from+chunk on t and returns how long they took.
	runChunk := func(t *target, from int) time.Duration {
		e := t.execs[0]
		t0 := time.Now()
		for k := from; k < from+chunk; k++ {
			o := stream[k%len(stream)]
			if !e.check(o, e.do(o)) {
				bad++
			}
		}
		return time.Since(t0)
	}
	var with, without time.Duration
	n := 0
	forDuration(dur, func() {
		if n/chunk%2 == 0 {
			with += runChunk(replicated, n)
			without += runChunk(bare, n)
		} else {
			without += runChunk(bare, n)
			with += runChunk(replicated, n)
		}
		n += chunk
	})
	return float64(with-without) / float64(n), 2 * n, bad, nil
}

// recorderOverhead runs the workload's clients alternately without and
// with a flight recorder attached through SetRecorder, and returns the
// with/without ratio of mean op time minus 1.
func recorderOverhead(t *target, dur time.Duration) (frac float64, ops, bad int) {
	rec := obs.NewFlightRecorder(t.links[0], 1<<15)
	var off, on []float64
	for i := 0; i < 4; i++ {
		attached := i%2 == 1
		for _, r := range t.remotes {
			if attached {
				r.SetRecorder(rec)
			} else {
				r.SetRecorder(nil)
			}
		}
		p := drive(t, dur/4, false)
		ops += p.ops
		bad += p.bad
		if attached {
			on = append(on, p.meanNS())
		} else {
			off = append(off, p.meanNS())
		}
	}
	for _, r := range t.remotes {
		r.SetRecorder(nil)
	}
	return mean(on)/mean(off) - 1, ops, bad
}

// ---- mach-table7 ----

// tracedTable7 is mach-table7's per-layer run: untraced and traced
// regenerations (the trace is the benchmark's per-cell timing wrapper
// around mach.OS.Run), and a tlb.Lookup replay.
func tracedTable7(in *table7Inputs, dur time.Duration, out *outcome) ([]regeneration, error) {
	var u, tr []regeneration
	for i := 0; i < 4; i++ {
		if i%2 == 1 {
			tr = append(tr, regenerateFor(in.sims, in.specs, dur*15/100, true)...)
		} else {
			u = append(u, regenerateFor(in.sims, in.specs, dur*15/100, false)...)
		}
	}
	vals := map[string]float64{}
	var uTotals, trTotals []float64
	for _, g := range u {
		uTotals = append(uTotals, g.totalS)
	}
	for _, g := range tr {
		trTotals = append(trTotals, g.totalS)
	}
	vals["bench.trace_overhead_frac"] = mean(trTotals)/mean(uTotals) - 1
	vals["mach.table7_s"] = median(trTotals)
	vals["mach.table7_err_pct"] = table7ErrPct(tr[0].results)
	for i, r := range tr[0].results {
		cell := structureSlug(r.Structure) + "." + slug(r.Workload)
		var cellS []float64
		for _, g := range tr {
			cellS = append(cellS, g.cellNS[i]/1e9)
		}
		vals["mach.cell_s."+cell] = median(cellS)
		vals["mach.ktlb_misses."+cell] = float64(r.KTLBMisses)
		vals["mach.as_switches."+cell] = float64(r.ASSwitches)
	}
	vals["tlb.lookup_ns"] = tlbLookupNS(dur * 2 / 10)
	out.note("traced_regenerations", len(tr))
	return append(u, tr...), emitPerLayer(out, vals)
}

// tlbLookupNS drives tlb.Lookup on the DECstation 5000/200 TLB with the
// Mach simulator's reference pattern: per task, a rotating cursor over
// a kernel-mapped region and one over a user region whose misses
// cascade into a kernel reference to the mapping page-table page.
func tlbLookupNS(dur time.Duration) float64 {
	cfg := mach.DefaultConfig(mach.Microkernel)
	t := tlb.New(cfg.Spec.TLB)
	kRegion, uRegion := 24*cfg.KernelPagesPerTask, 64*cfg.UserPagesPerTask
	tasks := 1 + cfg.Servers
	kCur, uCur := make([]int, tasks), make([]int, tasks)
	lookups := 0
	_, took := forDuration(dur, func() {
		for task := 0; task < tasks; task++ {
			n := cfg.KernelPagesPerTask
			for i := 0; i < n; i++ {
				t.Lookup(task, uint64(0x80000+task*0x1000+(kCur[task]+i)%kRegion), true)
			}
			kCur[task] = (kCur[task] + n/2 + 1) % kRegion
			lookups += n
			n = cfg.UserPagesPerTask
			for i := 0; i < n; i++ {
				vpn := uint64(0x1000 + task*0x100000 + (uCur[task]+i)%uRegion)
				if hit, _ := t.Lookup(task, vpn, false); !hit {
					t.Lookup(task, uint64(0x90000+task*0x100)+vpn/1024, true)
					lookups++
				}
			}
			uCur[task] = (uCur[task] + n/2 + 1) % uRegion
			lookups += n
		}
	})
	return float64(took) / float64(lookups)
}
