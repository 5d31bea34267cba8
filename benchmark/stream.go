package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"archos/internal/fs"
	"archos/internal/fsserver"
)

// opKind is one Service call. The names double as the suffixes of the
// per-layer fsserver.op_ns.<kind> metrics.
type opKind uint8

const (
	opMkdir opKind = iota
	opCreate
	opWrite
	opClose
	opOpen
	opRead
	opStat
	opReadDir
	opUnlink
	numKinds
)

var kindNames = [numKinds]string{"mkdir", "create", "write", "close", "open", "read", "stat", "readdir", "unlink"}

// op is one pre-generated Service call. Descriptors are symbolic: create
// and open store the returned fd in register fd, and write, read and
// close use it, so the same op replays against any Service.
type op struct {
	kind     opKind
	fd       uint8 // descriptor register (0 or 1)
	fromRead bool  // write: the payload is the bytes of the last read (a copy)
	path     int32 // index into stream.paths
	data     int32 // write: payload index; read: file whose content is expected
	n        int32 // read: byte count; stat: expected size; readdir: expected entries
	off      int32 // read: offset the chunk starts at (the file's size: end of file)
}

// stream is a workload's whole input, generated from the seed during
// set-up: a prologue that builds the initial tree and one cyclic op
// stream per client. Each client stream leaves the tree as it found it
// at the end of a cycle, so a run replays it as many times as the time
// allows and the live tree stays bounded.
type stream struct {
	paths []string

	// payloads holds the bytes writes send. File f's variants sit at
	// f*variants .. f*variants+variants-1; variant v carries v in its
	// first byte, so a read from offset 0 names the image it must match.
	payloads [][]byte
	variants int

	prologue []op
	clients  [][]op
}

// result is what one Service call returned, kept only as long as the
// check after it needs.
type result struct {
	err   error
	fd    int
	data  []byte
	stat  fs.Stat
	names int
}

// exec is one client's view of the stream: it runs ops against a
// Service and checks every answer against what the generator wrote.
type exec struct {
	s    *stream
	svc  fsserver.Service
	fds  [2]int
	last []byte // bytes of the last read: the payload of a copy's write
}

func newExec(s *stream, svc fsserver.Service) *exec { return &exec{s: s, svc: svc} }

// do issues o and returns its result. Nothing but the call itself runs
// here, so the benchmark times exactly the Service call.
func (e *exec) do(o op) (r result) {
	p := e.s.paths[o.path]
	switch o.kind {
	case opMkdir:
		r.err = e.svc.Mkdir(p)
	case opCreate:
		r.fd, r.err = e.svc.Create(p)
	case opOpen:
		r.fd, r.err = e.svc.Open(p)
	case opWrite:
		data := e.s.payloads[o.data]
		if o.fromRead {
			data = e.last
		}
		_, r.err = e.svc.Write(e.fds[o.fd], data)
	case opRead:
		r.data, r.err = e.svc.Read(e.fds[o.fd], int(o.n))
	case opClose:
		r.err = e.svc.Close(e.fds[o.fd])
	case opStat:
		r.stat, r.err = e.svc.Stat(p)
	case opReadDir:
		var names []string
		names, r.err = e.svc.ReadDir(p)
		r.names = len(names)
	case opUnlink:
		r.err = e.svc.Unlink(p)
	}
	return r
}

// check folds r into the executor's state and reports whether it is
// the answer the generator expects: no error, every read its chunk of
// a written image of its file, every stat the file's size and every
// directory listing the expected number of entries.
func (e *exec) check(o op, r result) bool {
	if r.err != nil {
		return false
	}
	switch o.kind {
	case opCreate, opOpen:
		e.fds[o.fd] = r.fd
	case opRead:
		e.last = r.data
		return e.s.validChunk(int(o.data), int(o.off), int(o.n), r.data)
	case opStat:
		return r.stat.Kind == fs.KindFile && r.stat.Size == int(o.n)
	case opReadDir:
		return r.names == int(o.n)
	}
	return true
}

// validChunk reports whether got is bytes off..off+n of one image
// written to file f, cut short at the image's end (so empty at end of
// file). A file with several images is read from offset 0, where the
// first byte names the image.
func (s *stream) validChunk(f, off, n int, got []byte) bool {
	v := 0
	if s.variants > 1 {
		if off != 0 || len(got) == 0 || int(got[0]) >= s.variants {
			return false
		}
		v = int(got[0])
	}
	img := s.payloads[f*s.variants+v]
	return bytes.Equal(got, img[min(off, len(img)):min(off+n, len(img))])
}

// run executes ops[0:n] of a cyclic stream (n may exceed len(ops)) and
// returns how many answers were wrong.
func (e *exec) run(ops []op, n int) int {
	bad := 0
	for i := 0; i < n; i++ {
		o := ops[i%len(ops)]
		if !e.check(o, e.do(o)) {
			bad++
		}
	}
	return bad
}

// builder interns paths while a generator emits ops.
type builder struct {
	s     *stream
	index map[string]int32
	ops   []op
}

func newBuilder(s *stream) *builder { return &builder{s: s, index: map[string]int32{}} }

func (b *builder) path(p string) int32 {
	if i, ok := b.index[p]; ok {
		return i
	}
	i := int32(len(b.s.paths))
	b.s.paths = append(b.s.paths, p)
	b.index[p] = i
	return i
}

func (b *builder) emit(kind opKind, path string, fd uint8, data, n int32) {
	b.ops = append(b.ops, op{kind: kind, fd: fd, path: b.path(path), data: data, n: n})
}

// readToEOF emits what AndrewMini's read loops issue on file content c
// of size bytes through descriptor fd: reads of chunk bytes until one
// returns nothing, each checked against its slice of the content. With
// copyTo set, each non-empty chunk is written to descriptor 1, as the
// copy phase does.
func (b *builder) readToEOF(path string, fd uint8, c, size, chunk int32, copyTo string) {
	for off := int32(0); ; off += chunk {
		b.ops = append(b.ops, op{kind: opRead, fd: fd, path: b.path(path), data: c, n: chunk, off: min(off, size)})
		if off >= size {
			return
		}
		if copyTo != "" {
			b.ops = append(b.ops, op{kind: opWrite, fd: 1, fromRead: true, path: b.path(copyTo), data: c})
		}
	}
}

// take returns the ops emitted so far and starts a new list.
func (b *builder) take() []op {
	out := b.ops
	b.ops = nil
	return out
}

// randomPayload returns size random bytes whose first byte is variant.
func randomPayload(rng *rand.Rand, size, variant int) []byte {
	p := make([]byte, size)
	rng.Read(p)
	p[0] = byte(variant)
	return p
}

// Shape of andrew-cluster, taken from fsserver.AndrewMini (the repo's
// andrew script): files of about its 2300-byte FileBytes (2100-2500 B,
// so the images differ), read in its 1 KB chunks to end of file in the
// scan phase and in its 4 KB chunks in the copy phase. A round is one
// AndrewMini-shaped pass over its own directory; andrewSlots rounds
// stay live at once, so the tree is bounded, and a cycle of
// andrewRounds rounds ends with the slots holding what the prologue put
// there.
const (
	andrewSlots     = 8
	andrewRounds    = 128 // a multiple of andrewSlots
	andrewContents  = 16  // distinct file images
	andrewBlocks    = 256 // fs.New(256), as the repo's tools size AndrewMini's file system
	andrewScanChunk = 1024
	andrewCopyChunk = 4096
)

func andrewDir(slot int) string     { return fmt.Sprintf("/a/s%d", slot) }
func andrewFile(slot, j int) string { return fmt.Sprintf("/a/s%d/f%02d.c", slot, j) }
func andrewCopy(slot, j int) string { return fmt.Sprintf("/a/s%d/c%02d.c", slot, j) }

// genAndrew builds the andrew-cluster stream: one client replaying
// AndrewMini's phases round by round — mkdir, create+write+close,
// readdir, then stat, open, chunked read to end of file and close of
// every file, a chunked copy of every file, and unlink of the copies —
// against a slot that the round first empties of the round that held
// it andrewSlots rounds ago.
func genAndrew(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{variants: 1}
	for k := 0; k < andrewContents; k++ {
		// One image per payload: reads are checked against the exact
		// bytes, so the variant byte is always 0.
		s.payloads = append(s.payloads, randomPayload(rng, 2100+rng.Intn(401), 0))
	}
	size := func(c int32) int32 { return int32(len(s.payloads[c])) }
	fills := make([][]int32, andrewRounds) // payload index per file of each round
	for i := range fills {
		for j, n := 0, 6+rng.Intn(3); j < n; j++ {
			fills[i] = append(fills[i], int32(rng.Intn(andrewContents)))
		}
	}
	b := newBuilder(s)
	populate := func(slot int, files []int32) {
		b.emit(opMkdir, andrewDir(slot), 0, 0, 0)
		for j, c := range files {
			b.emit(opCreate, andrewFile(slot, j), 0, 0, 0)
			b.emit(opWrite, andrewFile(slot, j), 0, c, 0)
			b.emit(opClose, andrewFile(slot, j), 0, 0, 0)
		}
	}
	b.emit(opMkdir, "/a", 0, 0, 0)
	for slot := 0; slot < andrewSlots; slot++ {
		populate(slot, fills[andrewRounds-andrewSlots+slot])
	}
	s.prologue = b.take()

	for i := 0; i < andrewRounds; i++ {
		slot := i % andrewSlots
		for j := range fills[(i-andrewSlots+andrewRounds)%andrewRounds] {
			b.emit(opUnlink, andrewFile(slot, j), 0, 0, 0)
		}
		b.emit(opUnlink, andrewDir(slot), 0, 0, 0)
		files := fills[i]
		populate(slot, files)
		b.emit(opReadDir, andrewDir(slot), 0, 0, int32(len(files)))
		for j, c := range files {
			p := andrewFile(slot, j)
			b.emit(opStat, p, 0, 0, size(c))
			b.emit(opOpen, p, 0, 0, 0)
			b.readToEOF(p, 0, c, size(c), andrewScanChunk, "")
			b.emit(opClose, p, 0, 0, 0)
		}
		for j, c := range files {
			src, dst := andrewFile(slot, j), andrewCopy(slot, j)
			b.emit(opOpen, src, 0, 0, 0)
			b.emit(opCreate, dst, 1, 0, 0)
			b.readToEOF(src, 0, c, size(c), andrewCopyChunk, dst)
			b.emit(opClose, src, 0, 0, 0)
			b.emit(opClose, dst, 1, 0, 0)
		}
		for j := range files {
			b.emit(opUnlink, andrewCopy(slot, j), 0, 0, 0)
		}
	}
	s.clients = [][]op{b.take()}
	return s
}

// Shape of scan-single: a tree of scanDirs×scanFilesPerDir files of
// 3-5 KB, read Zipf-skewed by every client and overwritten by the
// client that owns each file. The skew is the repo's load generator's
// (workload.DefaultLoadConfig's ZipfS). The tree has no measured source:
// it is sized to about 600 fs.BlockBytes blocks, several times the
// server's scanBlocks-block cache so reads miss it, with files of one
// or two blocks, while set-up stays within tens of milliseconds.
const (
	scanDirs        = 12
	scanFilesPerDir = 32
	scanVariants    = 4
	scanBlocks      = 128
	scanActions     = 20000 // per client and cycle
	scanZipfS       = 1.2
	scanWriteFrac   = 0.10
)

func scanDir(d int) string { return fmt.Sprintf("/t/d%02d", d) }
func scanFile(f int) string {
	return fmt.Sprintf("/t/d%02d/f%03d", f/scanFilesPerDir, f%scanFilesPerDir)
}

// genScan builds the scan-single stream for the given number of
// clients. About 90% of a client's actions are Zipf-skewed reads of any
// file — a stat, a readdir of its directory, or open-read-all-close —
// and about 10% overwrite, in place and at the same size, a file of the
// client's own partition (files f with f%clients == client), so the
// final tree does not depend on how the clients interleave.
func genScan(seed int64, clients int) *stream {
	rng := rand.New(rand.NewSource(seed))
	nFiles := scanDirs * scanFilesPerDir
	s := &stream{variants: scanVariants}
	sizes := make([]int, nFiles)
	for f := range sizes {
		// The variants are overlapping windows of one buffer, which
		// keeps the benchmark's own heap small: variant v starts at
		// byte v, and the buffer's first bytes are 0, 1, 2, …
		sizes[f] = 3072 + rng.Intn(2049)
		buf := randomPayload(rng, sizes[f]+scanVariants-1, 0)
		for v := 0; v < scanVariants; v++ {
			buf[v] = byte(v)
			s.payloads = append(s.payloads, buf[v:v+sizes[f]])
		}
	}
	b := newBuilder(s)
	b.emit(opMkdir, "/t", 0, 0, 0)
	for d := 0; d < scanDirs; d++ {
		b.emit(opMkdir, scanDir(d), 0, 0, 0)
	}
	for f := 0; f < nFiles; f++ {
		b.emit(opCreate, scanFile(f), 0, 0, 0)
		b.emit(opWrite, scanFile(f), 0, int32(f*scanVariants), 0)
		b.emit(opClose, scanFile(f), 0, 0, 0)
	}
	s.prologue = b.take()

	// Popularity ranks map to files through a seeded permutation, so the
	// hot files are spread over directories and owners.
	rank := rng.Perm(nFiles)
	for c := 0; c < clients; c++ {
		var own []int
		for _, f := range rank {
			if f%clients == c {
				own = append(own, f)
			}
		}
		readZipf := rand.NewZipf(rng, scanZipfS, 1, uint64(nFiles-1))
		ownZipf := rand.NewZipf(rng, scanZipfS, 1, uint64(len(own)-1))
		version := make([]int, nFiles)
		for a := 0; a < scanActions; a++ {
			if rng.Float64() < scanWriteFrac {
				f := own[ownZipf.Uint64()]
				version[f] = (version[f] + 1) % scanVariants
				p := scanFile(f)
				b.emit(opOpen, p, 0, 0, 0)
				b.emit(opWrite, p, 0, int32(f*scanVariants+version[f]), 0)
				b.emit(opClose, p, 0, 0, 0)
				continue
			}
			f := rank[readZipf.Uint64()]
			p := scanFile(f)
			switch rng.Intn(3) {
			case 0:
				b.emit(opStat, p, 0, 0, int32(sizes[f]))
			case 1:
				b.emit(opReadDir, scanDir(f/scanFilesPerDir), 0, 0, scanFilesPerDir)
			default:
				b.emit(opOpen, p, 0, 0, 0)
				b.emit(opRead, p, 0, int32(f), int32(sizes[f]))
				b.emit(opClose, p, 0, 0, 0)
			}
		}
		s.clients = append(s.clients, b.take())
	}
	return s
}
