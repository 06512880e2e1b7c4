package drxmp_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/mpiio"
	"drxmp/internal/pfs"
)

// The model test: any section of the array, read or written by any rank
// in either memory order while the array grows, holds what a flat array
// would, whatever the shape, element type, store and knobs. A draw is a
// configuration (a value on every axis of modelSpace) and a program of
// phases separated by barriers, run on 1-4 ranks, with every read and
// the final file checked against a flatArray. No two ranks make
// conflicting accesses within a phase: MPI leaves their outcome
// undefined, and so does the model. Replay a draw with -run
// 'TestModel/seed=N' (a row by its name); a failing draw prints its
// phases, then the smallest sub-program that still fails.

// stream is the generator's randomness: bytes read front to back, and
// zeros past the end, so that every byte string is a valid draw.
type stream struct {
	b  []byte
	at int
}

// seededStream is the stream TestModel and the rows draw from.
func seededStream(seed int64) *stream {
	b := make([]byte, 8<<10)
	rand.New(rand.NewSource(seed)).Read(b)
	return &stream{b: b}
}

// intn draws from [0, n) with the next two bytes.
func (s *stream) intn(n int) int {
	v := 0
	for range 2 {
		v <<= 8
		if s.at < len(s.b) {
			v |= int(s.b[s.at])
		}
		s.at++
	}
	return v % max(n, 1)
}

func pick[T any](s *stream, xs []T) T { return xs[s.intn(len(xs))] }

// modelSpace holds the values each axis of a configuration is drawn
// from; a row pins an axis by narrowing it. No shapes means a random
// one: rank 1-3, a few thousand cells, chunks of 1-7 cells a side.
type modelSpace struct {
	ranks, servers, parity           []int
	shapes                           []collShape
	dtypes                           []drxmp.DType
	orders, users                    []drxmp.Order // chunk order; each op's buffer order
	stripes, cache, readAhead, spill []int64
	wb                               []int64 // see drawTuning
	scheds                           []pfs.Scheduler
	realTime, seek, poison           []bool
	zones, slabs                     []bool      // collective phases on zones; independent ones on slabs
	must                             []phaseKind // phases every program has
}

func fullSpace() modelSpace {
	return modelSpace{
		ranks:     []int{1, 2, 3, 4},
		dtypes:    []drxmp.DType{drxmp.Int32, drxmp.Int64, drxmp.Float32, drxmp.Float64, drxmp.Complex64, drxmp.Complex128},
		orders:    []drxmp.Order{drxmp.RowMajor, drxmp.ColMajor},
		users:     []drxmp.Order{drxmp.RowMajor, drxmp.ColMajor},
		servers:   []int{2, 3, 4, 5, 6},
		parity:    []int{0, 1, 2},
		stripes:   []int64{512, 1 << 10, 2 << 10, 4 << 10},
		scheds:    []pfs.Scheduler{pfs.FIFO, pfs.Elevator},
		realTime:  append(make([]bool, 15), true),
		seek:      []bool{false, true},
		poison:    []bool{false, true},
		zones:     []bool{false, false, false, true},
		slabs:     []bool{false, true},
		cache:     []int64{0, 2 << 10, 1 << 20},
		readAhead: []int64{0, 1 << 10},
		spill:     []int64{0, 4 << 10, 1 << 20},
	}
}

// modelConfig is one drawn configuration.
type modelConfig struct {
	ranks  int
	shape  collShape
	dtype  drxmp.DType
	order  drxmp.Order
	fs     pfs.Options
	tuning drxmp.Tuning
	poison bool // 0xA5 in the buffer pool before every phase
}

func drawConfig(s *stream, sp *modelSpace) modelConfig {
	c := modelConfig{ranks: pick(s, sp.ranks), dtype: pick(s, sp.dtypes), order: pick(s, sp.orders), poison: pick(s, sp.poison)}
	if len(sp.shapes) > 0 {
		c.shape = pick(s, sp.shapes)
	} else {
		c.shape = drawShape(s)
	}
	parity := pick(s, sp.parity)
	c.fs = pfs.Options{
		Servers: max(pick(s, sp.servers), parity+1), Parity: parity,
		StripeSize: pick(s, sp.stripes), Scheduler: pick(s, sp.scheds),
	}
	if pick(s, sp.realTime) {
		slow := make([]float64, c.fs.Servers)
		slow[s.intn(len(slow))] = 4 // one straggler
		c.fs.Cost = pfs.CostModel{RequestOverhead: 20 * time.Microsecond, RealTime: true, SlowFactor: slow}
	} else if pick(s, sp.seek) {
		c.fs.Cost = drxmp.BenchCost // charged, never slept: servers join holes as the benchmark's do
	}
	c.tuning = drawTuning(s, sp)
	return c
}

func drawShape(s *stream) collShape {
	k := 1 + s.intn(3)
	sh := collShape{name: "random", bounds: make([]int, k), chunk: make([]int, k)}
	for d := range k {
		sh.bounds[d] = 1 + s.intn([]int{300, 48, 12}[k-1])
		sh.chunk[d] = 1 + s.intn(7)
	}
	return sh
}

// drawTuning draws a Tuning that validates: read-ahead and spill only
// over a cache. WriteBehindBytes, which the handle ignores, is drawn
// only where a row pins wb — the rows that kept a write-behind suite's
// ID set it as the benchmark harness does, so they pin that it changes
// nothing.
func drawTuning(s *stream, sp *modelSpace) drxmp.Tuning {
	t := drxmp.Tuning{CacheBytes: pick(s, sp.cache)}
	if t.CacheBytes > 0 {
		t.ReadAheadBytes, t.SpillBytes = pick(s, sp.readAhead), pick(s, sp.spill)
	}
	if len(sp.wb) > 0 {
		t.WriteBehindBytes = pick(s, sp.wb)
	}
	return t
}

// phaseKind is what one phase of a program does.
type phaseKind int

const (
	collWrite phaseKind = iota // every rank writes a box collectively; higher ranks win overlaps
	collRead                   // every rank reads a box collectively
	indep                      // every rank makes 0-3 independent reads and writes
	extend                     // Extend one dimension; the dimensions take turns
	syncAll                    // Sync
	kill                       // a permanent read fault on one server (parity >= 1)
	revive                     // lift it
	torn                       // rank 0 writes under a one-shot write fault on one server, then retries
)

var phaseNames = [...]string{"collective write", "collective read", "independent", "extend", "sync", "server dead", "server back", "torn write"}

func (k phaseKind) String() string { return phaseNames[k] }

// modelOp is one section read or write of box, or of the rank's zone if
// zone is set and it has one; seed makes a write's payload. data, filled
// in as the phase starts, is that payload or the bytes a read returns.
type modelOp struct {
	write, zone bool
	box         drxmp.Box
	user        drxmp.Order
	seed        int
	data        []byte
}

func (op modelOp) String() string {
	kind, box := "read", op.box.String()
	if op.write {
		kind = "write"
	}
	if op.zone {
		box = "zone"
	}
	return fmt.Sprintf("%s %s %v", kind, box, op.user)
}

type phase struct {
	kind    phaseKind
	ops     [][]modelOp // per rank
	dim, by int         // extend
	server  int         // kill, torn
}

type program struct {
	cfg    modelConfig
	phases []phase
}

func (p *program) String() string {
	var b strings.Builder
	c := p.cfg
	fmt.Fprintf(&b, "%d ranks, %v, bounds %v, chunks %v, %v order, poison %v\nstore %+v\ntuning %+v\n",
		c.ranks, c.dtype, c.shape.bounds, c.shape.chunk, c.order, c.poison, c.fs, c.tuning)
	for i, ph := range p.phases {
		fmt.Fprintf(&b, "%3d %v", i, ph.kind)
		switch ph.kind {
		case extend:
			fmt.Fprintf(&b, " dim %d by %d", ph.dim, ph.by)
		case kill, torn:
			fmt.Fprintf(&b, " server %d", ph.server)
		}
		for r, ops := range ph.ops {
			fmt.Fprintf(&b, "\n      rank %d:", r)
			for _, op := range ops {
				fmt.Fprintf(&b, " %v;", op)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// drawProgram draws a configuration from sp, then 2-10 phases with the
// phases of sp.must, in order, among them.
func drawProgram(s *stream, sp modelSpace) *program {
	p := &program{cfg: drawConfig(s, &sp)}
	kinds := []phaseKind{collWrite, collWrite, collWrite, collRead, collRead, indep, indep, indep, extend, syncAll, torn}
	if p.cfg.fs.Parity > 0 {
		kinds = append(kinds, kill, revive)
	}
	seq := make([]phaseKind, 2+s.intn(9))
	for i := range seq {
		seq[i] = pick(s, kinds)
	}
	seq = slices.Insert(seq, s.intn(len(seq)+1), sp.must...)
	bounds := slices.Clone(p.cfg.shape.bounds)
	extends := 0
	for _, k := range seq {
		ph := phase{kind: k}
		switch k {
		case collWrite, collRead:
			zones := pick(s, sp.zones)
			for range p.cfg.ranks {
				op := drawOp(s, &sp, bounds, k == collWrite)
				op.zone = zones
				ph.ops = append(ph.ops, []modelOp{op})
			}
		case indep:
			ph.ops = drawIndependent(s, &sp, bounds, p.cfg.ranks)
		case extend:
			ph.dim = extends % len(bounds)
			ph.by = 1 + s.intn(p.cfg.shape.chunk[ph.dim]+1)
			bounds[ph.dim] += ph.by
			extends++
		case kill:
			ph.server = s.intn(p.cfg.fs.Servers)
		case torn:
			ph.server = s.intn(p.cfg.fs.Servers)
			ph.ops = [][]modelOp{{drawOp(s, &sp, bounds, true)}}
		}
		p.phases = append(p.phases, ph)
	}
	return p
}

func drawOp(s *stream, sp *modelSpace, bounds []int, write bool) modelOp {
	return modelOp{write: write, box: drawBox(s, bounds), user: pick(s, sp.users), seed: s.intn(1 << 16)}
}

// drawBox draws a box inside bounds; one in eight is empty and one in
// eight the whole array.
func drawBox(s *stream, bounds []int) drxmp.Box {
	lo, hi := make([]int, len(bounds)), slices.Clone(bounds)
	switch s.intn(8) {
	case 0:
		return drxmp.NewBox(lo, lo)
	case 1:
		return drxmp.NewBox(lo, hi)
	}
	for d, n := range bounds {
		lo[d] = s.intn(n)
		hi[d] = lo[d] + 1 + s.intn(n-lo[d])
	}
	return drxmp.NewBox(lo, hi)
}

// drawIndependent draws the ops of an independent phase, such that no
// rank writes a cell another rank's op touches. In a slab phase every
// rank moves its whole slab of dimension 0 at once, the even ranks
// reading and the odd ones writing, so that the cache fetches reads make
// run beside other ranks' writes. Otherwise each rank draws 0-3 reads and
// writes; one that would conflict is cut to the rank's slab, and
// dropped if that is not enough.
func drawIndependent(s *stream, sp *modelSpace, bounds []int, ranks int) [][]modelOp {
	ops := make([][]modelOp, ranks)
	if pick(s, sp.slabs) {
		for r := range ops {
			ops[r] = []modelOp{{write: r%2 == 1, box: slabBox(bounds, ranks, r), user: pick(s, sp.users), seed: s.intn(1 << 16)}}
		}
		return ops
	}
	for r := range ops {
		for range s.intn(4) {
			op := drawOp(s, sp, bounds, s.intn(2) == 0)
			if conflicts(ops, r, op) {
				op.box = op.box.Intersect(slabBox(bounds, ranks, r))
			}
			if !conflicts(ops, r, op) {
				ops[r] = append(ops[r], op)
			}
		}
	}
	return ops
}

// conflicts reports whether op, rank r's, writes a cell another rank's
// op touches or touches a cell another rank's op writes.
func conflicts(ops [][]modelOp, r int, op modelOp) bool {
	for q := range ops {
		for _, o := range ops[q] {
			if q != r && (o.write || op.write) && !o.box.Intersect(op.box).Empty() {
				return true
			}
		}
	}
	return false
}

// flatArray is the model's oracle: a dense row-major array of es-byte
// cells that grows like the file. A cell nobody wrote reads as zero.
type flatArray struct {
	bounds []int
	es     int
	data   []byte
}

func newFlatArray(bounds []int, es int) *flatArray {
	m := &flatArray{bounds: slices.Clone(bounds), es: es}
	m.data = make([]byte, m.whole().Volume()*int64(es))
	return m
}

func (m *flatArray) whole() drxmp.Box { return drxmp.NewBox(make([]int, len(m.bounds)), m.bounds) }

// each visits box's cells in order, passing each one's byte offset in
// the array and in a buffer dense over box.
func (m *flatArray) each(box drxmp.Box, order drxmp.Order, fn func(at, ord int)) {
	strides := grid.Strides(m.bounds, grid.RowMajor)
	ord := 0
	box.Iterate(order, func(idx []int) bool {
		var at int64
		for d, i := range idx {
			at += int64(i) * strides[d]
		}
		fn(int(at)*m.es, ord)
		ord += m.es
		return true
	})
}

func (m *flatArray) write(box drxmp.Box, order drxmp.Order, buf []byte) {
	m.each(box, order, func(at, ord int) { copy(m.data[at:at+m.es], buf[ord:]) })
}

func (m *flatArray) read(box drxmp.Box, order drxmp.Order) []byte {
	buf := make([]byte, box.Volume()*int64(m.es))
	m.each(box, order, func(at, ord int) { copy(buf[ord:ord+m.es], m.data[at:]) })
	return buf
}

// extend grows dimension dim by `by` cells.
func (m *flatArray) extend(dim, by int) {
	old := *m
	m.bounds = slices.Clone(old.bounds)
	m.bounds[dim] += by
	m.data = make([]byte, m.whole().Volume()*int64(m.es))
	m.write(old.whole(), drxmp.RowMajor, old.read(old.whole(), drxmp.RowMajor))
}

// plan resolves phase ph against the model, on rank 0 while the other
// ranks wait. Boxes are cut to the bounds, so that any sub-list of a
// program runs; zones are looked up; each write's payload is made and
// applied in rank order (higher ranks win a collective overlap, and the
// ranks of an independent phase do not conflict); each read's expected
// bytes are taken. A kill or revive moves the fault here, with no I/O
// in flight. plan returns the ops per rank and the read-dead server.
func (m *flatArray) plan(f *drxmp.File, ph phase, dead int) ([][]modelOp, int) {
	switch ph.kind {
	case extend:
		m.extend(ph.dim, ph.by)
	case kill:
		f.FS().SetInjector(&pfs.FaultPoint{Server: ph.server, Op: pfs.FaultReads, Permanent: true})
		return nil, ph.server
	case revive:
		f.FS().SetInjector(nil)
		return nil, -1
	}
	ops := make([][]modelOp, len(ph.ops))
	for r, rops := range ph.ops {
		for _, op := range rops {
			op.box = op.box.Intersect(m.whole())
			if zs, _ := f.ZoneBoxes(r); op.zone && len(zs) > 0 {
				op.box = zs[0]
			}
			if op.write {
				op.data = make([]byte, op.box.Volume()*int64(m.es))
				rand.New(rand.NewSource(int64(op.seed)<<8 | int64(r))).Read(op.data)
				m.write(op.box, op.user, op.data)
			} else {
				op.data = m.read(op.box, op.user)
			}
			ops[r] = append(ops[r], op)
		}
	}
	return ops, dead
}

// runModel runs p and returns each rank's first error or difference
// from the model.
func runModel(p *program, dir string) error {
	cfg := p.cfg
	m := newFlatArray(cfg.shape.bounds, cfg.dtype.Size())
	withSpill := func(t drxmp.Tuning) drxmp.Tuning {
		if t.SpillBytes > 0 {
			t.SpillPath = filepath.Join(dir, "spill")
		}
		return t
	}
	plans := make([][][]modelOp, len(p.phases))
	var final modelOp // the whole array, row-major
	errs := make([]error, cfg.ranks)
	err := cluster.Run(cfg.ranks, func(c *cluster.Comm) error {
		me := c.Rank()
		f, err := drxmp.Create(c, "model", drxmp.Options{
			DType: cfg.dtype, ChunkShape: cfg.shape.chunk, Bounds: cfg.shape.bounds, Order: cfg.order,
			FS: cfg.fs, Tuning: withSpill(cfg.tuning),
		})
		if err != nil {
			return err
		}
		defer f.Close()
		note := func(at string, err error) {
			if err != nil && errs[me] == nil {
				errs[me] = fmt.Errorf("%s: %w", at, err)
			}
		}
		dead := -1 // rank 0's: the read-dead server
		for i, ph := range p.phases {
			if me == 0 {
				if cfg.poison {
					poisonBuffers(len(m.data))
				}
				plans[i], dead = m.plan(f, ph, dead)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			at := fmt.Sprintf("phase %d (%v)", i, ph.kind)
			switch ph.kind {
			case collWrite, collRead, indep:
				for j, op := range plans[i][me] {
					note(fmt.Sprintf("%s op %d", at, j), doOp(f, op, ph.kind != indep))
				}
			case extend:
				note(at, f.Extend(ph.dim, ph.by))
			case syncAll:
				note(at, f.Sync())
			case torn:
				if me == 0 {
					note(at, tornWrite(f, plans[i][0][0], ph.server, dead >= 0))
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if slices.ContainsFunc(errs, func(e error) bool { return e != nil }) {
				return nil
			}
		}

		// The end: Sync and read the whole array on every rank; then read
		// the store's own bytes through a cacheless view and, with
		// parity, once more with each server in turn read-dead.
		if me == 0 {
			final = modelOp{box: m.whole(), user: drxmp.RowMajor, data: m.read(m.whole(), drxmp.RowMajor)}
		}
		note("final sync", f.Sync())
		if err := c.Barrier(); err != nil {
			return err
		}
		note("final read", doOp(f, final, false))
		if err := c.Barrier(); err != nil {
			return err
		}
		if me == 0 {
			modelLends.Add(f.CacheStats().Lends)
			store := drxmp.StoreView(f)
			note("store read", doOp(store, final, false))
			if cfg.fs.Parity > 0 {
				for s := range cfg.fs.Servers {
					f.FS().SetInjector(&pfs.FaultPoint{Server: s, Op: pfs.FaultReads, Permanent: true})
					note(fmt.Sprintf("store read, server %d dead", s), doOp(store, final, false))
				}
				f.FS().SetInjector(nil)
				if f.FS().Stats().DegradedReads == 0 {
					note("store reads", errors.New("no read was served by reconstruction"))
				}
			}
		}
		return nil
	})
	return errors.Join(append(errs, err)...)
}

// doOp runs a planned op; a read must return the bytes planned for it,
// into a buffer that starts out 0xA5.
func doOp(f *drxmp.File, op modelOp, collective bool) error {
	write, read := f.WriteSection, f.ReadSection
	if collective {
		write, read = f.WriteSectionAll, f.ReadSectionAll
	}
	if op.write {
		return write(op.box, op.data, op.user)
	}
	got := bytes.Repeat([]byte{0xA5}, len(op.data))
	if err := read(op.box, got, op.user); err != nil {
		return err
	}
	if !bytes.Equal(got, op.data) {
		return fmt.Errorf("read %v (%v order) differs from the model", op.box, op.user)
	}
	return nil
}

// tornWrite is rank 0's independent write under a one-shot write fault
// on server, retried once if it fails, as a client would. While a
// server is read-dead the fault stays off: a torn row and a lost unit
// at once are two failures, past what a retry can repair.
func tornWrite(f *drxmp.File, op modelOp, server int, dead bool) error {
	if !dead {
		f.FS().SetInjector(&pfs.FaultPoint{Server: server, Op: pfs.FaultWrites})
		defer f.FS().SetInjector(nil)
	}
	if f.WriteSection(op.box, op.data, op.user) == nil {
		return nil
	}
	return f.WriteSection(op.box, op.data, op.user)
}

// poisonBuffers leaves 0xA5-filled buffers of at least n bytes in the
// buffer pool, so a taker that reads a byte it did not write sees
// poison, not the zeros of a fresh allocation.
func poisonBuffers(n int) {
	held := make([]*mpiio.Buf, 4*runtime.GOMAXPROCS(0))
	for i := range held {
		held[i] = mpiio.GetBuf(int64(n))
		copy(held[i].B[:cap(held[i].B)], bytes.Repeat([]byte{0xA5}, cap(held[i].B)))
	}
	for _, b := range held {
		b.Release()
	}
}

// shrunk is set once a failing draw has been shrunk: when a change breaks
// every draw, one smallest program is enough, and all would take minutes.
var shrunk atomic.Bool

// checkModel runs p. If p fails, it reports the failure with p's
// configuration and numbered phases, then, for the first failure of the
// run, the smallest failing program that greedy shrinking finds.
func checkModel(t *testing.T, p *program) {
	t.Helper()
	err := runModel(p, t.TempDir())
	if err == nil {
		return
	}
	t.Errorf("%v\n%v", err, p)
	if !shrunk.CompareAndSwap(false, true) {
		return
	}
	p, err = shrink(p, err, func(q *program) error { return runModel(q, t.TempDir()) })
	t.Errorf("smallest failing program, %d phases: %v\n%v", len(p.phases), err, p)
}

// shrink drops phases from a failing program while it still fails:
// halves first, then quarters, down to single phases, replaying each
// candidate once and at most 200 in all.
func shrink(p *program, err error, run func(*program) error) (*program, error) {
	replays := 0
	for n := len(p.phases) / 2; n >= 1; n /= 2 {
		for i := 0; i+n <= len(p.phases) && replays < 200; replays++ {
			q := &program{cfg: p.cfg, phases: slices.Concat(p.phases[:i], p.phases[i+n:])}
			if qerr := run(q); qerr != nil {
				p, err = q, qerr
			} else {
				i += n
			}
		}
	}
	return p, err
}

// TestModel checks 32 seeded draws from the whole space, 8 under -short.
func TestModel(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	modelLends.Store(0)
	ran := 0
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			checkModel(t, drawProgram(seededStream(int64(seed)), fullSpace()))
		})
	}
	// The 32 seeds must reach the cache's lend path (seeds 13 and 23 do):
	// it needs a cache, parity 0 and warm holes within a write's budget
	// at once, which the full space rarely draws together.
	if ran == 32 && modelLends.Load() == 0 {
		t.Error("no program lent a hole to a write: the draw no longer reaches the lend path")
	}
}

// modelLends sums the holes the programs' caches lent to direct writes
// (CacheStats.Lends), read as each program ends.
var modelLends atomic.Int64

// FuzzModel is TestModel with the draw decoded from the fuzzer's bytes.
func FuzzModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		checkModel(t, drawProgram(&stream{b: b}, fullSpace()))
	})
}

// modelRow checks one draw from the whole space with pin's axes
// narrowed and must's phases in its program, seeded by the test's name
// so that a row replays by name. A row runs on real-time servers only
// if it pins them: they sleep for every request.
func modelRow(t *testing.T, pin func(*modelSpace), must ...phaseKind) {
	sp := fullSpace()
	sp.realTime = []bool{false}
	pin(&sp)
	sp.must = must
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	checkModel(t, drawProgram(seededStream(int64(h.Sum64())), sp))
}

// shapeRows is modelRow on four ranks once per shape, each a subtest
// named after its shape.
func shapeRows(t *testing.T, shapes []collShape, pin func(*modelSpace), must ...phaseKind) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			modelRow(t, func(sp *modelSpace) {
				sp.ranks, sp.shapes = []int{4}, []collShape{sh}
				pin(sp)
			}, must...)
		})
	}
}

// on pins a rank count and a shape.
func on(ranks int, bounds, chunk []int) func(*modelSpace) {
	return func(sp *modelSpace) { sp.ranks, sp.shapes = []int{ranks}, []collShape{{"pinned", bounds, chunk}} }
}

// The rows below keep the test IDs of the suites the model replaced.
// Each runs the model with that suite's axes pinned; every other axis is
// drawn from a seed derived from the row's name.

// Elevator and FIFO queues (was drxmp_sched_diff_test.go, which also
// crossed them with aggregator counts).
func schedPins(sp *modelSpace) {
	sp.servers, sp.stripes = []int{4}, []int64{1 << 10}
}

func TestCollectiveSchedulerCBNodesIdentical(t *testing.T) {
	shapeRows(t, collShapes(), schedPins, collWrite, collRead)
}

func TestCollectiveSchedulerOverlappingWrites(t *testing.T) {
	shapeRows(t, collShapes(), schedPins, collWrite, collWrite, collWrite)
}

// Collective I/O beside independent I/O (was drxmp_collective_par_test.go,
// which also crossed it with worker counts).
func workerPins(sp *modelSpace) {
	sp.servers, sp.stripes, sp.scheds = []int{4}, []int64{1 << 10}, []pfs.Scheduler{pfs.FIFO}
}

func TestCollectiveParallelSerialIndependentIdentical(t *testing.T) {
	shapeRows(t, collShapes(), workerPins, collWrite, indep, collRead)
}

func TestCollectiveOverlappingWritesParallelSerialIdentical(t *testing.T) {
	shapeRows(t, collShapes(), workerPins, collWrite, collWrite, collWrite)
}

// Parity 1 or 2 with a server dying mid-program (was parity_diff_test.go).
func TestErasureParityVariantsIdentical(t *testing.T) {
	shapes := []collShape{{"2d-even", []int{32, 32}, []int{8, 8}}, {"2d-odd", []int{23, 29}, []int{5, 7}}, {"3d", []int{8, 9, 10}, []int{4, 3, 5}}}
	shapeRows(t, shapes, func(sp *modelSpace) {
		sp.servers, sp.stripes, sp.parity = []int{6}, []int64{512}, []int{1, 2}
	}, collWrite, collWrite, kill, collRead)
}

func TestErasureDegradedEqualsHealthy(t *testing.T) {
	modelRow(t, func(sp *modelSpace) {
		on(1, []int{32, 32}, []int{8, 8})(sp)
		sp.servers, sp.stripes, sp.parity = []int{6}, []int64{512}, []int{2}
	}, indep, kill, indep)
}

// The rows below named after write-behind set WriteBehindBytes, as the
// benchmark harness does, to the values that once selected its
// watermark, close-only buffering or none: the handle ignores the knob,
// so they check collective I/O through a tiny or a roomy cache, also
// over the spill tier on a server count the four ranks do not divide,
// and a 2 KiB cache evicting between phases of independent reads beside
// other ranks' writes.
func TestWriteBehindDifferentialIdentical(t *testing.T) {
	shapeRows(t, collShapes(), func(sp *modelSpace) {
		sp.servers, sp.stripes, sp.scheds = []int{4}, []int64{1 << 10}, []pfs.Scheduler{pfs.Elevator}
		sp.wb, sp.cache = []int64{4096, 1 << 20, -1}, []int64{2 << 10, 1 << 20}
	}, collWrite, collRead, collWrite, syncAll)
}

func TestPlacementDifferentialIdentical(t *testing.T) {
	shapeRows(t, collShapes(), func(sp *modelSpace) {
		sp.servers, sp.stripes, sp.scheds = []int{3}, []int64{1 << 10}, []pfs.Scheduler{pfs.Elevator}
		sp.wb, sp.cache, sp.spill = []int64{4096}, []int64{8 << 10}, []int64{1 << 20}
	}, collWrite, collRead, collWrite)
}

func TestWriteBehindStressRace(t *testing.T) {
	modelRow(t, func(sp *modelSpace) {
		on(4, []int{128, 128}, []int{8, 8})(sp)
		sp.servers, sp.stripes, sp.scheds = []int{4}, []int64{512}, []pfs.Scheduler{pfs.Elevator}
		sp.wb, sp.cache = []int64{-1}, []int64{2 << 10}
		sp.zones, sp.slabs = []bool{true}, []bool{true}
	}, slices.Repeat([]phaseKind{collWrite, indep}, 6)...)
}

// The extent cache at a roomy and a tiny budget (was
// drxmp_rc_diff_test.go), and evicting on every op on real-time
// servers.
func TestReadCacheDifferentialIdentical(t *testing.T) {
	shapeRows(t, collShapes(), func(sp *modelSpace) {
		sp.servers, sp.stripes, sp.scheds = []int{4}, []int64{1 << 10, 4 << 10}, []pfs.Scheduler{pfs.Elevator}
		sp.cache = []int64{2 << 10, 1 << 20}
	}, collWrite, collRead, indep, syncAll)
}

func TestReadCacheDirtyStraddle(t *testing.T) {
	modelRow(t, func(sp *modelSpace) {
		on(2, []int{64, 64}, []int{8, 8})(sp)
		sp.cache, sp.wb = []int64{1 << 20}, []int64{-1}
	}, indep, collWrite, indep)
}

func TestReadCacheEvictionStressRace(t *testing.T) {
	modelRow(t, func(sp *modelSpace) {
		on(4, []int{32, 32}, []int{8, 8})(sp)
		sp.servers, sp.stripes, sp.scheds, sp.realTime = []int{4}, []int64{512}, []pfs.Scheduler{pfs.Elevator}, []bool{true}
		sp.wb, sp.cache, sp.readAhead = []int64{2048}, []int64{4096}, []int64{1024}
	}, collWrite, indep, collRead, syncAll)
}

// Holes joined under the benchmark's cost model, charged and never
// slept, on a cache that 2-4 ranks share: their independent writes run
// at once and meet in it, so one rank's holes lie among the segments
// another rank is writing.
func TestSeekHolesSharedCache(t *testing.T) {
	for ranks := 2; ranks <= 4; ranks++ {
		t.Run(fmt.Sprintf("ranks%d", ranks), func(t *testing.T) {
			modelRow(t, func(sp *modelSpace) {
				sp.ranks, sp.seek, sp.parity, sp.cache = []int{ranks}, []bool{true}, []int{0}, []int64{1 << 20}
			}, collRead, indep, indep, collWrite, indep, indep)
		})
	}
}

// Degraded reads beside writes, on a store with no cache: with a server
// dead, the even ranks read their slabs while the odd ones write theirs,
// so a write often begins while a read is in flight, and the read's
// rebuild must not use the row-mates and sources it fetched before.
func TestDegradedReadsBesideWrites(t *testing.T) {
	for ranks := 2; ranks <= 3; ranks++ {
		t.Run(fmt.Sprintf("ranks%d", ranks), func(t *testing.T) {
			modelRow(t, func(sp *modelSpace) {
				on(ranks, []int{96, 96}, []int{8, 8})(sp)
				sp.parity, sp.cache, sp.slabs = []int{2}, []int64{0}, []bool{true}
			}, collWrite, kill, indep, indep, indep, indep)
		})
	}
}

// Independent sections in both buffer orders, with and without parity
// and the cache (was section_vec_test.go).
func TestSectionVecOracle(t *testing.T) {
	for _, parity := range []int{0, 2} {
		for _, cache := range []int64{0, 64 << 10} {
			t.Run(fmt.Sprintf("parity=%d/cache=%d", parity, cache), func(t *testing.T) {
				must := []phaseKind{indep, indep, indep}
				if parity > 0 {
					must = append(must, kill, indep)
				}
				modelRow(t, func(sp *modelSpace) {
					on(1, []int{96, 80}, []int{16, 16})(sp)
					sp.servers, sp.parity, sp.stripes, sp.cache = []int{4 + parity}, []int{parity}, []int64{1 << 10}, []int64{cache}
				}, must...)
			})
		}
	}
}

// Collective I/O out of a poisoned buffer pool, per rank count,
// aggregator count, WriteBehindBytes (ignored; a non-zero one comes with
// a tiny or a roomy cache) and buffer order (was
// drxmp_collective_mem_test.go). The stripe sets
// the aggregator count, clamp(payload/stripe, 1, ranks): cb1 is a
// stripe wider than the payloads these rows draw, so one rank
// aggregates; cb-1 a 64-byte one, so every rank does once the payload
// reaches a stripe per rank.
func TestCollectivePoisonedPool(t *testing.T) {
	stripes := map[int]int64{1: 1 << 20, -1: 64}
	for ranks := 1; ranks <= 4; ranks++ {
		for _, cb := range []int{1, -1} {
			for _, wb := range []int64{0, -1, 4096} {
				for _, user := range []drxmp.Order{drxmp.RowMajor, drxmp.ColMajor} {
					t.Run(fmt.Sprintf("ranks%d-cb%d-wb%d-user%v", ranks, cb, wb, user), func(t *testing.T) {
						modelRow(t, func(sp *modelSpace) {
							sp.ranks, sp.stripes, sp.wb = []int{ranks}, []int64{stripes[cb]}, []int64{wb}
							sp.users, sp.poison = []drxmp.Order{user}, []bool{true}
							if wb != 0 {
								sp.cache = []int64{2 << 10, 1 << 20}
							}
						}, collWrite, collRead, collWrite, collRead)
					})
				}
			}
		}
	}
}

// Collective writes, of each rank's zone among others, read back (was
// in drxmp_test.go).
func TestQuickParallelRoundTrip(t *testing.T) {
	modelRow(t, func(*modelSpace) {}, collWrite, collRead)
}

// Independent writes covering chunks partially (was
// drxmp_partial_test.go).
func TestPartialChunkWrites(t *testing.T) {
	modelRow(t, on(1, []int{64, 64}, []int{16, 16}), indep, indep, indep)
}

// Every element type through collective writes across an Extend (was
// in dtype_parallel_test.go).
func TestAllDTypesParallelRoundTrip(t *testing.T) {
	for _, dt := range fullSpace().dtypes {
		t.Run(dt.String(), func(t *testing.T) {
			modelRow(t, func(sp *modelSpace) {
				sp.ranks, sp.dtypes = []int{3}, []drxmp.DType{dt}
			}, collWrite, extend, collWrite)
		})
	}
}

// Zone round trips on P ranks, read back by the model's final full
// reads (was in drxmp_test.go and drxmp_3d_test.go): a collective write
// of every rank's zone, on a grid that P divides or, for the uneven
// rows, does not (empty zones included); every rank reading its zone in
// the transposed order; and a rank-3 array grown once along every
// dimension between zone writes.
func zoneRows(t *testing.T, ranks []int, bounds, chunk []int) {
	for _, p := range ranks {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			modelRow(t, func(sp *modelSpace) {
				on(p, bounds, chunk)(sp)
				sp.zones = []bool{true}
			}, collWrite)
		})
	}
}

func TestParallelWriteSerialRead(t *testing.T) {
	zoneRows(t, []int{1, 2, 4, 6}, []int{11, 13}, []int{3, 4})
}

func TestUnevenRanks(t *testing.T) {
	zoneRows(t, []int{3, 5, 7}, []int{7, 5}, []int{3, 3})
}

func TestTransposedParallelRead(t *testing.T) {
	modelRow(t, func(sp *modelSpace) {
		on(4, []int{10, 10}, []int{2, 3})(sp)
		sp.zones, sp.users = []bool{true}, []drxmp.Order{drxmp.ColMajor}
	}, indep, collRead)
}

func TestThreeDimensionalParallel(t *testing.T) {
	modelRow(t, func(sp *modelSpace) {
		on(8, []int{8, 8, 8}, []int{4, 4, 4})(sp)
		sp.zones = []bool{true}
	}, collWrite, extend, collWrite, extend, collWrite, extend, collWrite)
}
