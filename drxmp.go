// Package drxmp is the Disk Resident Extendible Array library for
// multi-processing — the paper's DRX-MP.
//
// A principal array is stored out-of-core in a (simulated) parallel file
// system as fixed-shape chunks whose linear addresses come from the
// axial-vector mapping function F* (internal/core). The array can be
// extended along any dimension, collectively by every process that
// opened it, without reorganizing previously written chunks. Parallel
// programs (package internal/cluster provides the SPMD runtime standing
// in for MPI) open the array collectively; the metadata — the axial
// vectors — is replicated in every process, so any process computes the
// address of any chunk and the owner of any element without
// communication.
//
// Sub-arrays are read/written either independently or collectively
// (two-phase I/O via internal/mpiio), into memory laid out in C or
// Fortran order regardless of the on-disk chunk order. The Distribute
// method materializes the Global-Array-style processing model: each
// process holds its zone in memory and any process can Get/Put/
// Accumulate any element via one-sided access (internal/rma).
//
// The serial library, package drx, is a File opened on a one-rank
// communicator (cluster.Self): one file format and one I/O path serve
// both.
package drxmp

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"drxmp/internal/cluster"
	"drxmp/internal/dtype"
	"drxmp/internal/grid"
	"drxmp/internal/meta"
	"drxmp/internal/mpiio"
	"drxmp/internal/pfs"
	"drxmp/internal/zone"
)

// Re-exported element types and orders (see package drx for the serial
// library's identical aliases).
type (
	// DType is an element data type.
	DType = dtype.T
	// Order is a memory layout order.
	Order = grid.Order
	// Box is a half-open sub-array region.
	Box = grid.Box
	// CacheStats is the unified extent cache's cumulative accounting
	// (see File.CacheStats).
	CacheStats = mpiio.CacheStats
	// Tuning is the performance-knob block of Options and OpenOptions
	// (cache budget, read-ahead, spill tier; mpiio.Tuning
	// documents each knob). It is fixed when the file opens: to change
	// it, Close the file and open it again with OpenWith.
	Tuning = mpiio.Tuning
)

// Element types and orders.
const (
	Int32      = dtype.Int32
	Int64      = dtype.Int64
	Float32    = dtype.Float32
	Float64    = dtype.Float64
	Complex64  = dtype.Complex64
	Complex128 = dtype.Complex128

	RowMajor = grid.RowMajor
	ColMajor = grid.ColMajor
)

// NewBox builds a half-open box [lo, hi).
func NewBox(lo, hi []int) Box { return grid.NewBox(lo, hi) }

// ErrBadOptions is the typed validation error of Create and OpenWith:
// every rejected option wraps it, so callers (and the serving tier) can
// errors.Is instead of string-matching.
var ErrBadOptions = errors.New("drxmp: bad options")

// validateTuning rejects knob values with no defined meaning.
// WriteBehindBytes is ignored, so any value is legal.
func validateTuning(t Tuning) error {
	if t.CacheBytes < 0 {
		return fmt.Errorf("%w: negative CacheBytes %d", ErrBadOptions, t.CacheBytes)
	}
	if t.ReadAheadBytes < 0 {
		return fmt.Errorf("%w: negative ReadAheadBytes %d", ErrBadOptions, t.ReadAheadBytes)
	}
	if t.SpillBytes < 0 {
		return fmt.Errorf("%w: negative SpillBytes %d", ErrBadOptions, t.SpillBytes)
	}
	if t.ReadAheadBytes > 0 && t.CacheBytes == 0 {
		return fmt.Errorf("%w: ReadAheadBytes %d without CacheBytes (read-ahead extends cache fetches)", ErrBadOptions, t.ReadAheadBytes)
	}
	if t.SpillBytes > 0 && t.CacheBytes == 0 {
		return fmt.Errorf("%w: SpillBytes %d without CacheBytes (the spill tier backs the memory tier)", ErrBadOptions, t.SpillBytes)
	}
	if t.SpillPath != "" && t.SpillBytes == 0 {
		return fmt.Errorf("%w: SpillPath %q without SpillBytes", ErrBadOptions, t.SpillPath)
	}
	return nil
}

// Options configures Create.
type Options struct {
	// DType is the element type (required).
	DType DType
	// ChunkShape is the chunk shape in elements (required).
	ChunkShape []int
	// Bounds is the initial element bounds (required).
	Bounds []int
	// Order is the within-chunk element order (default RowMajor).
	Order Order
	// FS configures the backing parallel file system (zero value: one
	// in-memory server).
	FS pfs.Options
	// Decomp selects the zone decomposition (default BLOCK).
	Decomp zone.Kind
	// CyclicBlock is the BLOCK_CYCLIC(k) block size (default 1;
	// negative is rejected).
	CyclicBlock int
	// Tuning carries the performance knobs (cache budget, read-ahead,
	// spill tier). Every rank must pass identical values.
	Tuning
}

// OpenOptions configures OpenWith. Its shape mirrors Options so
// create-vs-open call sites stay symmetric.
type OpenOptions struct {
	// FS configures the backing parallel file system. The backend is
	// forced to Disk (only disk-backed arrays can be re-opened) and a
	// zero Dir defaults to the array path's directory. Servers,
	// StripeSize and Parity come from the .xmd: leave them zero.
	FS pfs.Options
	// Decomp selects the zone decomposition (default BLOCK).
	Decomp zone.Kind
	// CyclicBlock is the BLOCK_CYCLIC(k) block size (default 1;
	// negative is rejected).
	CyclicBlock int
	// Tuning carries the performance knobs, as in Options.
	Tuning
}

// File is one process's handle on a shared extendible array file. All
// processes of the communicator hold a replica of the metadata; methods
// marked collective must be called by every process.
type File struct {
	comm *cluster.Comm
	m    *meta.Meta
	fs   *pfs.FS
	io   *mpiio.File
	path string

	kind        zone.Kind
	cyclicBlock int
	diskBacked  bool

	decomp *zone.Decomp // cached; invalidated by extensions

	planMu sync.Mutex
	plans  []*sectionPlan // released section plans (getPlan/putPlan)
}

var fsSeq atomic.Int64

// shareFS publishes rank 0's FS so all ranks address the same store
// (in a real deployment this is the shared PVFS2 volume).
func shareFS(c *cluster.Comm, mk func() (*pfs.FS, error)) (*pfs.FS, error) {
	var key string
	var mkErr error
	if c.Rank() == 0 {
		fs, err := mk()
		if err != nil {
			mkErr = err
			key = ""
		} else {
			key = fmt.Sprintf("drxmp/fs/%d", fsSeq.Add(1))
			c.World().SharedPut(key, fs)
		}
	}
	kb, err := c.Bcast(0, []byte(key))
	if err != nil {
		return nil, err
	}
	if len(kb) == 0 {
		if mkErr != nil {
			return nil, mkErr
		}
		return nil, errors.New("drxmp: file system creation failed on rank 0")
	}
	v, ok := c.World().SharedGet(string(kb))
	if !ok {
		return nil, errors.New("drxmp: shared file system missing")
	}
	return v.(*pfs.FS), nil
}

// Create collectively creates a new extendible array (DRXMP_Init of the
// paper). Every rank must pass identical options. Validation failures
// wrap ErrBadOptions.
func Create(c *cluster.Comm, path string, opts Options) (*File, error) {
	if opts.Order != RowMajor && opts.Order != ColMajor {
		return nil, fmt.Errorf("%w: invalid order %v", ErrBadOptions, opts.Order)
	}
	if opts.CyclicBlock < 0 {
		return nil, fmt.Errorf("%w: negative CyclicBlock %d", ErrBadOptions, opts.CyclicBlock)
	}
	if opts.CyclicBlock == 0 {
		opts.CyclicBlock = 1
	}
	if err := validateTuning(opts.Tuning); err != nil {
		return nil, err
	}
	// Every rank builds its replica from the identical options, so a
	// rejected geometry fails everywhere alike.
	m, err := meta.New(opts.DType, opts.Order, opts.ChunkShape, opts.Bounds)
	if err != nil {
		return nil, err
	}
	fsOpts := opts.FS
	if fsOpts.Backend == pfs.Disk && fsOpts.Dir == "" {
		fsOpts.Dir = filepath.Dir(path)
	}
	fs, err := shareFS(c, func() (*pfs.FS, error) {
		return pfs.Create(filepath.Base(path)+".xta", fsOpts)
	})
	if err != nil {
		return nil, err
	}
	// The layout recorded is the one the store applied, defaults
	// included, so an opener needs none of Create's FS options.
	m.Layout = meta.Layout{Servers: fs.Servers(), StripeSize: fs.StripeSize(), Parity: fs.Parity()}
	io, err := mpiio.Open(c, fs, opts.Tuning)
	if err != nil {
		// The one failing knob is the spill-tier open, which is
		// attempted exactly once, when the first handle creates the
		// shared cache (later handles get the same error), so every rank
		// observes it and returns here uniformly — no agreement round
		// needed. Rank 0 owns the store it just created and releases it.
		if c.Rank() == 0 {
			fs.Close()
		}
		return nil, err
	}
	f := &File{
		comm:        c,
		m:           m,
		fs:          fs,
		io:          io,
		path:        path,
		kind:        opts.Decomp,
		cyclicBlock: opts.CyclicBlock,
		diskBacked:  fsOpts.Backend == pfs.Disk,
	}
	// Agree on the metadata-persist outcome before any rank returns a
	// handle: persistMeta can only fail on rank 0 (it is a no-op
	// elsewhere), and without the agreement round the other ranks would
	// return healthy handles on a store rank 0 is about to release.
	if err := f.agreeRank0(f.persistMeta(m), "create: metadata persist"); err != nil {
		// Rank 0 owns the store it just created: release it (queue
		// goroutines, disk files) rather than leak it on a failed create.
		if c.Rank() == 0 {
			fs.Close()
		}
		return nil, err
	}
	return f, c.Barrier()
}

// OpenWith collectively opens an existing disk-backed array
// (DRXMP_Open): rank 0 reads the .xmd file and broadcasts it; every
// process installs its replica, and the store opens with the stripe
// layout the .xmd records. It accepts the full Tuning block, so every
// knob a Create can set is available at open time too. Validation
// failures wrap ErrBadOptions.
func OpenWith(c *cluster.Comm, path string, opts OpenOptions) (*File, error) {
	if opts.CyclicBlock < 0 {
		return nil, fmt.Errorf("%w: negative CyclicBlock %d", ErrBadOptions, opts.CyclicBlock)
	}
	if opts.CyclicBlock == 0 {
		opts.CyclicBlock = 1
	}
	if err := validateTuning(opts.Tuning); err != nil {
		return nil, err
	}
	var blob []byte
	var rdErr error
	if c.Rank() == 0 {
		blob, rdErr = os.ReadFile(path + ".xmd")
	}
	blob, err := c.Bcast(0, blob)
	if err != nil {
		return nil, err
	}
	if len(blob) == 0 {
		if rdErr != nil {
			return nil, rdErr
		}
		return nil, fmt.Errorf("drxmp: empty metadata for %s", path)
	}
	m, err := meta.Decode(blob)
	if err != nil {
		return nil, err
	}
	fsOpts := opts.FS
	l := m.Layout
	if (fsOpts.Servers != 0 && fsOpts.Servers != l.Servers) || (fsOpts.StripeSize != 0 && fsOpts.StripeSize != l.StripeSize) ||
		(fsOpts.Parity != 0 && fsOpts.Parity != l.Parity) {
		return nil, fmt.Errorf("%w: FS geometry of %d servers, %d B stripe, %d parity conflicts with %s.xmd's %+v",
			ErrBadOptions, fsOpts.Servers, fsOpts.StripeSize, fsOpts.Parity, path, l)
	}
	fsOpts.Servers, fsOpts.StripeSize, fsOpts.Parity = l.Servers, l.StripeSize, l.Parity
	fsOpts.Backend = pfs.Disk
	if fsOpts.Dir == "" {
		fsOpts.Dir = filepath.Dir(path)
	}
	fs, err := shareFS(c, func() (*pfs.FS, error) {
		return pfs.Open(filepath.Base(path)+".xta", fsOpts)
	})
	if err != nil {
		return nil, err
	}
	io, err := mpiio.Open(c, fs, opts.Tuning)
	if err != nil {
		// Same uniform-error reasoning as in Create.
		if c.Rank() == 0 {
			fs.Close()
		}
		return nil, err
	}
	f := &File{
		comm:        c,
		m:           m,
		fs:          fs,
		io:          io,
		path:        path,
		kind:        opts.Decomp,
		cyclicBlock: opts.CyclicBlock,
		diskBacked:  true,
	}
	return f, c.Barrier()
}

// Close collectively closes the array (DRXMP_Close): a barrier, so no
// rank's I/O is still out, then rank 0 closes the shared store. Every
// write is on the servers when it returns, so nothing is flushed, and
// the metadata needs no write here: Create and every Extend already
// persisted it.
func (f *File) Close() error {
	if err := f.comm.Barrier(); err != nil {
		return err
	}
	if f.comm.Rank() == 0 {
		return f.fs.Close()
	}
	return nil
}

// Sync is a collective barrier (MPI_File_sync's ordering without its
// flush): every write is on the servers when it returns, so there is
// nothing to flush. It stays because the benchmark harness (bench/run.go)
// and drx.Array.Sync call it, and does nothing else. Every rank must
// call it.
func (f *File) Sync() error {
	return f.comm.Barrier()
}

// persistMeta writes m as the .xmd atomically (rank 0 of a
// disk-backed array; a no-op elsewhere): the encoding goes to a
// synced temp file in the same directory and is renamed into place, so
// a failed or interrupted write leaves the previous .xmd intact.
func (f *File) persistMeta(m *meta.Meta) error {
	if !f.diskBacked || f.comm.Rank() != 0 {
		return nil
	}
	dst := f.path + ".xmd"
	tmp, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".tmp*")
	if err != nil {
		return err
	}
	err = tmp.Chmod(0o644) // CreateTemp's 0600 would outlive the rename
	if err == nil {
		_, err = tmp.Write(m.Encode())
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// agreeRank0 is the agreement round after a step only rank 0 performs
// (its error is perr there, nil elsewhere): rank 0 broadcasts the
// outcome and every rank returns an error when the step failed, so no
// rank carries on with state rank 0 could not make durable.
func (f *File) agreeRank0(perr error, step string) error {
	ok := []byte{1}
	if perr != nil {
		ok[0] = 0
	}
	ok, err := f.comm.Bcast(0, ok)
	if err != nil {
		return err
	}
	if len(ok) == 0 || ok[0] == 0 {
		if perr != nil {
			return perr
		}
		return fmt.Errorf("drxmp: %s %s: failed on rank 0", f.path, step)
	}
	return nil
}

// --- metadata accessors ---

// Comm returns the communicator the file was opened with.
func (f *File) Comm() *cluster.Comm { return f.comm }

// Rank returns the array dimensionality (not the process rank; use
// Comm().Rank() for that).
func (f *File) Rank() int { return f.m.Rank() }

// Bounds returns the current element bounds.
func (f *File) Bounds() []int { return f.m.ElemBounds.Clone() }

// ChunkShape returns the chunk shape in elements.
func (f *File) ChunkShape() []int { return f.m.ChunkShape.Clone() }

// DType returns the element type.
func (f *File) DType() DType { return f.m.DType }

// Order returns the within-chunk element order.
func (f *File) Order() Order { return f.m.MemOrder }

// Chunks returns the number of allocated chunks.
func (f *File) Chunks() int64 { return f.m.Space.Total() }

// Meta exposes this process's metadata replica.
func (f *File) Meta() *meta.Meta { return f.m }

// FS exposes the shared backing store (statistics in benchmarks).
func (f *File) FS() *pfs.FS { return f.fs }

// Tuning returns the knob block the file was opened with, exactly as
// it was passed to Create or OpenWith.
func (f *File) Tuning() Tuning { return f.io.Tuning() }

// CacheBytes returns the read-cache memory budget (0 = disabled).
func (f *File) CacheBytes() int64 { return f.io.Tuning().CacheBytes }

// CacheStats returns the cumulative unified-cache accounting for the
// file (hits, misses, sieve fetches, evictions, the spill tier).
func (f *File) CacheStats() mpiio.CacheStats { return f.io.CacheStats() }

// Cached returns the bytes currently held by the file's shared extent
// cache.
func (f *File) Cached() int64 { return f.io.Cached() }

// Decomp returns the current zone decomposition of the chunk grid. It
// is recomputed from the replicated metadata after extensions, so every
// process always agrees.
func (f *File) Decomp() (*zone.Decomp, error) {
	if f.decomp != nil {
		return f.decomp, nil
	}
	d, err := zone.New(f.kind, grid.Shape(f.m.Space.Bounds()), f.comm.Size(), f.cyclicBlock)
	if err != nil {
		return nil, err
	}
	f.decomp = d
	return d, nil
}

// ZoneBoxes returns rank r's zone in element coordinates (chunk boxes
// scaled by the chunk shape and clipped to the element bounds).
func (f *File) ZoneBoxes(r int) ([]Box, error) {
	d, err := f.Decomp()
	if err != nil {
		return nil, err
	}
	var out []Box
	for _, cb := range d.ZoneOf(r) {
		eb := Box{Lo: make([]int, f.Rank()), Hi: make([]int, f.Rank())}
		for i := 0; i < f.Rank(); i++ {
			eb.Lo[i] = cb.Lo[i] * f.m.ChunkShape[i]
			eb.Hi[i] = cb.Hi[i] * f.m.ChunkShape[i]
			if eb.Hi[i] > f.m.ElemBounds[i] {
				eb.Hi[i] = f.m.ElemBounds[i]
			}
			if eb.Lo[i] > eb.Hi[i] {
				eb.Lo[i] = eb.Hi[i]
			}
		}
		if !eb.Empty() {
			out = append(out, eb)
		}
	}
	return out, nil
}

// MyZone returns the calling process's zone in element coordinates.
func (f *File) MyZone() ([]Box, error) { return f.ZoneBoxes(f.comm.Rank()) }

// OwnerOf returns the rank owning the element at idx.
func (f *File) OwnerOf(idx []int) (int, error) {
	d, err := f.Decomp()
	if err != nil {
		return 0, err
	}
	ci := make([]int, len(idx))
	for i := range idx {
		if idx[i] < 0 || idx[i] >= f.m.ElemBounds[i] {
			return 0, fmt.Errorf("drxmp: index %v outside bounds %v", idx, f.m.ElemBounds)
		}
		ci[i] = idx[i] / f.m.ChunkShape[i]
	}
	return d.Owner(ci)
}

// --- extension ---

// Extend collectively grows dimension dim by `by` elements
// (the paper's Section IV-B parallel expansion). Every process applies
// the identical extension to its metadata replica; no data moves.
func (f *File) Extend(dim, by int) error {
	if by < 1 {
		return fmt.Errorf("drxmp: extend by %d", by)
	}
	if dim < 0 || dim >= f.Rank() {
		return fmt.Errorf("drxmp: dimension %d out of range", dim)
	}
	bound := f.m.ElemBounds[dim] + by
	if err := f.comm.Barrier(); err != nil {
		return err
	}
	// Rank 0 extends a copy of the metadata, grows the store to it and
	// persists it; every rank then agrees on its outcome, so a failure
	// surfaces everywhere instead of stranding the peers at a barrier
	// rank 0 never reaches. Only a success touches the replicas, so a
	// failed Extend leaves them and the .xmd as they were.
	var perr error
	if f.comm.Rank() == 0 {
		next := f.m.Clone()
		if perr = next.ExtendElems(dim, bound); perr == nil {
			if perr = f.fs.Truncate(next.FileBytes()); perr == nil {
				perr = f.persistMeta(next)
			}
		}
	}
	if err := f.agreeRank0(perr, "extend"); err != nil {
		return err
	}
	f.decomp = nil
	return f.m.ExtendElems(dim, bound)
}

// --- section I/O ---

// ioRun is one contiguous file extent of a section transfer — one row
// of box ∩ chunk — plus its placement in the user buffer: element e of
// the run lives at user element offset dstStart + e*stride, where the
// stride is the same for every run of the section (sectionRuns).
type ioRun struct {
	fileOff  int64
	elems    int64
	dstStart int64
}

// coverChunk is one chunk of a section's cover: its storage address and
// its row-major position in the cover.
type coverChunk struct {
	q   int64
	ord int64
}

// sectionPlan is the working memory of one section call: the cover's
// chunks, the rows, the coalesced file runs handed to the file system,
// the memory vector over the caller's rows, and index scratch. A File
// keeps released plans on a free list (getPlan/putPlan), so a call in
// the steady state allocates none of it; nothing below sectionIO keeps
// any of it once the call returns.
type sectionPlan struct {
	chunks  []coverChunk
	rows    userRows  // rows.runs is the row list, in file order
	runs    []pfs.Run // the rows' file extents, touching ones merged
	ints    []int
	strides []int64
}

// poisonPlans makes putPlan point a released plan's runs at file
// offset 0 and its rows at the start of the user buffer, so a callee
// that kept them past the call moves the wrong bytes, which the tests'
// data checks see. The lengths stay valid, so no argument check fails
// first (a rank failing one alone would strand its peers in a
// collective). Tests turn it on.
var poisonPlans bool

func (f *File) getPlan() *sectionPlan {
	f.planMu.Lock()
	defer f.planMu.Unlock()
	n := len(f.plans)
	if n == 0 {
		return new(sectionPlan)
	}
	p := f.plans[n-1]
	f.plans = f.plans[:n-1]
	return p
}

// putPlan returns p to the free list; it drops the caller's buffer so a
// parked plan keeps no user memory alive.
func (f *File) putPlan(p *sectionPlan) {
	p.rows.buf = nil
	if poisonPlans {
		for i := range p.runs {
			p.runs[i].Off = 0
		}
		for i := range p.rows.runs {
			p.rows.runs[i].fileOff, p.rows.runs[i].dstStart = 0, 0
		}
	}
	f.planMu.Lock()
	f.plans = append(f.plans, p)
	f.planMu.Unlock()
}

// sectionRuns translates box ∩ chunks into p's rows, sorted by file
// offset with their user-buffer placement, and p's coalesced file runs,
// and returns the user-buffer element stride along a row. The caller's
// buffer is dense over box in the given order. Only the chunk cover is
// sorted (by storage address); each chunk then emits its rows in
// MemOrder, which is ascending within the chunk, so the rows need no
// sort of their own, and a row that starts where the last file run ends
// extends it.
func (f *File) sectionRuns(p *sectionPlan, box Box, order Order) (int64, error) {
	k := f.Rank()
	if box.Rank() != k {
		return 0, fmt.Errorf("drxmp: box rank %d != array rank %d", box.Rank(), k)
	}
	p.chunks, p.rows.runs, p.runs = p.chunks[:0], p.rows.runs[:0], p.runs[:0]
	es := int64(f.m.DType.Size())
	p.rows.es, p.rows.total = es, 0
	if box.Empty() {
		return 1, nil
	}
	for d, n := range f.m.ElemBounds {
		if box.Lo[d] < 0 || box.Hi[d] > n {
			return 0, fmt.Errorf("drxmp: box %v outside bounds %v", box, f.m.ElemBounds)
		}
	}
	cs := f.m.ChunkShape
	p.ints = slices.Grow(p.ints[:0], 8*k)[:8*k]
	p.strides = slices.Grow(p.strides[:0], 2*k)[:2*k]
	boxShape, coverLo, coverShape, cidx := p.ints[:k], p.ints[k:2*k], p.ints[2*k:3*k], p.ints[3*k:4*k]
	lo, hi, idx, outer := p.ints[4*k:5*k], p.ints[5*k:6*k], p.ints[6*k:7*k], p.ints[7*k:7*k]
	for d := range k {
		boxShape[d] = box.Hi[d] - box.Lo[d]
		coverLo[d] = box.Lo[d] / cs[d]
		coverShape[d] = (box.Hi[d]+cs[d]-1)/cs[d] - coverLo[d]
	}
	dstStrides := grid.StridesInto(p.strides[:k], boxShape, order)
	chunkStrides := grid.StridesInto(p.strides[k:], cs, f.m.MemOrder)
	// The innermost storage dimension (varies within a chunk row); the
	// others, fastest first, are the order rows follow within a chunk.
	inner := k - 1
	if f.m.MemOrder == ColMajor {
		inner = 0
		for d := 1; d < k; d++ {
			outer = append(outer, d)
		}
	} else {
		for d := k - 2; d >= 0; d-- {
			outer = append(outer, d)
		}
	}

	// The cover's chunks by storage address, walked row-major.
	copy(idx, coverLo)
	for ord := int64(0); ; ord++ {
		q, err := f.m.Space.Map(idx)
		if err != nil {
			return 0, err
		}
		p.chunks = append(p.chunks, coverChunk{q: q, ord: ord})
		d := k - 1
		for ; d >= 0; d-- {
			if idx[d]++; idx[d] < coverLo[d]+coverShape[d] {
				break
			}
			idx[d] = coverLo[d]
		}
		if d < 0 {
			break
		}
	}
	slices.SortFunc(p.chunks, func(a, b coverChunk) int { return cmp.Compare(a.q, b.q) })

	// Every chunk of the cover contributes one row per point of the box
	// outside the inner dimension.
	rows := int64(coverShape[inner])
	for _, d := range outer {
		rows *= int64(boxShape[d])
	}
	p.rows.runs = slices.Grow(p.rows.runs, int(rows))
	for _, c := range p.chunks {
		// lo/hi: box ∩ chunk; chunkOff/dstOff: its first row, in elements
		// from the chunk's and the box's origin.
		grid.Unoffset(coverShape, c.ord, grid.RowMajor, cidx)
		var chunkOff, dstOff int64
		for d := 0; d < k; d++ {
			c0 := (coverLo[d] + cidx[d]) * cs[d]
			lo[d] = max(c0, box.Lo[d])
			hi[d] = min(c0+cs[d], box.Hi[d])
			chunkOff += int64(lo[d]-c0) * chunkStrides[d]
			dstOff += int64(lo[d]-box.Lo[d]) * dstStrides[d]
		}
		base := c.q * f.m.ChunkBytes()
		n := int64(hi[inner] - lo[inner])
		copy(idx, lo)
	chunkRows:
		for {
			off := base + chunkOff*es
			p.rows.runs = append(p.rows.runs, ioRun{fileOff: off, elems: n, dstStart: dstOff})
			if last := len(p.runs) - 1; last >= 0 && p.runs[last].Off+p.runs[last].Len == off {
				p.runs[last].Len += n * es
			} else {
				p.runs = append(p.runs, pfs.Run{Off: off, Len: n * es})
			}
			p.rows.total += n * es
			for _, d := range outer {
				idx[d]++
				chunkOff += chunkStrides[d]
				dstOff += dstStrides[d]
				if idx[d] < hi[d] {
					continue chunkRows
				}
				span := int64(hi[d] - lo[d])
				chunkOff -= span * chunkStrides[d]
				dstOff -= span * dstStrides[d]
				idx[d] = lo[d]
			}
			break
		}
	}
	return dstStrides[inner], nil
}

// scatterGather moves bytes, an element at a time, between the
// sorted-run scratch buffer and a user buffer whose rows are strided.
func (f *File) scatterGather(runs []ioRun, stride int64, scratch, user []byte, toUser bool) {
	es := int64(f.m.DType.Size())
	var at int64
	for _, r := range runs {
		for e := int64(0); e < r.elems; e++ {
			u := user[(r.dstStart+e*stride)*es:]
			s := scratch[at+e*es:]
			if toUser {
				copy(u[:es], s[:es])
			} else {
				copy(s[:es], u[:es])
			}
		}
		at += r.elems * es
	}
}

// userRows is the memory vector of a section whose rows are unit-stride
// in the caller's buffer: segment i is run i's row of buf, so the runs'
// bytes in file order are the segments in order.
type userRows struct {
	runs  []ioRun
	buf   []byte
	es    int64
	total int64 // bytes in all rows
}

func (u *userRows) Len() int64 { return u.total }
func (u *userRows) Seg(i int) []byte {
	r := u.runs[i]
	return u.buf[r.dstStart*u.es : (r.dstStart+r.elems)*u.es]
}

// sectionIO moves one section between buf and the file as one request
// over its coalesced file runs. Independent I/O is ONE vectored
// mpiio.File.ReadV/WriteV (which also apply the extent cache's
// coherence rules): each server gets its list of segments up front, so
// the server queues overlap the service time. Collective I/O is the
// two-phase ReadAllV/WriteAllV over the same runs (ranks with an empty
// section still take part). When the rows are unit-stride in buf the
// caller's own rows are the request's memory vector and no scratch
// exists: the servers (or the aggregators' staging buffers) exchange
// bytes with buf directly. Strided or transposed rows pass through a
// pooled scratch buffer packed in file-offset order. The run lists and
// the memory vector live in a plan from the file's free list, returned
// when the call does. If a read fails, the contents of buf are
// unspecified.
func (f *File) sectionIO(box Box, buf []byte, order Order, write, collective bool) error {
	p := f.getPlan()
	defer f.putPlan(p)
	stride, err := f.sectionRuns(p, box, order)
	if err != nil {
		return err
	}
	total := p.rows.total
	if int64(len(buf)) < total {
		return fmt.Errorf("drxmp: buffer of %d bytes for %d-byte section", len(buf), total)
	}
	var mem mpiio.Vec
	var scratch []byte
	if stride == 1 {
		p.rows.buf = buf
		mem = &p.rows
	} else {
		pooled := mpiio.GetBuf(total)
		defer pooled.Release()
		scratch = pooled.B
		mem = mpiio.Contig(scratch)
		if write {
			f.scatterGather(p.rows.runs, stride, scratch, buf, false)
		}
	}
	switch {
	case collective && write:
		err = f.io.WriteAllV(p.runs, mem)
	case collective:
		err = f.io.ReadAllV(p.runs, mem)
	case write:
		err = f.io.WriteV(p.runs, mem)
	default:
		err = f.io.ReadV(p.runs, mem)
	}
	if err == nil && !write && scratch != nil {
		f.scatterGather(p.rows.runs, stride, scratch, buf, true)
	}
	return err
}

// ReadSection reads the sub-array `box` into buf (dense, in the given
// order) with independent I/O. If it returns an error the contents of
// buf are unspecified — as for every section read, ReadSectionAll
// included.
func (f *File) ReadSection(box Box, buf []byte, order Order) error {
	return f.sectionIO(box, buf, order, false, false)
}

// WriteSection writes buf (dense over box in the given order) with
// independent I/O. Partial chunk coverage is handled exactly: only the
// covered byte runs are written.
func (f *File) WriteSection(box Box, buf []byte, order Order) error {
	return f.sectionIO(box, buf, order, true, false)
}

// ReadSectionAll is the collective read (DRXMP_Read_all): every process
// of the communicator must call it, each with its own box (possibly
// empty). Two-phase aggregation turns the interleaved chunk accesses
// into streaming reads.
func (f *File) ReadSectionAll(box Box, buf []byte, order Order) error {
	return f.sectionIO(box, buf, order, false, true)
}

// WriteSectionAll is the collective write (DRXMP_Write_all).
func (f *File) WriteSectionAll(box Box, buf []byte, order Order) error {
	return f.sectionIO(box, buf, order, true, true)
}

// ReadSectionFloat64s is ReadSection with float64 conversion.
func (f *File) ReadSectionFloat64s(box Box, order Order) ([]float64, error) {
	buf := make([]byte, box.Volume()*int64(f.m.DType.Size()))
	if err := f.ReadSection(box, buf, order); err != nil {
		return nil, err
	}
	return dtype.DecodeFloat64s(f.m.DType, buf, int(box.Volume())), nil
}

// WriteSectionFloat64s is WriteSection from float64 values.
func (f *File) WriteSectionFloat64s(box Box, vals []float64, order Order) error {
	if int64(len(vals)) != box.Volume() {
		return fmt.Errorf("drxmp: %d values for box of %d elements", len(vals), box.Volume())
	}
	return f.WriteSection(box, dtype.EncodeFloat64s(f.m.DType, vals), order)
}
