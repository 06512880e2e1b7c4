// Package drxmp is the Disk Resident Extendible Array library for
// multi-processing — the paper's DRX-MP.
//
// A principal array is stored out-of-core in a (simulated) parallel file
// system as fixed-shape chunks whose linear addresses come from the
// axial-vector mapping function F* (internal/core). The array can be
// extended along any dimension, by any process group, without
// reorganizing previously written chunks. Parallel programs (package
// internal/cluster provides the SPMD runtime standing in for MPI) open
// the array collectively; the metadata — the axial vectors — is
// replicated in every process, so any process computes the address of
// any chunk and the owner of any element without communication.
//
// Sub-arrays are read/written either independently or collectively
// (two-phase I/O via internal/mpiio), into memory laid out in C or
// Fortran order regardless of the on-disk chunk order. The Distribute
// method materializes the Global-Array-style processing model: each
// process holds its zone in memory and any process can Get/Put/
// Accumulate any element via one-sided access (internal/rma).
//
// The serial counterpart is package drx.
package drxmp

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"drxmp/internal/cluster"
	"drxmp/internal/dtype"
	"drxmp/internal/grid"
	"drxmp/internal/meta"
	"drxmp/internal/mpiio"
	"drxmp/internal/par"
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

// ErrBadOptions is the typed validation error of Create, OpenWith and
// SetTuning: every rejected option wraps it, so callers (and the
// serving tier mapping tenant knobs onto files) can errors.Is instead
// of string-matching.
var ErrBadOptions = errors.New("drxmp: bad options")

// Tuning is the shared performance-knob block of Options and
// OpenOptions — everything that shapes HOW bytes move, none of WHAT
// they are. The zero value is a valid default for every field. A
// tenant's knobs apply atomically after open through File.SetTuning.
type Tuning struct {
	// CollectiveParallelism bounds the worker goroutines each rank uses
	// inside a collective call (ReadSectionAll/WriteSectionAll): the
	// exchange-stage piece carving fans out across up to this many
	// workers, and a DistArray's GetSection/PutSection run that many
	// per-owner transfers at once. 0 (the default) selects GOMAXPROCS,
	// negative forces the serial path, and values above GOMAXPROCS are
	// honored. The parallel and serial collective paths produce
	// byte-identical arrays.
	CollectiveParallelism int
	// CBNodes bounds how many aggregators a collective call uses (the
	// ROMIO "cb_nodes" analogue): 0 (the default) picks adaptively —
	// one aggregator per stripe of payload, clamped to [1, nranks] —
	// positive fixes the count, negative forces one aggregator per rank
	// (the pre-adaptive behavior). Aggregator selection never changes
	// the bytes, only how the two-phase transfer is carved. Every rank
	// must pass the same value. The queue discipline of the backing
	// servers is the FS.Scheduler knob (pfs.FIFO / pfs.Elevator).
	CBNodes int
	// WriteBehindBytes selects write-behind buffering for collective
	// writes: 0 (the default) dispatches each collective's coalesced
	// union immediately; > 0 buffers dirty unions across collectives
	// and flushes the cache in one vectored sweep once that many bytes
	// are buffered (the watermark counts the file's total buffered
	// bytes — the cache is shared by every rank's handle); < 0 buffers
	// without bound (flush on Sync, Close, or read coherence only).
	// Reads through any handle — independent or collective, any rank —
	// observe the deferred bytes: they are served from the cache when
	// CacheBytes is set, and flushed first otherwise. Use Sync for
	// durability ordering (bytes on the servers) and around concurrent
	// conflicting access, whose outcome is otherwise undefined exactly
	// as in MPI. Every rank must pass the same value.
	WriteBehindBytes int64
	// CacheBytes enables the read side of the unified per-file extent
	// cache with that memory budget in bytes: independent and
	// collective reads fetch sieve-aligned covering blocks (one
	// vectored request per miss) into the cache, hole-free re-reads
	// come from memory, and the budget caps the file's TOTAL cached
	// bytes — clean extents evict LRU-first, deferred write-behind
	// extents flush-on-evict. 0 (the default) disables read caching.
	// The cache is shared by every rank's handle on the store, so a
	// block fetched by one rank warms all of them. The sieve block
	// granularity is the stripe size; it is not a knob. Every rank must
	// pass the same value.
	CacheBytes int64
	// ReadAheadBytes extends each sieve fetch past the requested range
	// by this many bytes (rounded up to whole sieve blocks), so a
	// forward sectioned scan finds its next block already cached. 0
	// (the default) disables read-ahead; requires CacheBytes > 0. Every
	// rank must pass the same value.
	ReadAheadBytes int64
	// SpillBytes enables the local-disk spill tier of the extent cache
	// with that byte budget: extents evicted from the CacheBytes memory
	// tier demote to a local spill file instead of dropping (clean) or
	// flushing (dirty), reads consult memory → spill → pfs with spill
	// hits promoted back under LRU, and write-behind can buffer far
	// past RAM (spilled dirty bytes count toward the watermark and
	// flush in the same vectored sweep). 0 (the default) disables the
	// tier; requires CacheBytes > 0. Every rank must pass the same
	// value.
	SpillBytes int64
	// SpillPath names the spill file; empty (the default) selects a
	// temp file. The file is created at first use and removed when the
	// array's store closes. Meaningful only with SpillBytes > 0.
	SpillPath string
}

// validate rejects knob values with no defined meaning. Negative
// CollectiveParallelism (serial), CBNodes (one aggregator
// per rank) and WriteBehindBytes (unbounded buffering) are meaningful
// and stay legal.
func (t Tuning) validate() error {
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
	// Tuning carries the performance knobs (worker bounds, aggregator
	// count, write-behind, cache budget, read-ahead). Every rank must
	// pass identical values.
	Tuning
}

// OpenOptions configures OpenWith. Its shape mirrors Options so
// create-vs-open call sites stay symmetric.
type OpenOptions struct {
	// FS configures the backing parallel file system. The backend is
	// forced to Disk (only disk-backed arrays can be re-opened) and a
	// zero Dir defaults to the array path's directory.
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
	tuning      Tuning // the validated block last applied (see Tuning())

	decomp *zone.Decomp // cached; invalidated by extensions
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
	if err := opts.Tuning.validate(); err != nil {
		return nil, err
	}
	// Rank 0 builds the metadata; everyone receives the encoded replica
	// (identical construction everywhere would also work — the paper
	// replicates the metadata, which we model faithfully).
	var blob []byte
	var mkErr error
	if c.Rank() == 0 {
		m, err := meta.New(opts.DType, opts.Order, opts.ChunkShape, opts.Bounds)
		if err != nil {
			mkErr = err
		} else {
			blob = m.Encode()
		}
	}
	blob, err := c.Bcast(0, blob)
	if err != nil {
		return nil, err
	}
	if len(blob) == 0 {
		if mkErr != nil {
			return nil, mkErr
		}
		return nil, errors.New("drxmp: metadata creation failed on rank 0")
	}
	m, err := meta.Decode(blob)
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
	f := &File{
		comm:        c,
		m:           m,
		fs:          fs,
		io:          mpiio.Open(c, fs),
		path:        path,
		kind:        opts.Decomp,
		cyclicBlock: opts.CyclicBlock,
		diskBacked:  fsOpts.Backend == pfs.Disk,
	}
	if err := f.applyTuning(opts.Tuning); err != nil {
		// The one failing knob is the spill-tier open, which is
		// attempted exactly once on the shared cache (the failure is
		// sticky), so every rank observes the same error and returns
		// here uniformly — no agreement round needed. Rank 0 owns the
		// store it just created and releases it.
		if c.Rank() == 0 {
			fs.Close()
		}
		return nil, err
	}
	// Agree on the metadata-persist outcome before any rank returns a
	// handle: persistMeta can only fail on rank 0 (it is a no-op
	// elsewhere), and without the agreement round the other ranks would
	// return healthy handles on a store rank 0 is about to release.
	if err := f.agreeRank0(f.persistMeta(), "create: metadata persist"); err != nil {
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
// process installs its replica. It accepts the full Tuning block, so
// every knob a Create can set is available at open time too.
// Validation failures wrap ErrBadOptions.
func OpenWith(c *cluster.Comm, path string, opts OpenOptions) (*File, error) {
	if opts.CyclicBlock < 0 {
		return nil, fmt.Errorf("%w: negative CyclicBlock %d", ErrBadOptions, opts.CyclicBlock)
	}
	if opts.CyclicBlock == 0 {
		opts.CyclicBlock = 1
	}
	if err := opts.Tuning.validate(); err != nil {
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
	f := &File{
		comm:        c,
		m:           m,
		fs:          fs,
		io:          mpiio.Open(c, fs),
		path:        path,
		kind:        opts.Decomp,
		cyclicBlock: opts.CyclicBlock,
		diskBacked:  true,
	}
	if err := f.applyTuning(opts.Tuning); err != nil {
		// Same uniform-error reasoning as in Create.
		if c.Rank() == 0 {
			fs.Close()
		}
		return nil, err
	}
	return f, c.Barrier()
}

// Close collectively closes the array (DRXMP_Close). Every rank first
// flushes its write-behind cache (deferred collective writes become
// durable before the store shuts down — the flush-before-close
// guarantee), then rank 0 persists the metadata and closes the shared
// store. The store's own close-flusher hook (pfs.AddCloseFlusher) backs
// this up for callers that close the FS directly.
func (f *File) Close() error {
	serr := f.io.Sync()
	// A persist failure is reported after the barrier and the store
	// close, not instead of them: returning here would strand the other
	// ranks at the barrier and leak the store.
	if err := f.persistMeta(); err != nil && serr == nil {
		serr = err
	}
	if err := f.comm.Barrier(); err != nil {
		return err
	}
	if f.comm.Rank() == 0 {
		if err := f.fs.Close(); err != nil && serr == nil {
			serr = err
		}
	}
	return serr
}

// Sync collectively flushes the file's write-behind cache to the I/O
// servers (MPI_File_sync): flush, then one agreement round that
// doubles as a barrier, so every rank returns only after all deferred
// collective writes are durably on the servers and any rank's flush
// failure surfaces everywhere. Every rank must call it.
func (f *File) Sync() error {
	return f.io.SyncAll()
}

// persistMeta writes the .xmd replica atomically (rank 0 of a
// disk-backed array; a no-op elsewhere): the encoding goes to a
// synced temp file in the same directory and is renamed into place, so
// a failed or interrupted write leaves the previous .xmd intact.
func (f *File) persistMeta() error {
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
		_, err = tmp.Write(f.m.Encode())
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

// Tuning returns the knob block the file last applied, exactly as it
// was passed to Create, OpenWith or SetTuning (raw values, not the
// resolved worker count — see CollectiveParallelism for that). A
// SetTuning that returned an error leaves it unchanged.
func (f *File) Tuning() Tuning { return f.tuning }

// applyTuning installs an already validated t on the mpiio handle and
// records it. A spill-tier open failure surfaces here — it is the one
// knob with a resource behind it.
func (f *File) applyTuning(t Tuning) error {
	err := f.io.ApplyTuning(mpiio.TuningKnobs{
		Parallelism: t.CollectiveParallelism,
		CBNodes:     t.CBNodes,
		WriteBehind: t.WriteBehindBytes,
		CacheBytes:  t.CacheBytes,
		ReadAhead:   t.ReadAheadBytes,
		SpillBytes:  t.SpillBytes,
		SpillPath:   t.SpillPath,
	})
	if err == nil {
		f.tuning = t
	}
	return err
}

// SetTuning validates t (ErrBadOptions on rejection) and applies every
// knob atomically, so a serving tier can swap a tenant's whole profile
// between requests. Disabling write-behind (newly zero) flushes any
// buffered dirty extents first and returns the flush error; disabling
// the cache releases its clean extents. Every rank must apply the same
// Tuning.
func (f *File) SetTuning(t Tuning) error {
	if err := t.validate(); err != nil {
		return err
	}
	return f.applyTuning(t)
}

// CollectiveParallelism returns the resolved worker bound for the
// two-phase collective stages and the DistArray section transfers.
func (f *File) CollectiveParallelism() int { return par.Resolve(f.io.Parallelism) }

// CBNodes returns the collective aggregator-count knob (0 = adaptive).
func (f *File) CBNodes() int { return f.io.CBNodes }

// WriteBehind returns the write-behind policy knob (0 = immediate).
func (f *File) WriteBehind() int64 { return f.io.WriteBehind }

// CacheBytes returns the read-cache memory budget (0 = disabled).
func (f *File) CacheBytes() int64 { return f.io.CacheBytes }

// ReadAhead returns the sieve read-ahead knob (0 = disabled).
func (f *File) ReadAhead() int64 { return f.io.ReadAhead }

// CacheStats returns the cumulative unified-cache accounting for the
// file (hits, misses, sieve fetches, evictions, absorbs, flushes).
func (f *File) CacheStats() mpiio.CacheStats { return f.io.CacheStats() }

// Dirty returns the bytes currently buffered by this rank's
// write-behind cache (benchmarks and tests).
func (f *File) Dirty() int64 { return f.io.Dirty() }

// Cached returns the total bytes (clean + dirty) currently held by the
// file's shared extent cache.
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
	if err := f.m.ExtendElems(dim, f.m.ElemBounds[dim]+by); err != nil {
		return err
	}
	f.decomp = nil
	if err := f.comm.Barrier(); err != nil {
		return err
	}
	// Rank 0 grows the store and persists the metadata; every rank then
	// agrees on its outcome, so a failure surfaces everywhere instead of
	// stranding the peers at a barrier rank 0 never reaches.
	var perr error
	if f.comm.Rank() == 0 {
		if perr = f.fs.Truncate(f.m.FileBytes()); perr == nil {
			perr = f.persistMeta()
		}
	}
	return f.agreeRank0(perr, "extend: truncate or metadata persist")
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

// sectionRuns translates box ∩ chunks into file runs with user-buffer
// placement, sorted by file offset, and returns the user-buffer element
// stride along a run. The caller's buffer is dense over box in the
// given order. Only the chunk cover is sorted (by storage address);
// each chunk then emits its rows in MemOrder, which is ascending
// within the chunk, so the row list needs no sort of its own and is
// sized up front.
func (f *File) sectionRuns(box Box, order Order) ([]ioRun, int64, error) {
	if box.Rank() != f.Rank() {
		return nil, 0, fmt.Errorf("drxmp: box rank %d != array rank %d", box.Rank(), f.Rank())
	}
	if box.Empty() {
		return nil, 1, nil
	}
	if !grid.BoxOf(f.m.ElemBounds).ContainsBox(box) {
		return nil, 0, fmt.Errorf("drxmp: box %v outside bounds %v", box, f.m.ElemBounds)
	}
	k := f.Rank()
	es := int64(f.m.DType.Size())
	cs := f.m.ChunkShape
	boxShape := box.Shape()
	dstStrides := grid.Strides(boxShape, order)
	chunkStrides := grid.Strides(cs, f.m.MemOrder)
	// The innermost storage dimension (varies within a chunk row); the
	// others, fastest first, are the order rows follow within a chunk.
	inner := k - 1
	outer := make([]int, 0, k-1)
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

	// The cover's chunks by storage address; ord is the chunk's
	// row-major position in the cover.
	type coverChunk struct {
		q   int64
		ord int64
	}
	cover := grid.ChunkCover(box, cs)
	coverShape := cover.Shape()
	chunks := make([]coverChunk, 0, coverShape.Volume())
	var mapErr error
	cover.Iterate(grid.RowMajor, func(cidx []int) bool {
		q, err := f.m.Space.Map(cidx)
		if err != nil {
			mapErr = err
			return false
		}
		chunks = append(chunks, coverChunk{q: q, ord: int64(len(chunks))})
		return true
	})
	if mapErr != nil {
		return nil, 0, mapErr
	}
	slices.SortFunc(chunks, func(a, b coverChunk) int { return cmp.Compare(a.q, b.q) })

	// Every chunk of the cover contributes one row per point of the box
	// outside the inner dimension.
	rows := int64(coverShape[inner])
	for _, d := range outer {
		rows *= int64(boxShape[d])
	}
	runs := make([]ioRun, 0, rows)
	scratch := make([]int, 4*k)
	cidx, lo, hi, idx := scratch[:k], scratch[k:2*k], scratch[2*k:3*k], scratch[3*k:]
	for _, c := range chunks {
		// lo/hi: box ∩ chunk; chunkOff/dstOff: its first row, in elements
		// from the chunk's and the box's origin.
		grid.Unoffset(coverShape, c.ord, grid.RowMajor, cidx)
		var chunkOff, dstOff int64
		for d := 0; d < k; d++ {
			c0 := (cover.Lo[d] + cidx[d]) * cs[d]
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
			runs = append(runs, ioRun{fileOff: base + chunkOff*es, elems: n, dstStart: dstOff})
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
	return runs, dstStrides[inner], nil
}

// fileRuns coalesces the rows' file extents into the vectored request:
// runs are sorted by file offset and their bytes pack back-to-back in
// that order, so merging touching extents is lossless.
func (f *File) fileRuns(runs []ioRun) []pfs.Run {
	es := int64(f.m.DType.Size())
	n := 0
	for i, r := range runs {
		if i == 0 || runs[i-1].fileOff+runs[i-1].elems*es != r.fileOff {
			n++
		}
	}
	out := make([]pfs.Run, 0, n)
	for i, r := range runs {
		if i > 0 && runs[i-1].fileOff+runs[i-1].elems*es == r.fileOff {
			out[len(out)-1].Len += r.elems * es
			continue
		}
		out = append(out, pfs.Run{Off: r.fileOff, Len: r.elems * es})
	}
	return out
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

func (u userRows) Len() int64 { return u.total }
func (u userRows) Seg(i int) []byte {
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
// pooled scratch buffer packed in file-offset order. If a read fails,
// the contents of buf are unspecified.
func (f *File) sectionIO(box Box, buf []byte, order Order, write, collective bool) error {
	runs, stride, err := f.sectionRuns(box, order)
	if err != nil {
		return err
	}
	es := int64(f.m.DType.Size())
	if !box.Empty() && int64(len(buf)) < box.Volume()*es {
		return fmt.Errorf("drxmp: buffer of %d bytes for %d-byte section", len(buf), box.Volume()*es)
	}
	pruns := f.fileRuns(runs)
	var total int64
	for _, r := range pruns {
		total += r.Len
	}
	var mem mpiio.Vec
	var scratch []byte
	if stride == 1 {
		mem = userRows{runs: runs, buf: buf, es: es, total: total}
	} else {
		pooled := mpiio.GetBuf(total)
		defer pooled.Release()
		scratch = pooled.B
		mem = mpiio.Contig(scratch)
		if write {
			f.scatterGather(runs, stride, scratch, buf, false)
		}
	}
	switch {
	case collective && write:
		err = f.io.WriteAllV(pruns, mem)
	case collective:
		err = f.io.ReadAllV(pruns, mem)
	case write:
		err = f.io.WriteV(pruns, mem)
	default:
		err = f.io.ReadV(pruns, mem)
	}
	if err == nil && !write && scratch != nil {
		f.scatterGather(runs, stride, scratch, buf, true)
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
// into streaming reads. The handle's file view plays no part and is
// left as it was.
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
