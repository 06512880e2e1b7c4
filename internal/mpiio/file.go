package mpiio

import (
	"errors"
	"fmt"
	"sync/atomic"

	"drxmp/internal/cluster"
	"drxmp/internal/par"
	"drxmp/internal/pfs"
)

// File is one process's handle on a shared striped file, with a private
// file view (displacement + filetype), mirroring MPI_File +
// MPI_File_set_view. All processes of the communicator share the same
// underlying pfs.FS; each may set a different view.
type File struct {
	fs   *pfs.FS
	comm *cluster.Comm

	disp     int64
	filetype Datatype
	pos      int64 // individual file pointer, in view (data) bytes

	// CollectiveBufferSize caps each aggregator's staging buffer per
	// two-phase round (the ROMIO "cb_buffer_size" analogue). Zero means
	// unbounded (single round).
	CollectiveBufferSize int64

	// CBNodes controls how many aggregators a collective operation
	// uses (the ROMIO "cb_nodes" analogue). Zero (the default) selects
	// adaptively: clamp(totalBytes/stripeSize, 1, nranks), so small
	// collectives funnel through few aggregators — fewer, larger,
	// scheduler-friendly server requests — while large ones keep full
	// fan-out. Positive values fix the count (clamped to the
	// communicator size); negative values force one aggregator per
	// rank (the pre-adaptive behavior). Every rank of a collective
	// must use the same setting.
	CBNodes int

	// Parallelism bounds the worker goroutines this rank uses inside a
	// collective call: carving each rank's pieces and packing each
	// peer's read payload run one item per rank on up to this many
	// workers (internal/par semantics: 0 selects GOMAXPROCS, negative
	// forces the serial path, values above GOMAXPROCS are honored).
	// Moving the caller's own bytes is one ordered walk, and the
	// aggregate phase needs no workers at all — each aggregator issues
	// its capped runs as one vectored ReadV/WriteV, so the per-server
	// queues see the full batch regardless of this knob. The parallel
	// and serial paths are byte-identical: workers only ever touch
	// disjoint buffers, and merge order is fixed.
	Parallelism int

	// WriteBehind selects the write-behind policy for collective
	// writes (the dirty side of the unified extent cache,
	// filecache.go): 0 (the default) dispatches each collective's
	// union runs immediately; > 0 buffers dirty unions across
	// collectives and flushes the whole cache once that many bytes are
	// buffered (the watermark); < 0 buffers without bound, flushing
	// only on Sync, Close, read coherence, or budget-pressure
	// eviction. The cache is shared by every handle on the same store
	// (the watermark is on the file's total buffered dirty bytes), so
	// reads through ANY handle observe the deferred bytes — served
	// from memory when clean caching is on, flushed first otherwise.
	// Every rank of a communicator must use the same enabled/disabled
	// state (collective reads insert one coherence round when a cache
	// is in play). Concurrent unsynced access to overlapping ranges
	// keeps MPI's usual semantics: undefined without a Sync/barrier
	// between the conflicting operations.
	WriteBehind int64

	// CacheBytes enables the clean side of the unified extent cache —
	// data sieving for reads — with that memory budget in bytes: reads
	// fetch sieve-aligned covering blocks (one vectored SieveReadV)
	// into the cache and hole-free re-reads come from memory. The
	// budget caps the file's TOTAL cached bytes, clean and dirty:
	// clean extents evict LRU-first, dirty extents flush-on-evict. 0
	// (the default) disables clean caching — the cache degenerates to
	// the PR 4 write-behind behavior. Every rank must use the same
	// value.
	CacheBytes int64

	// ReadAhead extends each sieve fetch past the requested range by
	// this many bytes (rounded up to whole sieve blocks), so a forward
	// sectioned scan finds its next block already cached. 0 disables.
	// Meaningful only with CacheBytes > 0.
	ReadAhead int64

	// SpillBytes enables the local-disk spill tier of the extent cache
	// with that byte budget: extents evicted from the memory tier
	// demote to a local spill file instead of dropping (clean) or
	// flushing (dirty), and reads consult memory → spill → pfs,
	// promoting spill hits back under LRU. 0 (the default) disables the
	// tier. Meaningful only with CacheBytes > 0; every rank must use
	// the same value.
	SpillBytes int64

	// SpillPath names the spill file; empty selects a temp file. The
	// file is created at first use and removed when the store closes.
	// Meaningful only with SpillBytes > 0.
	SpillPath string

	// fc memoizes the shared extent cache. Atomic because the serving
	// tier reads through one handle from concurrent requests (every
	// resolver stores the same per-store instance, so racing stores are
	// idempotent).
	fc atomic.Pointer[fileCache]
}

// workers resolves the collective parallelism knob.
func (f *File) workers() int { return par.Resolve(f.Parallelism) }

// cacheConfig projects this handle's policy knobs into the shared
// cache's Configure block. The sieve block is left at the store's
// stripe size, which keeps sieve fetches server-aligned.
func (f *File) cacheConfig() cacheConfig {
	return cacheConfig{
		budget:     f.CacheBytes,
		readAhead:  f.ReadAhead,
		spillBytes: f.SpillBytes,
		spillPath:  f.SpillPath,
	}
}

// cache returns the file's shared extent cache, creating it (and
// registering its flush with the store's Close) on first use, and
// re-applies this handle's policy knobs (CacheBytes/ReadAhead/
// SpillBytes/SpillPath — shared state, so every rank must use the
// same values). Every handle on the same store resolves to the same
// cache.
func (f *File) cache() *fileCache {
	c := f.fc.Load()
	if c == nil {
		c = sharedFileCache(f.fs)
		f.fc.Store(c)
	}
	c.Configure(f.cacheConfig())
	return c
}

// sharedCache returns the file's shared cache without creating one —
// the coherence hooks use it, so a handle that never wrote still
// observes the deferred bytes of the handles that did.
func (f *File) sharedCache() *fileCache {
	c := f.fc.Load()
	if c == nil {
		if c = lookupFileCache(f.fs); c != nil {
			f.fc.Store(c)
		}
	}
	return c
}

// cacheActive reports whether this handle runs reads through the
// unified cache (clean caching / data sieving enabled).
func (f *File) cacheActive() bool { return f.CacheBytes > 0 }

// TuningKnobs is ApplyTuning's parameter block — one field per handle
// knob, so the signature stops growing positionally as knobs accrue.
type TuningKnobs struct {
	Parallelism int
	CBNodes     int
	WriteBehind int64
	CacheBytes  int64
	ReadAhead   int64
	SpillBytes  int64
	SpillPath   string
}

// ApplyTuning installs every collective/cache knob of the handle in
// one call — the atomic application point behind drxmp.File.SetTuning,
// so a serving tier can swap a whole tenant profile. The shared cache
// is reconfigured once. Disabling write-behind (newly zero) flushes the
// buffered dirty extents; disabling the cache or the spill tier first
// drains every deferred byte under the OLD configuration (the
// caching sweep is the only path that reads dirty extents back out of
// the spill file). Enabling the spill tier opens the spill file
// eagerly, so a bad SpillPath fails this call rather than silently
// degrading later.
func (f *File) ApplyTuning(k TuningKnobs) error {
	wasWB := f.WriteBehind
	if (k.CacheBytes <= 0 && f.CacheBytes > 0) || (k.SpillBytes <= 0 && f.SpillBytes > 0) {
		if w := f.sharedCache(); w != nil {
			if err := w.FlushAll(); err != nil {
				return err
			}
		}
	}
	f.Parallelism = k.Parallelism
	f.CBNodes = k.CBNodes
	f.WriteBehind = k.WriteBehind
	f.CacheBytes = k.CacheBytes
	f.ReadAhead = k.ReadAhead
	f.SpillBytes = k.SpillBytes
	f.SpillPath = k.SpillPath
	var w *fileCache
	if f.SpillBytes > 0 && f.CacheBytes > 0 {
		w = f.cache() // eager: the spill file opens here
	} else if w = f.sharedCache(); w != nil {
		w.Configure(f.cacheConfig())
	}
	if w != nil {
		if err := w.SpillErr(); err != nil {
			return err
		}
	}
	if k.WriteBehind == 0 && wasWB != 0 {
		return f.Sync()
	}
	return nil
}

// Sync flushes every buffered dirty extent of the file — all ranks'
// deferred collective writes share one cache — to the file system as
// one vectored flush sweep (MPI_File_sync). With clean caching on the
// flushed extents stay cached (clean), so a post-Sync re-read is warm.
// A file with nothing dirty is a no-op.
func (f *File) Sync() error {
	if w := f.sharedCache(); w != nil {
		return w.FlushAll()
	}
	return nil
}

// SyncAll is the collective Sync: flush, then one agreement round
// (which doubles as a barrier), so every rank returns only after all
// deferred bytes are on the servers and any rank's flush failure
// surfaces everywhere. Every rank must call it.
func (f *File) SyncAll() error { return f.agree(f.Sync()) }

// Dirty returns the dirty bytes currently buffered by the file's
// shared extent cache.
func (f *File) Dirty() int64 {
	if w := f.sharedCache(); w != nil {
		return w.Bytes()
	}
	return 0
}

// Cached returns the total bytes (clean + dirty) currently held by the
// file's shared extent cache.
func (f *File) Cached() int64 {
	if w := f.sharedCache(); w != nil {
		return w.Cached()
	}
	return 0
}

// CacheStats returns the cumulative extent-cache accounting for the
// file (absorbs, flushes, hits/misses, sieve fetches, evictions).
func (f *File) CacheStats() CacheStats {
	if w := f.sharedCache(); w != nil {
		return w.Stats()
	}
	return CacheStats{}
}

// coherent applies the unified-cache coherence rule to a run list this
// rank is about to transfer directly against the store: a read flushes
// the dirty extents it intersects (so it observes every handle's
// deferred bytes — the cache is shared), a write punches the runs out
// of the cache, clean and dirty alike (so neither a later flush nor a
// cached re-read can resurrect superseded bytes). No-op without a
// cache.
func (f *File) coherent(runs []pfs.Run, write bool) error {
	w := f.sharedCache()
	if w == nil {
		return nil
	}
	if write {
		w.PunchV(runs)
		return nil
	}
	return w.FlushIntersecting(runs)
}

// ReadV reads the coalesced runs into mem (their bytes packed
// back-to-back fill its segments in order). With clean caching on
// (CacheBytes > 0) the read goes through the unified cache — covered
// bytes, dirty or clean, come from memory and holes are sieve-fetched;
// otherwise it applies the wb-only read coherence (flush intersecting
// dirty extents) and reads the store, whose servers move the bytes
// straight into mem's segments.
func (f *File) ReadV(runs []pfs.Run, mem Vec) error {
	if f.cacheActive() {
		return f.cache().ReadThrough(runs, mem)
	}
	if err := f.coherent(runs, false); err != nil {
		return err
	}
	_, err := f.fs.ReadVec(runs, mem)
	return err
}

// WriteV writes the coalesced runs from mem (its segments,
// concatenated, supply the runs' bytes), punching the runs out of the
// unified cache first — and, with clean caching on, once more after
// the store write lands (postWrite).
func (f *File) WriteV(runs []pfs.Run, mem Vec) error {
	if err := f.coherent(runs, true); err != nil {
		return err
	}
	if _, err := f.fs.WriteVec(runs, mem); err != nil {
		return err
	}
	return f.postWrite(runs)
}

// postWrite re-punches runs after a direct store write has completed.
// A sieve fetch in flight across the pre-write punch (coherent) has the
// runs in its guard and will not insert them, but one that started
// after that punch may still have read the store BEFORE the write
// landed: this punch enters its guard if it is still out, and removes
// the stale clean bytes it inserted if it is not. The direct-write paths
// (WriteV, the collective aggregateWrite) call it once their store
// writes return. No-op unless clean caching is on —
// without clean extents there is nothing a racing read could poison.
func (f *File) postWrite(runs []pfs.Run) error {
	if w := f.sharedCache(); w != nil && w.caching() {
		w.PunchV(runs)
	}
	return nil
}

// Open returns a handle on fs for this process. It is collective only
// by convention (no synchronization is needed to open).
func Open(comm *cluster.Comm, fs *pfs.FS) *File {
	f := &File{fs: fs, comm: comm}
	f.filetype = MustBytes(1 << 20) // default view: raw bytes
	return f
}

// FS exposes the underlying striped file (stats access in benchmarks).
func (f *File) FS() *pfs.FS { return f.fs }

// SetView installs the process-local file view: visible data byte v of
// the view maps to file offset disp + tile*extent + blockOffset, where
// the filetype tiles the file starting at disp (MPI_File_set_view).
// The individual file pointer resets to zero.
func (f *File) SetView(disp int64, filetype Datatype) error {
	if disp < 0 {
		return fmt.Errorf("mpiio: negative displacement %d", disp)
	}
	if filetype.IsZero() {
		return errors.New("mpiio: zero filetype")
	}
	f.disp = disp
	f.filetype = filetype
	f.pos = 0
	return nil
}

// viewToFile maps a view data-byte position to an absolute file offset.
func (f *File) viewToFile(v int64) int64 {
	tile := v / f.filetype.size
	within := v % f.filetype.size
	bi, boff := f.filetype.locate(within)
	return f.disp + tile*f.filetype.extent + f.filetype.blocks[bi].Off + boff
}

// runsFor translates the view range [viewOff, viewOff+n) into coalesced
// contiguous file extents, in view order. Because filetype blocks are
// sorted within a tile and tiles advance monotonically, the produced
// runs are non-decreasing in file offset.
func (f *File) runsFor(viewOff, n int64) []pfs.Run {
	var runs []pfs.Run
	v := viewOff
	remaining := n
	for remaining > 0 {
		within := v % f.filetype.size
		bi, boff := f.filetype.locate(within)
		blk := f.filetype.blocks[bi]
		avail := blk.Len - boff
		if avail > remaining {
			avail = remaining
		}
		off := f.viewToFile(v)
		if m := len(runs); m > 0 && runs[m-1].Off+runs[m-1].Len == off {
			runs[m-1].Len += avail
		} else {
			runs = append(runs, pfs.Run{Off: off, Len: avail})
		}
		v += avail
		remaining -= avail
	}
	return runs
}

// ReadAt reads len(buf) view bytes starting at view offset viewOff
// (independent I/O; MPI_File_read_at with the current view).
func (f *File) ReadAt(buf []byte, viewOff int64) error {
	if viewOff < 0 {
		return fmt.Errorf("mpiio: negative view offset %d", viewOff)
	}
	if len(buf) == 0 {
		return nil
	}
	return f.ReadV(f.runsFor(viewOff, int64(len(buf))), Contig(buf))
}

// WriteAt writes len(buf) view bytes at view offset viewOff
// (independent I/O).
func (f *File) WriteAt(buf []byte, viewOff int64) error {
	if viewOff < 0 {
		return fmt.Errorf("mpiio: negative view offset %d", viewOff)
	}
	if len(buf) == 0 {
		return nil
	}
	return f.WriteV(f.runsFor(viewOff, int64(len(buf))), Contig(buf))
}

// Read reads from the individual file pointer and advances it.
func (f *File) Read(buf []byte) error {
	if err := f.ReadAt(buf, f.pos); err != nil {
		return err
	}
	f.pos += int64(len(buf))
	return nil
}

// Write writes at the individual file pointer and advances it.
func (f *File) Write(buf []byte) error {
	if err := f.WriteAt(buf, f.pos); err != nil {
		return err
	}
	f.pos += int64(len(buf))
	return nil
}

// SeekSet sets the individual file pointer (view bytes, absolute).
func (f *File) SeekSet(viewOff int64) error {
	if viewOff < 0 {
		return fmt.Errorf("mpiio: negative seek %d", viewOff)
	}
	f.pos = viewOff
	return nil
}

// Tell returns the individual file pointer.
func (f *File) Tell() int64 { return f.pos }
