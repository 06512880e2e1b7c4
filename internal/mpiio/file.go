// Package mpiio reimplements the slice of MPI-IO that DRX-MP uses:
// independent and collective (read_all/write_all, two-phase) transfers
// over the striped parallel file system, with a shared extent cache and
// write-behind.
//
// A transfer names its file bytes as a list of absolute runs
// (offset, length), which is the representation PVFS's list I/O uses,
// and its memory as an ordered vector of segments (Vec) that the runs'
// bytes fill back-to-back. The paper's Section IV listing builds an
// MPI_Type_indexed filetype of chunk addresses, sets a file view and
// calls MPI_File_read_all; here the chunk addresses are the runs
// handed to ReadAllV directly, so there is no datatype and no view.
package mpiio

import (
	"fmt"
	"sync/atomic"

	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// File is one process's handle on a shared striped file, as MPI_File.
// All processes of the communicator share the same underlying pfs.FS
// and, through it, the same extent cache.
type File struct {
	fs   *pfs.FS
	comm *cluster.Comm

	// knobs is the write-behind and cache policy, set by ApplyTuning
	// only (see TuningKnobs).
	knobs TuningKnobs

	// fc memoizes the shared extent cache. Atomic because the serving
	// tier reads through one handle from concurrent requests (every
	// resolver stores the same per-store instance, so racing stores are
	// idempotent).
	fc atomic.Pointer[fileCache]
}

// cacheConfig projects this handle's policy knobs into the shared
// cache's Configure block. The sieve block is left at the store's
// stripe size, which keeps sieve fetches server-aligned.
func (f *File) cacheConfig() cacheConfig {
	return cacheConfig{
		budget:     f.knobs.CacheBytes,
		readAhead:  f.knobs.ReadAhead,
		spillBytes: f.knobs.SpillBytes,
		spillPath:  f.knobs.SpillPath,
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
// Sync, the stats and the direct writes use it, so a handle that never
// resolved the cache still sees the one the other handles share.
func (f *File) sharedCache() *fileCache {
	c := f.fc.Load()
	if c == nil {
		if c = lookupFileCache(f.fs); c != nil {
			f.fc.Store(c)
		}
	}
	return c
}

// caching reports whether this handle has a cache budget. It is the one
// read rule, on the independent and the collective path alike: with a
// budget, reads go through the shared cache (ReadThrough), which serves
// deferred dirty bytes from memory; without one they go straight to the
// store, and no dirty bytes exist, since write-behind requires a budget.
func (f *File) caching() bool { return f.knobs.CacheBytes > 0 }

// TuningKnobs is ApplyTuning's parameter block: the handle's
// write-behind and extent-cache policy (drxmp.Tuning documents each
// knob). Every rank of a communicator must use the same values.
type TuningKnobs struct {
	// WriteBehind: 0 dispatches each collective write's union runs
	// immediately; > 0 absorbs them into the shared cache as dirty
	// extents and flushes the whole cache once that many bytes are
	// buffered; < 0 buffers without bound (flush on Sync, Close or
	// budget-pressure eviction). Reads through any handle are served
	// the deferred bytes. It requires CacheBytes > 0.
	WriteBehind int64
	// CacheBytes is the shared extent cache's budget, clean and dirty
	// bytes together; 0 turns the cache off and reads and writes go
	// straight to the store.
	CacheBytes int64
	// ReadAhead extends each sieve fetch by this many bytes.
	ReadAhead int64
	// SpillBytes is the budget of the local-disk spill tier evicted
	// extents demote to; 0 disables it.
	SpillBytes int64
	// SpillPath names the spill file; empty selects a temp file.
	SpillPath string
}

// ApplyTuning installs every write-behind and cache knob of the handle in
// one call — the atomic application point behind drxmp.File.SetTuning,
// so a serving tier can swap a whole tenant profile. Write-behind
// requires a cache budget. Turning write-behind, the cache or the spill
// tier off first drains every deferred byte under the OLD configuration
// (the caching sweep is the only path that reads dirty extents back out
// of the spill file), so a cache without a budget never holds a dirty
// byte. The shared cache is then reconfigured once. Enabling the spill
// tier opens the spill file eagerly, so a bad SpillPath fails this call
// rather than silently degrading later.
func (f *File) ApplyTuning(k TuningKnobs) error {
	if k.WriteBehind != 0 && k.CacheBytes <= 0 {
		return fmt.Errorf("mpiio: write-behind %d without a cache budget (deferred writes are the cache's dirty extents)", k.WriteBehind)
	}
	old := f.knobs
	if (k.WriteBehind == 0 && old.WriteBehind != 0) || (k.CacheBytes <= 0 && old.CacheBytes > 0) || (k.SpillBytes <= 0 && old.SpillBytes > 0) {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	f.knobs = k
	var w *fileCache
	if k.SpillBytes > 0 && k.CacheBytes > 0 {
		w = f.cache() // eager: the spill file opens here
	} else if w = f.sharedCache(); w != nil {
		w.Configure(f.cacheConfig())
	}
	if w != nil {
		return w.SpillErr()
	}
	return nil
}

// Sync flushes every buffered dirty extent of the file — all ranks'
// deferred collective writes share one cache — to the file system as
// one vectored flush sweep (MPI_File_sync). The flushed extents stay
// cached (clean), so a post-Sync re-read is warm.
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

// ReadV reads the coalesced runs into mem (their bytes packed
// back-to-back fill its segments in order): through the shared cache
// when the handle has a budget — covered bytes, dirty or clean, come
// from memory and holes are sieve-fetched — and otherwise straight from
// the store, whose servers move the bytes into mem's segments.
func (f *File) ReadV(runs []pfs.Run, mem Vec) error {
	if f.caching() {
		return f.cache().ReadThrough(runs, mem)
	}
	_, err := f.fs.ReadVec(runs, mem)
	return err
}

// WriteV writes the coalesced runs from mem (its segments,
// concatenated, supply the runs' bytes) straight to the store. With a
// shared cache, the write goes through its BeginWrite/EndWrite pair:
// the cache discards its dirty and spilled bytes of the runs before the
// store write and copies the written bytes into its clean copies of
// them after it, so a re-read of what this process just wrote stays
// warm. No-op on the cache without one. A handle with a budget creates
// the cache here if no read has yet, as ReadV would: a read that
// created it while this write was out would otherwise cache the bytes
// the write replaces, and the write would never update them.
func (f *File) WriteV(runs []pfs.Run, mem Vec) error {
	w := f.sharedCache()
	if f.caching() {
		w = f.cache()
	}
	if w == nil {
		_, err := f.fs.WriteVec(runs, mem)
		return err
	}
	g := w.BeginWrite(runs)
	_, err := f.fs.WriteVec(runs, mem)
	w.EndWrite(g, runs, mem, err == nil)
	return err
}

// Open returns a handle on fs for this process. It is collective only
// by convention (no synchronization is needed to open).
func Open(comm *cluster.Comm, fs *pfs.FS) *File {
	return &File{fs: fs, comm: comm}
}

// FS exposes the underlying striped file (stats access in benchmarks).
func (f *File) FS() *pfs.FS { return f.fs }
