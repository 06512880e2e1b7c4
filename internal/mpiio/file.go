// Package mpiio reimplements the slice of MPI-IO that DRX-MP uses:
// independent and collective (read_all/write_all, two-phase) transfers
// over the striped parallel file system, with a shared extent cache.
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
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// File is one process's handle on a shared striped file, as MPI_File.
// All processes of the communicator share the same underlying pfs.FS
// and, through it, the same extent cache.
type File struct {
	fs   *pfs.FS
	comm *cluster.Comm
	t    Tuning // fixed at Open

	// fc is the store's shared extent cache, resolved at Open; nil when
	// the handle has no budget. It is the one rule on the independent and
	// the collective path alike: with a cache, reads go through it
	// (ReadThrough) and writes through its BeginWrite/EndWrite pair;
	// without one both go straight to the store.
	fc *fileCache
}

// Tuning is the performance-knob block of a handle (drxmp's Options
// and OpenOptions embed it) — everything that shapes HOW bytes move,
// none of WHAT they are. It is fixed when the handle opens, as the
// paper's DRXMP_Init and DRXMP_Open fix an array's parameters; to
// change it, close the file and open it again. The zero value is a
// valid default for every field. A collective's aggregator count and
// worker count are rules, not knobs: one aggregator per stripe of
// payload, clamped to [1, nranks], and GOMAXPROCS workers.
type Tuning struct {
	// WriteBehindBytes is ignored: every write goes straight to the
	// store through the cache's direct write path, which lends its holes
	// the cached bytes — cheaper than buffering the writes behind, which
	// kept dirty bytes out of the cache's room for clean blocks and
	// merged none of them. The field stays because the benchmark harness
	// (bench/workloads.go) sets it, and does nothing else.
	WriteBehindBytes int64
	// CacheBytes turns the unified per-file extent cache on with that
	// memory budget in bytes: independent and collective reads fetch
	// sieve-aligned covering blocks (one vectored request per miss) into
	// the cache, hole-free re-reads come from memory, writes keep the
	// cached copies of their bytes up to date and borrow the cached bytes
	// of the holes between their segments, and the budget caps the
	// file's TOTAL cached bytes, evicting LRU-first. 0 (the default)
	// turns the cache off. The cache is shared by every rank's handle on
	// the store, so a block fetched by one rank warms all of them. The
	// sieve block granularity is the stripe size; it is not a knob. Every
	// rank must pass the same value.
	CacheBytes int64
	// ReadAheadBytes extends each sieve fetch past the requested range
	// by this many bytes (rounded up to whole sieve blocks), so a
	// forward sectioned scan finds its next block already cached. 0
	// (the default) disables read-ahead; requires CacheBytes > 0. Every
	// rank must pass the same value.
	ReadAheadBytes int64
	// SpillBytes enables the local-disk spill tier of the extent cache
	// with that byte budget: extents evicted from the CacheBytes memory
	// tier demote to a local spill file instead of dropping, and reads
	// consult memory → spill → pfs with spill hits promoted back under
	// LRU. 0 (the default) disables the tier; requires CacheBytes > 0.
	// Every rank must pass the same value.
	SpillBytes int64
	// SpillPath names the spill file; empty (the default) selects a
	// temp file. The file is created when the cache is and removed when
	// the array's store closes. Meaningful only with SpillBytes > 0.
	SpillPath string
}

// Cached returns the bytes currently held by the file's shared extent
// cache.
func (f *File) Cached() int64 {
	if f.fc != nil {
		return f.fc.Cached()
	}
	return 0
}

// CacheStats returns the cumulative extent-cache accounting for the
// file (hits/misses, sieve fetches, evictions, the spill tier).
func (f *File) CacheStats() CacheStats {
	if f.fc != nil {
		return f.fc.Stats()
	}
	return CacheStats{}
}

// ReadV reads the coalesced runs into mem (their bytes packed
// back-to-back fill its segments in order): through the shared cache
// when the handle has a budget — covered bytes come from memory and
// holes are sieve-fetched — and otherwise straight from
// the store, whose servers move the bytes into mem's segments.
func (f *File) ReadV(runs []pfs.Run, mem Vec) error {
	if f.fc != nil {
		return f.fc.ReadThrough(runs, mem)
	}
	_, err := f.fs.ReadVec(runs, mem)
	return err
}

// WriteV writes the coalesced runs from mem (its segments,
// concatenated, supply the runs' bytes) straight to the store. With a
// cache, the write goes through its BeginWrite/EndWrite pair: the cache
// discards its spilled bytes of the runs before the store write and
// copies the written bytes into its memory copies of them after it, so a re-read of what this process just wrote stays warm.
// The write's guard is also its hole source: the cache lends the store
// write the clean bytes of the holes between its segments, which the
// servers store back with them, one request per joined stretch.
func (f *File) WriteV(runs []pfs.Run, mem Vec) error {
	if f.fc == nil {
		_, err := f.fs.WriteVec(runs, mem)
		return err
	}
	g := f.fc.BeginWrite(runs)
	_, err := f.fs.WriteVecFrom(runs, mem, g)
	f.fc.EndWrite(g, runs, mem, err == nil)
	return err
}

// Open returns a handle on fs for this process, with t fixed for its
// lifetime; t must already be validated (drxmp does, and wraps its
// errors in ErrBadOptions). It is collective only by convention (no
// synchronization is needed to open). With t.CacheBytes > 0 the handle
// takes the store's shared extent cache: the first such Open on the
// store creates it, and its spill file, under t, and every later handle
// gets the same cache — or the same error, when the spill file could
// not be opened. Every handle on one store must pass the same t.
func Open(comm *cluster.Comm, fs *pfs.FS, t Tuning) (*File, error) {
	f := &File{fs: fs, comm: comm, t: t}
	if t.CacheBytes > 0 {
		fc, err := sharedFileCache(fs, t)
		if err != nil {
			return nil, err
		}
		f.fc = fc
	}
	return f, nil
}

// Tuning returns the policy the handle was opened with.
func (f *File) Tuning() Tuning { return f.t }

// FS exposes the underlying striped file (stats access in benchmarks).
func (f *File) FS() *pfs.FS { return f.fs }
