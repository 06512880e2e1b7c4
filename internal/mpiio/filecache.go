package mpiio

import (
	"slices"
	"sort"
	"sync"

	"drxmp/internal/extent"
	"drxmp/internal/pfs"
	"drxmp/internal/spill"
)

// Unified per-file extent cache: the write-behind machinery of PR 4
// (dirty extents absorbed from collective writes, flushed in vectored
// pfs.FlushV sweeps) generalized into ONE cache holding clean and
// dirty extents, so the same data structure serves both directions of
// the out-of-core access pattern — deferred writes out, data-sieved
// reads in.
//
//   - Dirty extents are deferred collective-write bytes (File.WriteBehind).
//     They flush on the watermark, Sync, Close, read coherence (when
//     clean caching is off), or budget-pressure eviction.
//   - Clean extents are sieve-block read fetches (File.CacheBytes > 0):
//     a read fetches the covering extent rounded to sieve-aligned
//     blocks as one vectored pfs.SieveReadV, serves the caller from it,
//     and keeps it so hole-free re-reads come from memory. Read-ahead
//     (File.ReadAhead) extends each fetch past the requested range so
//     a sectioned forward scan finds its next block already cached.
//
// Invariants and coherence (generalizing the PR 4 rules):
//
//   - The cache is SHARED by every handle opened on the same pfs.FS
//     (one cache per file): aggregators on every rank absorb into it,
//     reads through any rank's handle observe every rank's deferred
//     bytes, and a sieve block fetched by one rank warms every rank.
//   - Extents are sorted by offset and pairwise disjoint. Dirty extents
//     are additionally non-adjacent to each other (absorbs merge);
//     clean extents may sit adjacent to anything.
//   - Writes PUNCH overlapping extents of either color — stale clean
//     data may not survive the write that superseded it, exactly as
//     stale dirty data may not (collective writes punch their global
//     union once via PunchOnce, independent writes punch their runs).
//   - Reads with clean caching enabled go through ReadThrough, which
//     serves dirty bytes straight from memory — no coherence flush is
//     needed because a flush never removes data from a caching cache:
//     FlushAll/FlushIntersecting write the dirty bytes back and mark
//     the extents clean IN PLACE, so there is no window where a byte
//     is in neither the cache nor the store. With clean caching off
//     (budget 0) the cache degenerates to the PR 4 write-behind cache:
//     reads flush intersecting dirty extents and go to the store, and
//     flushes remove what they wrote (flushMu closes the window).
//   - The memory budget (CacheBytes) caps the TOTAL cached bytes.
//     Over budget, clean extents evict in LRU order; if the dirty
//     bytes alone exceed the budget, the least-recently-used dirty
//     extents flush-on-evict through the same vectored pfs.FlushV
//     sweep and then evict as clean.
//   - Every in-flight sieve fetch holds a GUARD that collects the
//     ranges punched, absorbed or restored while its store read is out;
//     the fetch serves its caller but inserts only outside those ranges,
//     so pre-write store bytes can never enter the cache as clean — and
//     a write to a disjoint range costs the fetch nothing.
//
// Cost: the extent list stays a sorted slice, searched by galloping
// binary search and punched by one vectored window splice
// (extent.Find/PunchV); recency lives in two lazy heaps, clean and
// dirty (extent.LRU), which double as the "still resident" mark. So a
// punch, absorb, hit, miss, eviction or flush-mark costs O(log N +
// extents touched) — never a walk, sort or rebuild of all N extents.
//
// Tiering (PR 9): with Tuning.SpillBytes set, eviction DEMOTES instead
// of dropping — clean victims (and, under dirty-only budget pressure,
// LRU dirty extents) move to a local-disk spill tier (internal/spill),
// and ReadThrough consults memory → spill → pfs, promoting spill hits
// back into memory under the same LRU. The tiers stay disjoint: an
// offset is covered by at most one tier (demote and promote move
// extents under one mu critical section; spill.Put punches its own
// overlaps; every cache punch punches both tiers), so the fetch
// planner can treat "memory ∪ spill coverage" as THE cached set and
// clip speculative sieve/read-ahead fetches against it — a stale store
// byte must never shadow a newer spilled byte. Dirty bytes in the
// spill tier still count toward Bytes() (the write-behind watermark)
// and flush in the same vectored FlushV sweep as the memory tier's
// (CollectDirty reads them back, MarkClean settles them by entry id so
// a mid-sweep punch keeps its remainder dirty).
//
// Memory (filecache_mem.go): the cache owns every byte it holds. Each
// extent's data is a sub-slice of a cache buffer (cbuf) taken from the
// cache's free lists — one per power-of-two size class, a piece of n
// bytes getting a buffer of n to 2n, so a 1 KB piece takes about 1 KB
// and a sieve block a block — or made, exactly n bytes, when no free
// buffer fits. Sieve fetches land straight in such buffers, spill
// read-backs are read into them, and Absorb and the dirty merge copy
// into them; nothing else is cached. A buffer is referenced by its
// resident extents — punch remainders share their parent's — and by
// PINS, one per reader that uses it outside mu: a flush sweep pins its
// victims and its spill chunks, a fetch the buffers it reads into,
// until its store call has returned. Only an extent leaving the cache
// (remove, takeLocked, a punch, a merge) gives up its reference;
// marking an extent clean after a sweep does not. The last reference
// frees the buffer, so a punch links its remainders before it lets go
// of the punched extent, and eviction demotes before it removes. The
// free lists hold at most the memory budget in bytes: past it, the
// longest-free buffers go to the garbage collector, and in wb-only mode
// every freed one does.

// cext is one cached byte range and its buffered data (len(data) ==
// length of the range; data is a sub-slice of buf, and off and data
// never change).
type cext struct {
	off   int64
	data  []byte
	buf   *cbuf
	dirty bool
	use   int64          // LRU stamp (fileCache.clock at last touch)
	node  extent.LRUNode // linked in fileCache.lru[color] exactly while resident
}

func (e *cext) end() int64            { return e.off + int64(len(e.data)) }
func (e *cext) Span() pfs.Run         { return pfs.Run{Off: e.off, Len: int64(len(e.data))} }
func (e *cext) Stamp() int64          { return e.use }
func (e *cext) Node() *extent.LRUNode { return &e.node }

// color indexes fileCache.lru: 0 clean, 1 dirty.
func (e *cext) color() int {
	if e.dirty {
		return 1
	}
	return 0
}

// CacheStats is the cumulative accounting of a file's extent cache
// (never reset; Sub snapshots for phase measurement).
type CacheStats struct {
	Absorbed     int64 // dirty bytes absorbed from collective writes
	Flushes      int64 // flush sweeps issued
	Hits         int64 // ReadThrough calls served entirely from memory
	Misses       int64 // ReadThrough calls that fetched at least one hole
	HitBytes     int64 // bytes served from cached extents
	MissBytes    int64 // requested bytes that had to be fetched
	SieveFetched int64 // bytes fetched by sieve reads (>= MissBytes: rounding + read-ahead)
	Evicted      int64 // clean bytes evicted by the memory budget
	FlushEvicted int64 // dirty bytes flushed by budget pressure

	// Spill tier (all zero when Tuning.SpillBytes is 0).
	SpillDemoted  int64 // bytes demoted from memory into the spill tier
	SpillPromoted int64 // bytes promoted back from the spill tier
	SpillHits     int64 // ReadThrough calls served partly from the spill tier
	SpillHitBytes int64 // requested bytes that hit the spill tier
	SpillRejected int64 // demotions the spill tier refused (budget/disk)
	SpillUsed     int64 // gauge: live spilled bytes right now
	SpillDirty    int64 // gauge: dirty spilled bytes right now

	// Retunes is always zero: the sieve block and read-ahead are fixed by
	// the stripe size and Tuning.ReadAheadBytes, and nothing re-derives
	// them. The field stays because the benchmark harness reports it.
	Retunes        int64
	SieveSize      int64 // gauge: effective sieve block size
	ReadAheadBytes int64 // gauge: effective read-ahead
}

// Sub returns s - t field-wise for the cumulative counters; the gauges
// (SpillUsed, SpillDirty, SieveSize, ReadAheadBytes) keep s's current
// values — a delta of an instantaneous reading is meaningless.
func (s CacheStats) Sub(t CacheStats) CacheStats {
	return CacheStats{
		Absorbed:     s.Absorbed - t.Absorbed,
		Flushes:      s.Flushes - t.Flushes,
		Hits:         s.Hits - t.Hits,
		Misses:       s.Misses - t.Misses,
		HitBytes:     s.HitBytes - t.HitBytes,
		MissBytes:    s.MissBytes - t.MissBytes,
		SieveFetched: s.SieveFetched - t.SieveFetched,
		Evicted:      s.Evicted - t.Evicted,
		FlushEvicted: s.FlushEvicted - t.FlushEvicted,

		SpillDemoted:  s.SpillDemoted - t.SpillDemoted,
		SpillPromoted: s.SpillPromoted - t.SpillPromoted,
		SpillHits:     s.SpillHits - t.SpillHits,
		SpillHitBytes: s.SpillHitBytes - t.SpillHitBytes,
		SpillRejected: s.SpillRejected - t.SpillRejected,
		SpillUsed:     s.SpillUsed,
		SpillDirty:    s.SpillDirty,

		Retunes:        s.Retunes - t.Retunes,
		SieveSize:      s.SieveSize,
		ReadAheadBytes: s.ReadAheadBytes,
	}
}

// fileCache is the shared per-file extent cache. All methods are safe
// for concurrent use (every rank's handle, and the close-flusher the
// cache registers with the pfs store, share it).
//
// Lock order: flushMu before mu, never the reverse. flushMu serializes
// flush sweeps END TO END; in wb-only mode (no clean caching) it
// additionally closes the removed-but-not-yet-written window exactly
// as in PR 4 — a reader's FlushIntersecting blocks until the in-flight
// sweep is durable.
type fileCache struct {
	fs *pfs.FS

	flushMu sync.Mutex // serializes flush sweeps (see above)

	mu       sync.Mutex
	ext      []*cext              // sorted by off, pairwise disjoint
	lru      [2]extent.LRU[*cext] // recency order of the clean [0] and dirty [1] extents
	tmp      []*cext              // PunchV's window scratch
	dirty    int64                // buffered dirty bytes
	total    int64                // buffered bytes, clean + dirty
	arrivals int                  // ranks arrived at PunchOnce in this collective
	guards   []*fetchGuard        // the sieve fetches in flight
	clock    int64                // LRU clock

	// Cache memory (filecache_mem.go): the free buffers by size class,
	// their bytes (at most budget), the clock that orders their freeing,
	// the unused headers of the newest header slab, and the spill tier's
	// Alloc over the buffers.
	free      [64][]*cbuf
	freeBytes int64
	freeClock int64
	hdrs      []cbuf
	lend      spill.Alloc

	sweep flushList // a flush sweep's request list, reused; flushMu guards it

	// Policy (Configure): shared, so every handle on the store must
	// agree — the same rule as every other collective knob.
	budget    int64 // max total bytes; 0 disables clean caching (wb-only)
	sieve     int64 // sieve block size; 0 = stripe size
	readAhead int64 // extra fetch bytes past each miss; 0 = none

	// Spill tier. spill stays nil until a Configure with positive
	// spillBytes (and an active budget) opens it; spillErr is the sticky
	// open failure, retried only when the spill config changes.
	spill      *spill.Store
	spillBytes int64
	spillPath  string
	spillErr   error

	stats CacheStats
}

// cacheConfig is the policy block Configure installs — the cache-side
// projection of drxmp.Tuning. Handles re-apply it on every resolve;
// every rank must agree (last writer wins).
type cacheConfig struct {
	budget     int64 // memory budget; 0 disables clean caching
	sieve      int64 // sieve block; 0 = stripe size
	readAhead  int64 // read-ahead; 0 = none
	spillBytes int64 // spill-tier budget; 0 disables the tier
	spillPath  string
}

func newFileCache(fs *pfs.FS) *fileCache {
	w := &fileCache{fs: fs}
	w.lend = w.lendBuf
	return w
}

// fcAuxKey is the cache's slot in the store's Aux map — per-store
// state, so the cache's lifetime is exactly the store's.
const fcAuxKey = "mpiio.filecache"

// sharedFileCache returns the store's shared cache, creating it (and
// registering its flush-before-drain hook with FS.Close) on first use.
func sharedFileCache(fs *pfs.FS) *fileCache {
	return fs.Aux(fcAuxKey, func() any {
		w := newFileCache(fs)
		// The ordering guarantee on FS.Close: the cache drains through
		// the still-open queues before Close drains them (and only then
		// releases its spill file — the sweep reads dirty bytes back
		// from it).
		fs.AddCloseFlusher(w.closeHook)
		return w
	}).(*fileCache)
}

// lookupFileCache returns the store's shared cache without creating one.
func lookupFileCache(fs *pfs.FS) *fileCache {
	if v := fs.AuxLookup(fcAuxKey); v != nil {
		return v.(*fileCache)
	}
	return nil
}

// closeHook is the cache's FS.Close flusher: drain every deferred byte
// of both tiers (FlushAll's sweep reads dirty spilled bytes back from
// the spill file), then release the spill file itself, so a closed
// store never leaks a local temp file.
func (w *fileCache) closeHook() error {
	err := w.FlushAll()
	w.mu.Lock()
	sp := w.spill
	w.spill = nil
	w.mu.Unlock()
	if sp != nil {
		if cerr := sp.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Configure installs the cache policy. Handles re-apply their knobs on
// every resolve; every rank must use the same values (last writer
// wins). Dropping the budget to 0 returns the cache to wb-only mode
// and releases every clean extent. A positive spillBytes (with an
// active budget) opens the spill tier on first application; an open
// failure is sticky (SpillErr) until the spill config changes.
// Disabling the tier releases the spill file once nothing dirty
// remains inside (ApplyTuning flushes before disabling, so that is
// immediate on the tuning path).
func (w *fileCache) Configure(cfg cacheConfig) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.budget, w.sieve, w.readAhead = cfg.budget, cfg.sieve, cfg.readAhead
	if cfg.spillBytes != w.spillBytes || cfg.spillPath != w.spillPath {
		w.spillErr = nil // config changed: a failed open may retry
		if w.spill != nil && w.spill.Dirty() == 0 {
			w.spill.Close()
			w.spill = nil
		}
	}
	w.spillBytes, w.spillPath = cfg.spillBytes, cfg.spillPath
	if w.spillBytes > 0 && w.budget > 0 {
		if w.spill == nil && w.spillErr == nil {
			w.spill, w.spillErr = spill.Open(w.spillPath, w.spillBytes)
		}
	} else if w.spill != nil && w.spill.Dirty() == 0 {
		w.spill.Close()
		w.spill = nil
	}
	if cfg.budget <= 0 {
		w.stats.Evicted += w.total - w.dirty
		w.takeLocked(slices.Clone(w.lru[0].Items()))
	}
	for w.freeBytes > w.budget { // a lowered budget
		w.dropOldest()
	}
}

// caching reports whether clean-extent caching (data sieving) is on.
func (w *fileCache) caching() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.budget > 0
}

// SpillErr returns the sticky spill-tier open failure, if any — the
// handle surfaces it through ApplyTuning so a bad SpillPath fails the
// open/SetTuning call instead of silently degrading.
func (w *fileCache) SpillErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.spillErr
}

// sieveSize resolves the effective sieve block granularity (the
// configured block, else the stripe size). Must be called with w.mu
// held.
func (w *fileCache) sieveSize() int64 {
	if w.sieve > 0 {
		return w.sieve
	}
	return w.fs.StripeSize()
}

// Bytes returns the currently buffered dirty bytes — BOTH tiers, so
// the write-behind watermark counts every deferred byte no matter
// where it is staged.
func (w *fileCache) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dirtyLocked()
}

func (w *fileCache) dirtyLocked() int64 {
	if w.spill != nil {
		return w.dirty + w.spill.Dirty()
	}
	return w.dirty
}

// Cached returns the currently buffered total bytes (clean + dirty).
func (w *fileCache) Cached() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Stats returns a snapshot of the cumulative cache accounting, with
// the gauge fields (spill occupancy, effective sieve/read-ahead)
// filled from the current state.
func (w *fileCache) Stats() CacheStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.SieveSize = w.sieveSize()
	st.ReadAheadBytes = w.readAhead
	if w.spill != nil {
		st.SpillUsed = w.spill.Used()
		st.SpillDirty = w.spill.Dirty()
	}
	return st
}

// Absorb merges the dirty run [off, off+len(p)) into the cache,
// last-writer-wins where it overlaps existing extents: overlapping
// clean ranges are punched (the write supersedes them), overlapping or
// adjacent dirty extents merge. The cache copies p into its own memory;
// the caller keeps p. Callers grow the cache; they must follow up with
// EnforceBudget.
func (w *fileCache) Absorb(off int64, p []byte) {
	if len(p) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats.Absorbed += int64(len(p))
	w.clock++
	w.punchLocked([]pfs.Run{{Off: off, Len: int64(len(p))}}, true)
	w.mergeDirtyLocked(off, p, nil, w.clock)
}

// mergeDirtyLocked enters the dirty run [off, off+len(p)) — which no
// clean extent overlaps — merging it with the dirty extents it overlaps
// or touches, its own bytes winning. Absorbs, dirty promotions and
// restores all enter here, which is what keeps dirty extents
// non-adjacent. b is the cache buffer p lies in, which a run that
// merges with nothing keeps; with b nil, p is the caller's and is
// copied. Must be called with w.mu held.
func (w *fileCache) mergeDirtyLocked(off int64, p []byte, b *cbuf, use int64) {
	end := off + int64(len(p))
	// [i, j) is the range of dirty extents overlapping or adjacent to
	// the run. Clean extents may touch its boundaries; they stay out of
	// the merge.
	i := extent.Find(w.ext, off-1, 0) // first extent ending at or past off
	if i < len(w.ext) && !w.ext[i].dirty && w.ext[i].end() == off {
		i++ // left-adjacent clean extent: not merged
	}
	j := i
	for j < len(w.ext) && w.ext[j].off <= end {
		j++
	}
	if j > i && !w.ext[j-1].dirty && w.ext[j-1].off == end {
		j-- // right-adjacent clean extent: not merged
	}
	if i == j {
		// Disjoint from all dirty extents: plain insert.
		if b == nil {
			b = w.getBuf(int64(len(p)))
			p = b.b[:copy(b.b, p)]
		}
		w.ext = slices.Insert(w.ext, i, w.link(newExt(off, p, b, true, use)))
		return
	}
	lo, hi := off, end
	if w.ext[i].off < lo {
		lo = w.ext[i].off
	}
	if e := w.ext[j-1].end(); e > hi {
		hi = e
	}
	mb := w.getBuf(hi - lo)
	merged := mb.b[:hi-lo]
	for _, e := range w.ext[i:j] {
		copy(merged[e.off-lo:], e.data)
	}
	copy(merged[off-lo:], p) // new data last: last writer wins
	for _, e := range w.ext[i:j] {
		w.leave(e)
	}
	w.ext = slices.Replace(w.ext, i, j, w.link(newExt(lo, merged, mb, true, use)))
}

// link books a new extent and enters it in its color's recency heap;
// unlink is the inverse, and leaves e marked not resident
// (e.node.Linked() is false from then on). Neither touches w.ext or
// e's buffer reference, so marking an extent clean is an unlink and a
// link. leave is an extent leaving the cache: unlinked, and its buffer
// reference given up; remove also takes it out of w.ext, and insert is
// an arrival's link plus its place in w.ext. All of them need w.mu held.
func (w *fileCache) link(e *cext) *cext {
	w.total += int64(len(e.data))
	if e.dirty {
		w.dirty += int64(len(e.data))
	}
	w.lru[e.color()].Push(e)
	return e
}

func (w *fileCache) unlink(e *cext) {
	w.total -= int64(len(e.data))
	if e.dirty {
		w.dirty -= int64(len(e.data))
	}
	w.lru[e.color()].Remove(e)
}

func (w *fileCache) insert(e *cext) { w.ext = extent.Insert(w.ext, w.link(e)) }
func (w *fileCache) remove(e *cext) { w.leave(e); w.ext = extent.Delete(w.ext, e) }
func (w *fileCache) leave(e *cext)  { w.unlink(e); w.unref(e.buf) }

// takeLocked removes a batch of resident extents in one pass over the
// list (the wb-only flushes, which pin them and write them back
// afterwards, and Configure's release of every clean extent).
func (w *fileCache) takeLocked(victims []*cext) {
	if len(victims) == 0 {
		return
	}
	for _, e := range victims {
		w.leave(e)
	}
	w.ext = slices.DeleteFunc(w.ext, func(e *cext) bool { return !e.node.Linked() })
}

// PunchOnce punches every run of a collective write's global union,
// exactly once per collective: every rank calls it (in lockstep
// program order, before its exchange phase) with the communicator
// size, the FIRST arrival executes the punch, and later arrivals —
// which may already have raced past other ranks' absorbs — are
// no-ops; the nranks-th arrival resets the counter for the next
// collective. Arrival counting needs no per-handle state, so handles
// opened at different times on the same store stay correct. It relies
// on collectives being serialized per file (every rank leaves
// collective k through its agreement round before any enters k+1), so
// arrivals of different collectives never interleave. The guard and
// the punches form ONE critical section: a skipped rank may proceed
// straight to its absorb, and the executed punch must be complete —
// not in flight — by then, or it would destroy freshly absorbed
// bytes.
func (w *fileCache) PunchOnce(nranks int, runs []pfs.Run) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.arrivals == 0 {
		w.punchLocked(runs, false)
	}
	w.arrivals++
	if w.arrivals >= nranks {
		w.arrivals = 0
	}
}

// PunchV discards the cached bytes of every run, clean and dirty alike,
// in both tiers and under one lock hold: extents fully inside a run are
// dropped, extents straddling a boundary are trimmed or split. Used by
// independent writes, before the store write (the file copy is about to
// become newer than the cache) and again after it (File.postWrite).
//
// A flush sweep that picked up dirty bytes of these runs before the
// punch may still be writing them, and the caller's store write has to
// land AFTER it or the sweep's older bytes would win on the store. So a
// punch that discarded dirty bytes waits out the sweeps in flight — as
// does every punch in wb-only mode, where a sweep's victims have
// already left the cache and cannot be seen here.
func (w *fileCache) PunchV(runs []pfs.Run) {
	w.mu.Lock()
	was := w.dirtyLocked()
	w.punchLocked(runs, false)
	wait := w.budget <= 0 || w.dirtyLocked() < was
	w.mu.Unlock()
	if wait {
		w.flushMu.Lock()
		w.flushMu.Unlock() // a barrier, not a critical section
	}
}

// punchLocked removes runs from the cached extents; cleanOnly restricts
// the memory tier to clean extents (the absorb path, which merges dirty
// overlaps itself). Untouched extents keep their identity (pointer),
// which the flush paths rely on; trimmed remainders are new extents
// sharing the old buffer, linked before the punched extent lets go of
// it (the other order could free it under them). Every punch means
// "this range is about to be superseded", so the fetches in flight
// learn of it and the spill tier loses it too — all colors even on the
// cleanOnly path (an absorb's new dirty bytes supersede older spilled
// dirty bytes exactly as they supersede clean ones; the memory-side
// dirty overlap is what merges, and it is never in the spill tier at
// the same time).
func (w *fileCache) punchLocked(runs []pfs.Run, cleanOnly bool) {
	w.noteWrite(runs...)
	if w.spill != nil {
		w.spill.PunchV(runs)
	}
	w.ext, w.tmp = extent.PunchV(w.ext, w.tmp, runs, func(e *cext, hole pfs.Run, out []*cext) []*cext {
		if cleanOnly && e.dirty {
			return append(out, e)
		}
		if e.off < hole.Off { // keep the left remainder
			out = append(out, w.link(newExt(e.off, e.data[:hole.Off-e.off], e.buf, e.dirty, e.use)))
		}
		if end := hole.End(); e.end() > end { // keep the right remainder
			out = append(out, w.link(newExt(end, e.data[end-e.off:], e.buf, e.dirty, e.use)))
		}
		w.leave(e)
		return out
	})
}

// pickDirty returns the dirty extents overlapping any of runs, one
// windowed lookup per run (runs arrive sorted and coalesced; an extent
// spanning two of them is picked once). Must be called with w.mu held.
func (w *fileCache) pickDirty(runs []pfs.Run) []*cext {
	var out []*cext
	at := 0
	for _, r := range runs {
		i, j := extent.Window(w.ext, r, at)
		for _, e := range w.ext[i:j] {
			if e.dirty && (len(out) == 0 || out[len(out)-1] != e) {
				out = append(out, e)
			}
		}
		at = i
	}
	return out
}

// FlushAll writes every dirty extent back as one vectored flush sweep.
// With clean caching on, the flushed extents stay in the cache marked
// clean (a Sync leaves the cache warm); in wb-only mode they are
// removed, as in PR 4. A cache with nothing dirty is a no-op.
func (w *fileCache) FlushAll() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	return w.flushLocked(slices.Clone(w.lru[1].Items()))
}

// FlushIntersecting writes back exactly the dirty extents that overlap
// any of runs — the read-coherence sweep of wb-only mode. Extents
// outside the queried ranges stay buffered. In wb-only mode the
// flushed extents are removed, and holding flushMu for the whole sweep
// means a reader whose coherence check races another flush blocks
// until that flush's bytes are durable, instead of reading the store
// in the removed-but-not-yet-written window. With clean caching on the
// flushed extents stay, marked clean (no window exists to protect), and
// the sweep also drains the spill tier's dirty bytes (all of them, not
// just the intersecting ones — flushing deferred bytes early is always
// safe, and it keeps the sweep one vectored FlushV).
func (w *fileCache) FlushIntersecting(runs []pfs.Run) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	return w.flushLocked(w.pickDirty(runs))
}

// flushLocked is the one flush sweep behind FlushAll and
// FlushIntersecting, over victims the caller picked (a slice of its own,
// in any order). Entered with flushMu and w.mu held; releases w.mu.
//
// With clean caching on it writes the victims — plus every dirty extent
// of the spill tier, read back from the spill file — as one vectored
// sweep and marks them clean IN PLACE, so the data never leaves the cache
// mid-flush (readers stay coherent without taking flushMu). A victim
// punched or re-absorbed during the sweep (no longer resident in
// memory, a new entry id in the spill tier) is skipped: its replacement
// keeps its own dirtiness and flushes later.
//
// In wb-only mode the victims leave the cache before the sweep; if it
// fails their bytes go back (restoreDirtyLocked), so a failed flush
// keeps the dirty data buffered for a retry instead of silently
// dropping it.
//
// Either way every buffer the sweep reads — the victims' and the spill
// chunks' — is pinned until FlushV has returned: without mu, a punch or
// eviction (in wb-only mode, the take itself) may let go of a victim,
// and a freed buffer is the next taker's to overwrite.
func (w *fileCache) flushLocked(victims []*cext) error {
	for _, e := range victims {
		w.pin(e.buf)
	}
	wbOnly := w.budget <= 0
	var chunks []spill.Chunk
	if wbOnly {
		w.takeLocked(victims)
	} else if w.spill != nil && w.spill.Dirty() > 0 {
		var err error
		if chunks, err = w.spill.CollectDirty(w.lend); err != nil {
			w.unpinSweep(victims, nil)
			w.mu.Unlock()
			return err
		}
		for _, c := range chunks {
			w.pin(c.Owner.(*cbuf))
		}
	}
	if len(victims) == 0 && len(chunks) == 0 {
		w.mu.Unlock()
		return nil
	}
	w.stats.Flushes++
	w.mu.Unlock()
	err := w.flushExtents(victims, chunks)
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.unpinSweep(victims, chunks)
	if err != nil {
		if wbOnly {
			w.restoreDirtyLocked(victims)
		}
		return err
	}
	if wbOnly {
		return nil
	}
	for _, e := range victims {
		if e.node.Linked() && e.dirty {
			w.unlink(e)
			e.dirty = false
			w.link(e)
		}
	}
	if w.spill != nil && len(chunks) > 0 {
		ids := make([]int64, len(chunks))
		for i, c := range chunks {
			ids[i] = c.ID
		}
		w.spill.MarkClean(ids)
	}
	w.evictCleanLocked()
	return nil
}

// unpinSweep releases a sweep's pins. Must be called with w.mu held.
func (w *fileCache) unpinSweep(victims []*cext, chunks []spill.Chunk) {
	for _, e := range victims {
		w.unpin(e.buf)
	}
	for _, c := range chunks {
		w.unpin(c.Owner.(*cbuf))
	}
}

// restoreDirtyLocked reinserts extents that a wb-only flush removed from
// the cache before its FlushV sweep failed, so the dirty bytes survive
// for a retry. Each extent's bytes return dirty only where the cache is
// currently uncovered: anything absorbed since the removal is newer and
// wins. The sweep still pins the extents' buffers, so their bytes are
// intact, and a restored range that merges with nothing keeps its
// buffer. Must be called with w.mu held.
func (w *fileCache) restoreDirtyLocked(ext []*cext) {
	for _, e := range ext {
		for _, g := range w.uncovered(e.Span()) {
			w.clock++
			w.mergeDirtyLocked(g.Off, e.data[g.Off-e.off:g.End()-e.off], e.buf, w.clock)
			w.noteWrite(g)
		}
	}
}

// flushExtents issues one vectored FlushV covering the given memory
// extents plus the spill-tier chunks, sorted together by offset. Each
// one's bytes are the memory segment of its run, so nothing is packed;
// the caller's pins keep those bytes in place without mu. The two tiers
// are disjoint, so the merged run list stays pairwise disjoint.
func (w *fileCache) flushExtents(ext []*cext, chunks []spill.Chunk) error {
	l := &w.sweep
	for _, e := range ext {
		l.add(e.off, e.data)
	}
	for _, c := range chunks {
		l.add(c.Off, c.Data)
	}
	sort.Sort(l)
	_, err := w.fs.FlushV(l.runs, l.segs)
	l.reset()
	return err
}

// flushList is a sweep's request list, sortable by offset: one run per
// extent or spill chunk, whose bytes are the run's memory segment.
type flushList struct {
	runs []pfs.Run
	segs pfs.Segs
}

func (l *flushList) add(off int64, p []byte) {
	l.runs = append(l.runs, pfs.Run{Off: off, Len: int64(len(p))})
	l.segs = append(l.segs, p)
}

// reset empties the list for the next sweep and lets go of its bytes.
func (l *flushList) reset() {
	clear(l.segs)
	l.runs, l.segs = l.runs[:0], l.segs[:0]
}

func (l *flushList) Len() int           { return len(l.runs) }
func (l *flushList) Less(i, j int) bool { return l.runs[i].Off < l.runs[j].Off }
func (l *flushList) Swap(i, j int) {
	l.runs[i], l.runs[j] = l.runs[j], l.runs[i]
	l.segs[i], l.segs[j] = l.segs[j], l.segs[i]
}

// evictCleanLocked removes clean extents, least recently used first
// (ties by offset), until the cache fits its budget or only dirty
// extents remain — at O(log N) per victim. With the spill tier on,
// eviction DEMOTES: each victim's bytes move to the spill file before
// the memory copy drops (and its buffer with it), so a warm working set
// larger than RAM re-reads from local disk instead of the pfs (a
// refused demote — spill budget full, disk failure — degrades to the
// plain drop). Must be called with w.mu held.
func (w *fileCache) evictCleanLocked() {
	for w.budget > 0 && w.total > w.budget {
		e, ok := w.lru[0].Min()
		if !ok {
			return
		}
		n := int64(len(e.data))
		w.stats.Evicted += n
		if w.spill != nil {
			if w.spill.Put(e.off, e.data, false) {
				w.stats.SpillDemoted += n
			} else {
				w.stats.SpillRejected++
			}
		}
		w.remove(e)
	}
}

// EnforceBudget brings the cache back under its memory budget: clean
// extents evict LRU-first; if the dirty bytes alone exceed the budget,
// the least-recently-used dirty extents flush-on-evict as one vectored
// FlushV sweep and then leave as clean. Growth paths (Absorb sequences,
// ReadThrough inserts) call it after releasing mu.
func (w *fileCache) EnforceBudget() error {
	w.mu.Lock()
	w.evictCleanLocked()
	// Dirty bytes alone exceed the memory budget: with the spill tier
	// on, demote LRU dirty extents to local disk first — write-behind
	// keeps buffering far past RAM and the flush sweep reads them back
	// from the spill file — falling back to flush-on-evict for whatever
	// the spill tier cannot take (its budget may itself be full of
	// dirty bytes, which it never drops).
	for w.spill != nil && w.budget > 0 && w.total > w.budget {
		e, _ := w.lru[1].Min() // over budget with no clean extent left: a dirty one exists
		if !w.spill.Put(e.off, e.data, true) {
			w.stats.SpillRejected++
			break
		}
		w.stats.SpillDemoted += int64(len(e.data))
		w.remove(e)
	}
	over := w.budget > 0 && w.total > w.budget
	w.mu.Unlock()
	if !over {
		return nil
	}
	// Flush-on-evict: unlink the coldest dirty extents until the rest
	// fits, then link them back — they stay resident and dirty until the
	// sweep has written them.
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	var victims []*cext
	var vbytes int64
	for w.total-vbytes > w.budget {
		e, ok := w.lru[1].Min()
		if !ok {
			break
		}
		w.lru[1].Remove(e)
		victims = append(victims, e)
		vbytes += int64(len(e.data))
	}
	for _, e := range victims {
		w.lru[1].Push(e)
	}
	w.stats.FlushEvicted += vbytes
	return w.flushLocked(victims) // unlocks w.mu; evicts the marked-clean victims
}

// hole is one uncached sub-range of a ReadThrough request and its
// position in the caller's packed transfer.
type hole struct {
	off, n, bufAt int64
}

// fetchGuard is one sieve fetch in flight: wrote collects every range
// punched, absorbed or restored while the store read is out (under
// w.mu), and the fetch inserts only outside them.
type fetchGuard struct{ wrote []pfs.Run }

// uncovered returns the sub-ranges of span that neither tier holds, at
// the cost of the extents inside span. Both tiers are "already cached":
// block rounding and read-ahead must not re-fetch a spilled range —
// worse than wasted I/O, the store bytes would be STALE wherever the
// spilled extent is a deferred dirty write. Must be called with w.mu
// held.
func (w *fileCache) uncovered(span pfs.Run) []pfs.Run {
	i, j := extent.Window(w.ext, span, 0)
	cover := make([]pfs.Run, 0, j-i)
	for _, e := range w.ext[i:j] {
		cover = append(cover, e.Span())
	}
	if w.spill != nil {
		if cover = w.spill.Covered(span, cover); len(cover) > j-i {
			cover = extent.Coalesce(cover) // merge the two sorted, disjoint lists
		}
	}
	return extent.Holes(span, cover)
}

// ReadThrough serves a vectored read (runs packed back-to-back into
// mem's segments) through the cache: bytes covered by cached extents — clean or
// dirty — copy straight from memory, and the uncovered holes are
// fetched from the store as ONE vectored SieveReadV of sieve-aligned
// blocks (plus the read-ahead extension), which then populate the
// cache as clean extents for the next reader. Requires clean caching
// (budget > 0); File.ReadV and the collective aggregateRead route
// through here when it is on.
func (w *fileCache) ReadThrough(runs []pfs.Run, mem Vec) error {
	// Phase 1: serve what the cache covers, collect the holes. Spill
	// hits promote FIRST — still under this same mu hold, so the hole
	// computation below sees the promoted extents as ordinary memory
	// coverage and the two tiers never cover a byte twice.
	w.mu.Lock()
	w.clock++
	stamp := w.clock
	var promoted bool
	if w.spill != nil {
		var hitSpill int64
		for _, r := range runs {
			n, err := w.promoteLocked(r.Off, r.Len, stamp)
			if err != nil {
				w.mu.Unlock()
				return err
			}
			hitSpill += n
		}
		if hitSpill > 0 {
			promoted = true
			w.stats.SpillHits++
			w.stats.SpillHitBytes += hitSpill
		}
	}
	var holes []hole
	var at, hitBytes int64
	k := 0
	cur := pfs.Cursor{Mem: mem} // hits land in packed order; holes are skipped
	for _, r := range runs {
		rEnd := r.Off + r.Len
		pos := r.Off
		if k > 0 && w.ext[k-1].end() > r.Off {
			k = 0 // runs out of order: no search hint
		}
		for k = extent.Find(w.ext, r.Off, k); k < len(w.ext) && w.ext[k].off < rEnd; k++ {
			e := w.ext[k]
			if e.off > pos {
				holes = append(holes, hole{off: pos, n: e.off - pos, bufAt: at + (pos - r.Off)})
				cur.Skip(e.off - pos)
				pos = e.off
			}
			o := min(e.end(), rEnd)
			cur.Move(e.data[pos-e.off:o-e.off], true)
			hitBytes += o - pos
			e.use = stamp
			pos = o
			if e.end() > rEnd {
				break // e may serve the next run too: the hint stays on it
			}
		}
		if pos < rEnd {
			holes = append(holes, hole{off: pos, n: rEnd - pos, bufAt: at + (pos - r.Off)})
			cur.Skip(rEnd - pos)
		}
		at += r.Len
	}
	w.stats.HitBytes += hitBytes
	if len(holes) == 0 {
		w.stats.Hits++
		if promoted {
			// Promotion grew the memory tier; shed the coldest extents
			// (which demote right back out) rather than sit over budget.
			w.evictCleanLocked()
		}
		w.mu.Unlock()
		return nil
	}
	w.stats.Misses++
	for _, h := range holes {
		w.stats.MissBytes += h.n
	}
	sieve := w.sieveSize()
	ra := w.readAhead
	// The fetch plan: the holes' sieve-aligned covering blocks plus the
	// read-ahead extension, CLIPPED against what the cache already
	// holds — block rounding and read-ahead must never re-read bytes a
	// neighboring extent (or a concurrent aggregator's domain) already
	// brought in. Built under mu so the clip and the holes see the same
	// coverage; every hole is uncovered and therefore lies inside
	// exactly one clipped fetch run.
	blocks := make([]pfs.Run, 0, len(holes)+1)
	for _, h := range holes {
		blocks = append(blocks, extent.Align(pfs.Run{Off: h.off, Len: h.n}, sieve))
	}
	if ra > 0 {
		// Read-ahead: extend past the last fetched block by ra bytes,
		// rounded up to whole sieve blocks, so a forward sectioned scan
		// finds its next block already cached.
		last := blocks[len(blocks)-1]
		ahead := ((ra + sieve - 1) / sieve) * sieve
		blocks = append(blocks, pfs.Run{Off: last.Off + last.Len, Len: ahead})
	}
	var fetch []pfs.Run
	for _, b := range pfs.Coalesce(blocks) {
		fetch = append(fetch, w.uncovered(b)...)
	}
	// The fetch lands straight in cache memory: one buffer per sieve-block
	// piece of the plan, pinned until phase 3 has linked what it keeps.
	// The block is the cache's eviction granule, so one large fetch never
	// becomes a single monolithic extent the LRU can only drop whole.
	var pieces fetchPieces
	var ftotal int64
	for _, r := range fetch {
		ftotal += r.Len
		for off, end := r.Off, r.End(); off < end; {
			n := min((off/sieve+1)*sieve, end) - off
			b := w.getBuf(n)
			w.pin(b)
			pieces = append(pieces, fetchPiece{pfs.Run{Off: off, Len: n}, b})
			off += n
		}
	}
	g := &fetchGuard{}
	w.guards = append(w.guards, g)
	w.mu.Unlock()

	// Phase 2: fetch the plan in one vectored sieve read, without
	// holding mu (the store sleeps RealTime service time; concurrent
	// cache users must not wait on it).
	if _, err := w.fs.SieveReadV(fetch, pieces); err != nil {
		w.mu.Lock()
		w.endFetch(g)
		for _, p := range pieces {
			w.unpin(p.buf)
		}
		w.mu.Unlock()
		// Degraded fallback: the sieve plan reads MORE than the caller
		// asked for (block rounding plus read-ahead), so a failure in
		// that speculative territory must not fail the demand read.
		// Retry with exactly the uncovered holes, straight into the
		// caller's memory, and skip cache population — the cache only
		// ever holds whole verified blocks.
		return w.readHolesDirect(holes, mem)
	}
	fillHoles(holes, mem, func(cur *pfs.Cursor, h hole) {
		// A hole lies inside one fetch run, over one or more of its pieces.
		i := sort.Search(len(pieces), func(k int) bool { return pieces[k].run.End() > h.off })
		for off, end := h.off, h.off+h.n; off < end; i++ {
			p := pieces[i]
			o := min(p.run.End(), end)
			cur.Move(p.buf.b[off-p.run.Off:o-p.run.Off], true)
			off = o
		}
	})

	// Phase 3: populate the cache with the fetched pieces, filling only
	// the gaps between existing extents of either tier (which are either
	// identical clean bytes or NEWER dirty bytes — they always win; a
	// demote during phase 2 moved bytes to the spill tier, and the
	// fetched store copy of that range is at best redundant and stale
	// where the demoted extent was dirty) and staying out of every range
	// the guard saw written during the fetch: the store bytes we hold
	// there may predate the write. They serve the caller (a racing
	// unsynced conflict is undefined, as in MPI) but must not enter the
	// cache. What is kept is inserted split at the pieces' (sieve-block)
	// boundaries, each extent a window on its piece's buffer; a piece
	// nothing keeps goes back to the free lists with its pin.
	w.mu.Lock()
	w.endFetch(g)
	w.stats.SieveFetched += ftotal
	wrote := extent.Coalesce(g.wrote)
	// Demanded bytes end here; fetched blocks past it are speculative
	// read-ahead and insert one LRU tick colder, so speculation never
	// evicts the data the caller just asked for.
	reqEnd := holes[len(holes)-1].off + holes[len(holes)-1].n
	pi := 0 // the piece the next kept byte lies in
	for _, fr := range fetch {
		for _, u := range w.uncovered(fr) {
			for _, g := range extent.Holes(u, wrote) {
				for g.Len > 0 {
					for pieces[pi].run.End() <= g.Off {
						pi++
					}
					p := pieces[pi]
					n := min(p.run.End(), g.End()) - g.Off
					use := stamp
					if g.Off >= reqEnd {
						use = stamp - 1
					}
					w.insert(newExt(g.Off, p.buf.b[g.Off-p.run.Off:][:n], p.buf, false, use))
					g.Off += n
					g.Len -= n
				}
			}
		}
	}
	for _, p := range pieces {
		w.unpin(p.buf)
	}
	w.evictCleanLocked()
	w.mu.Unlock()
	return nil
}

// fetchPiece is one sieve-block piece of a fetch plan and the pinned
// cache buffer it is read into; a plan's pieces, in order, are the
// memory vector of its read.
type fetchPiece struct {
	run pfs.Run
	buf *cbuf
}

type fetchPieces []fetchPiece

func (ps fetchPieces) Seg(i int) []byte { return ps[i].buf.b[:ps[i].run.Len] }
func (ps fetchPieces) Len() (n int64) {
	for _, p := range ps {
		n += p.run.Len
	}
	return n
}

// noteWrite enters runs in the guard of every fetch in flight; endFetch
// retires a fetch's guard. Both need w.mu held.
func (w *fileCache) noteWrite(runs ...pfs.Run) {
	for _, g := range w.guards {
		g.wrote = append(g.wrote, runs...)
	}
}

func (w *fileCache) endFetch(g *fetchGuard) {
	w.guards = slices.DeleteFunc(w.guards, func(x *fetchGuard) bool { return x == g })
}

// fillHoles walks mem to each hole's place, in packed order, for move
// to copy the hole's bytes there.
func fillHoles(holes []hole, mem Vec, move func(cur *pfs.Cursor, h hole)) {
	cur := pfs.Cursor{Mem: mem}
	var at int64
	for _, h := range holes {
		cur.Skip(h.bufAt - at)
		move(&cur, h)
		at = h.bufAt + h.n
	}
}

// readHolesDirect is ReadThrough's fallback when the sieve-aligned
// fetch fails: a tight vectored read of exactly the uncovered holes,
// placed straight into the caller's memory. No sieve attribution, no
// read-ahead, no cache insert — the minimal demand I/O that can still
// satisfy the caller when part of the speculative fetch range is
// unreachable.
func (w *fileCache) readHolesDirect(holes []hole, mem Vec) error {
	runs := make([]pfs.Run, len(holes))
	var total int64
	for i, h := range holes {
		runs[i] = pfs.Run{Off: h.off, Len: h.n}
		total += h.n
	}
	tight := make([]byte, total)
	if _, err := w.fs.ReadV(runs, tight); err != nil {
		return err
	}
	fillHoles(holes, mem, func(cur *pfs.Cursor, h hole) {
		cur.Move(tight[:h.n], true)
		tight = tight[h.n:]
	})
	return nil
}

// promoteLocked moves the spilled extents overlapping [off, off+n)
// back into the memory tier, LRU-stamped now (a spill hit is a use).
// Dirty promoted extents re-enter the dirty accounting — they were
// deferred writes demoted under pressure and are deferred writes
// again. Returns the promoted bytes that overlap the request (the
// spill-hit attribution; whole extents move, so more may promote). A
// clean extent whose spill read-back failed simply does not come back
// — its range stays a hole and is re-fetched from the pfs with no
// cache pollution, mirroring readHolesDirect — but a lost DIRTY extent
// is an error: those bytes exist nowhere else. Either way every extent
// that was read back is promoted, since it has left the spill tier. The
// read-backs land in cache buffers, which the promoted extents keep and
// the failed ones free. Must be called with w.mu held.
func (w *fileCache) promoteLocked(off, n, stamp int64) (int64, error) {
	proms, err := w.spill.TakeInto(off, n, w.lend)
	var overlap int64
	for _, p := range proms {
		if p.Lost {
			w.drop(p.Owner.(*cbuf))
			continue
		}
		pn := int64(len(p.Data))
		w.stats.SpillPromoted += pn
		lo, hi := p.Off, p.Off+pn
		if off > lo {
			lo = off
		}
		if off+n < hi {
			hi = off + n
		}
		if hi > lo {
			overlap += hi - lo
		}
		// The tiers are disjoint, so the promoted range is uncovered in
		// memory: a plain sorted insert keeps the extent-list invariant
		// (a dirty one may touch dirty neighbors, and merges — into a
		// buffer of its own, which frees the read-back's).
		b := p.Owner.(*cbuf)
		if p.Dirty {
			w.mergeDirtyLocked(p.Off, p.Data, b, stamp)
			w.drop(b)
		} else {
			w.insert(newExt(p.Off, p.Data, b, false, stamp))
		}
	}
	return overlap, err
}
