package mpiio

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"drxmp/internal/extent"
	"drxmp/internal/pfs"
	"drxmp/internal/spill"
)

// Unified per-file extent cache: ONE cache of clean extents under one
// memory budget (Tuning.CacheBytes), shared by reads and writes. Reads
// are data-sieved in: a read fetches the covering extent rounded to
// sieve-aligned blocks as one vectored pfs.SieveReadV, serves the
// caller from it, and keeps it so hole-free re-reads come from memory.
// Read-ahead (Tuning.ReadAheadBytes) extends each fetch past the
// requested range so a sectioned forward scan finds its next block
// already cached. Writes go straight to the store and keep the cached
// copies of what they write up to date; every cached byte equals the
// store's once the writes over it have ended.
//
// Invariants and coherence:
//
//   - The cache is SHARED by every handle opened on the same pfs.FS
//     (one cache per file): a sieve block fetched by one rank warms
//     every rank, and a write through any rank's handle updates it.
//   - Extents are sorted by offset and pairwise disjoint.
//   - A direct store write (BeginWrite, EndWrite) copies its bytes into
//     every memory extent it overlaps once the store has them, so a
//     process that re-reads what it just wrote hits memory, as a write
//     to a pooled page does in a buffer pool; the spilled bytes over
//     its runs are discarded, bytes another write overlapped while it
//     was out are punched after it, since the two may have landed on
//     the store in either order, and uncached bytes stay uncached. A
//     collective's domains partition its union, so its aggregators'
//     writes supersede every older byte of it.
//   - The memory budget (CacheBytes) caps the TOTAL cached bytes; over
//     it, extents evict in LRU order.
//   - Every in-flight sieve fetch and direct write holds a GUARD that
//     collects the ranges punched or written while its store call is
//     out. A fetch serves its caller but inserts only outside those
//     ranges, so pre-write store bytes can never enter the cache; a
//     write punches its copies of them. A write to a disjoint range
//     costs either nothing.
//   - A direct write's guard is also its store write's hole source: it
//     lends the store write the cached bytes of the holes between its
//     segments (Lend), and a write over a lent range waits until the
//     lender has ended.
//
// Cost: the extent list stays a sorted slice, searched by galloping
// binary search and punched by one vectored window splice
// (extent.Find/PunchV); recency lives in a lazy heap (extent.LRU), which
// doubles as the "still resident" mark. So a punch, hit, miss or
// eviction costs O(log N + extents touched) — never a walk, sort or
// rebuild of all N extents.
//
// Tiering: with Tuning.SpillBytes set, eviction DEMOTES instead of
// dropping — victims move to a local-disk spill tier (internal/spill),
// and ReadThrough consults memory → spill → pfs, promoting spill hits
// back into memory under the same LRU. The tiers stay disjoint: an
// offset is covered by at most one tier (demote and promote move
// extents under one mu critical section; spill.Put punches its own
// overlaps; every cache punch punches both tiers), so the fetch
// planner can treat "memory ∪ spill coverage" as THE cached set and
// clip speculative sieve/read-ahead fetches against it.
//
// Memory (filecache_mem.go): the cache owns every byte it holds. Each
// extent's data is a sub-slice of a cache buffer (cbuf) of a power of
// two bytes, a piece of n bytes getting one of n rounded up, so n to
// 2n: a 1 KB piece takes about 1 KB and a sieve block a block. It comes
// from that size class's pool, shared by every cache in the process, or
// is made when the pool is empty. Sieve fetches land straight in such
// buffers and spill read-backs are read into them; nothing else is
// cached. A buffer is referenced by its resident extents — punch
// remainders share their parent's — and by PINS, one per reader that
// uses it outside mu: a fetch pins the buffers it reads into until its
// store call has returned. Only an extent leaving the cache (remove, a
// punch) gives up its reference. The last reference frees the buffer,
// so a punch links its remainders before it lets go of the punched
// extent, and eviction demotes before it removes. A freed buffer goes
// back to its class's pool. The budget caps the resident extents'
// bytes, not the pools: nothing but the garbage collector bounds idle
// memory, and a pool it finds idle empties over two cycles. So an
// out-of-core scan, whose fetch plans may exceed the budget, recycles
// the same buffers op after op instead of handing them to the collector
// and allocating them again.

// cext is one cached byte range and its buffered data (len(data) ==
// length of the range; data is a sub-slice of buf, and off and data
// never change).
type cext struct {
	off  int64
	data []byte
	buf  *cbuf
	use  int64          // LRU stamp (fileCache.clock at last touch)
	node extent.LRUNode // linked in fileCache.lru exactly while resident
}

func (e *cext) end() int64            { return e.off + int64(len(e.data)) }
func (e *cext) Span() pfs.Run         { return pfs.Run{Off: e.off, Len: int64(len(e.data))} }
func (e *cext) Stamp() int64          { return e.use }
func (e *cext) Node() *extent.LRUNode { return &e.node }

// CacheStats is the cumulative accounting of a file's extent cache
// (never reset; Sub snapshots for phase measurement).
type CacheStats struct {
	// Absorbed and Flushes are always zero: the cache buffers no writes.
	// They stay because the benchmark harness (bench/report.go) reports
	// them, and do nothing else.
	Absorbed int64
	Flushes  int64

	Hits         int64 // ReadThrough calls served entirely from memory
	Misses       int64 // ReadThrough calls that fetched at least one hole
	HitBytes     int64 // bytes served from cached extents
	MissBytes    int64 // requested bytes that had to be fetched
	SieveFetched int64 // bytes fetched by sieve reads (>= MissBytes: rounding + read-ahead)
	Evicted      int64 // bytes evicted by the memory budget
	Lends        int64 // holes lent to direct writes' store writes (Lend)

	// Spill tier (all zero when Tuning.SpillBytes is 0).
	SpillDemoted  int64 // bytes demoted from memory into the spill tier
	SpillPromoted int64 // bytes promoted back from the spill tier
	SpillHits     int64 // ReadThrough calls served partly from the spill tier
	SpillHitBytes int64 // requested bytes that hit the spill tier
	SpillRejected int64 // demotions the spill tier refused (budget/disk)
	SpillUsed     int64 // gauge: live spilled bytes right now

	// Retunes is always zero: the sieve block and read-ahead are fixed by
	// the stripe size and Tuning.ReadAheadBytes, and nothing re-derives
	// them. The field stays because the benchmark harness reports it.
	Retunes        int64
	SieveSize      int64 // gauge: effective sieve block size
	ReadAheadBytes int64 // gauge: effective read-ahead
}

// Sub returns s - t field-wise for the cumulative counters; the gauges
// (SpillUsed, SieveSize, ReadAheadBytes) keep s's current values — a
// delta of an instantaneous reading is meaningless.
func (s CacheStats) Sub(t CacheStats) CacheStats {
	return CacheStats{
		Hits:         s.Hits - t.Hits,
		Misses:       s.Misses - t.Misses,
		HitBytes:     s.HitBytes - t.HitBytes,
		MissBytes:    s.MissBytes - t.MissBytes,
		SieveFetched: s.SieveFetched - t.SieveFetched,
		Evicted:      s.Evicted - t.Evicted,
		Lends:        s.Lends - t.Lends,

		SpillDemoted:  s.SpillDemoted - t.SpillDemoted,
		SpillPromoted: s.SpillPromoted - t.SpillPromoted,
		SpillHits:     s.SpillHits - t.SpillHits,
		SpillHitBytes: s.SpillHitBytes - t.SpillHitBytes,
		SpillRejected: s.SpillRejected - t.SpillRejected,
		SpillUsed:     s.SpillUsed,

		Retunes:        s.Retunes - t.Retunes,
		SieveSize:      s.SieveSize,
		ReadAheadBytes: s.ReadAheadBytes,
	}
}

// fileCache is the shared per-file extent cache. All methods are safe
// for concurrent use (every rank's handle, and the close hook the cache
// registers with the pfs store, share it).
type fileCache struct {
	fs *pfs.FS

	mu     sync.Mutex
	ext    []*cext           // sorted by off, pairwise disjoint
	lru    extent.LRU[*cext] // recency order of the extents
	tmp    []*cext           // punchMemLocked's window scratch
	total  int64             // buffered bytes
	guards []*fetchGuard     // the sieve fetches and direct writes in flight
	clock  int64             // LRU clock
	// unlent is signalled, over mu, when a write that lent holes ends: a
	// write over a lent range waits for it (waitLent).
	unlent sync.Cond
	onWait func()        // tests: called as a write waits on a lent range
	spare  []*fetchGuard // ended write guards, kept for reuse with their slices

	lend spill.Alloc // the spill tier's Alloc over cache memory (lendBuf)

	// Policy, fixed when the cache is created. The sieve block is the
	// store's stripe size, which keeps sieve fetches server-aligned.
	budget    int64 // max total bytes
	readAhead int64 // extra fetch bytes past each miss; 0 = none

	spill *spill.Store // the spill tier; nil when Tuning.SpillBytes is 0

	stats CacheStats
}

// newFileCache builds a cache under t's budget, read-ahead and spill
// tier, opening the spill file when t has one.
func newFileCache(fs *pfs.FS, t Tuning) (*fileCache, error) {
	w := &fileCache{fs: fs, budget: t.CacheBytes, readAhead: t.ReadAheadBytes}
	w.lend = w.lendBuf
	w.unlent.L = &w.mu
	if t.SpillBytes > 0 {
		sp, err := spill.Open(t.SpillPath, t.SpillBytes)
		if err != nil {
			return nil, err
		}
		w.spill = sp
	}
	return w, nil
}

// fcAuxKey is the cache's slot in the store's Aux map — per-store
// state, so the cache's lifetime is exactly the store's.
const fcAuxKey = "mpiio.filecache"

// cacheSlot is a store's Aux slot: its cache, or the error creating
// it returned.
type cacheSlot struct {
	w   *fileCache
	err error
}

// sharedFileCache returns the store's shared cache, creating it under t
// (and registering its close hook with FS.Close) on first use. A failed
// creation is remembered: every later call returns the same error.
func sharedFileCache(fs *pfs.FS, t Tuning) (*fileCache, error) {
	sc := fs.Aux(fcAuxKey, func() any {
		w, err := newFileCache(fs, t)
		if err == nil {
			fs.AddCloseFlusher(w.closeHook)
		}
		return cacheSlot{w, err}
	}).(cacheSlot)
	return sc.w, sc.err
}

// closeHook is the cache's FS.Close hook: it releases the spill file,
// so a closed store never leaks a local temp file. Every cached byte is
// already on the store.
func (w *fileCache) closeHook() error {
	w.mu.Lock()
	sp := w.spill
	w.spill = nil
	w.mu.Unlock()
	if sp != nil {
		return sp.Close()
	}
	return nil
}

// Cached returns the currently buffered bytes.
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
	st.SieveSize = w.fs.StripeSize()
	st.ReadAheadBytes = w.readAhead
	if w.spill != nil {
		st.SpillUsed = w.spill.Used()
	}
	return st
}

// link books a new extent and enters it in the recency heap; unlink is
// the inverse, and leaves e marked not resident (e.node.Linked() is
// false from then on). Neither touches w.ext or e's buffer reference.
// leave is an extent leaving the cache: unlinked, and its buffer
// reference given up; remove also takes it out of w.ext, and insert is
// an arrival's link plus its place in w.ext. All of them need w.mu held.
func (w *fileCache) link(e *cext) *cext {
	w.total += int64(len(e.data))
	w.lru.Push(e)
	return e
}

func (w *fileCache) unlink(e *cext) {
	w.total -= int64(len(e.data))
	w.lru.Remove(e)
}

func (w *fileCache) insert(e *cext) { w.ext = extent.Insert(w.ext, w.link(e)) }
func (w *fileCache) remove(e *cext) { w.leave(e); w.ext = extent.Delete(w.ext, e) }
func (w *fileCache) leave(e *cext)  { w.unlink(e); w.unref(e.buf) }

// BeginWrite opens a direct store write of runs — File.WriteV, or a
// collective aggregator — and returns the write's guard, which the
// caller hands to EndWrite once the store write has returned. Under one
// mu hold it discards every spill entry over runs (the write supersedes
// them), notes runs in the guards in flight and registers the write's
// own guard, which collects the writes that overlap this one while it
// is out. A write whose runs overlap a hole another write in flight has
// lent waits, before anything else, for that write to end: the lender
// stores the hole's old bytes (Lend).
//
// The guard is the store write's hole source: it carries the cache and
// runs, which must stay unchanged until EndWrite.
func (w *fileCache) BeginWrite(runs []pfs.Run) *fetchGuard {
	sorted := extent.Sorted(runs)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitLent(runs, sorted)
	w.noteWrite(runs...)
	if w.spill != nil {
		w.spill.PunchV(runs)
	}
	var g *fetchGuard
	if n := len(w.spare); n > 0 {
		g, w.spare = w.spare[n-1], w.spare[:n-1]
	} else {
		g = &fetchGuard{}
	}
	g.w, g.runs, g.sorted = w, runs, sorted
	w.guards = append(w.guards, g)
	return g
}

// EndWrite closes the direct store write BeginWrite opened; mem holds
// the runs' bytes packed back-to-back, as the write took them, and ok
// reports whether the store write succeeded. It retires the write's
// guard and notes runs in the guards in flight again: a fetch that
// started after BeginWrite may have read the store before the write
// landed.
//
// After a successful write the cache keeps what it holds warm. The
// spill tier loses runs (an extent demoted mid-write carries pre-write
// bytes); every memory extent over runs takes the written bytes from
// mem; then the bytes of runs that another write overlapped while this
// one was out are punched, since the two may have landed on the store
// in either order. Uncached bytes stay uncached. After a failed write,
// which may have landed on some servers and not others, runs are
// punched in both tiers.
//
// A write that lent holes wakes the writes waiting on them; its lent
// ranges need no update, since it stored them as they were.
func (w *fileCache) EndWrite(g *fetchGuard, runs []pfs.Run, mem Vec, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.endGuard(g)
	defer w.spareGuard(g)
	if len(g.lent) > 0 {
		w.unlent.Broadcast()
	}
	if !ok {
		w.punchLocked(runs)
		return
	}
	w.noteWrite(runs...)
	if w.spill != nil {
		w.spill.PunchV(runs)
	}
	w.updateLocked(runs, mem)
	if len(g.wrote) > 0 {
		w.punchMemLocked(extent.Intersect(runs, extent.Coalesce(g.wrote)))
	}
}

// updateLocked copies the bytes of runs, packed back-to-back in mem,
// into every memory extent they overlap. Must be called with w.mu held.
func (w *fileCache) updateLocked(runs []pfs.Run, mem Vec) {
	cur := pfs.Cursor{Mem: mem}
	k := 0
	for _, r := range runs {
		pos := r.Off // the cursor stands at this byte of r
		if k > 0 && w.ext[k-1].end() > r.Off {
			k = 0 // runs out of order: no search hint
		}
		for k = extent.Find(w.ext, r.Off, k); k < len(w.ext) && w.ext[k].off < r.End(); k++ {
			e := w.ext[k]
			lo, hi := max(e.off, r.Off), min(e.end(), r.End())
			cur.Skip(lo - pos)
			cur.Move(e.data[lo-e.off:hi-e.off], false)
			pos = hi
			if e.end() > r.End() {
				break // e may overlap the next run too: the hint stays on it
			}
		}
		cur.Skip(r.End() - pos)
	}
}

// punchLocked removes runs from both tiers. Every punch means "this
// range is being superseded", so the guards in flight learn of it too.
// Must be called with w.mu held.
func (w *fileCache) punchLocked(runs []pfs.Run) {
	w.noteWrite(runs...)
	if w.spill != nil {
		w.spill.PunchV(runs)
	}
	w.punchMemLocked(runs)
}

// punchMemLocked removes runs from the memory extents. Untouched
// extents keep their identity (pointer); trimmed remainders are new
// extents sharing the old buffer, linked before the punched extent lets
// go of it (the other order could free it under them).
func (w *fileCache) punchMemLocked(runs []pfs.Run) {
	w.ext, w.tmp = extent.PunchV(w.ext, w.tmp, runs, func(e *cext, hole pfs.Run, out []*cext) []*cext {
		if e.off < hole.Off { // keep the left remainder
			out = append(out, w.link(newExt(e.off, e.data[:hole.Off-e.off], e.buf, e.use)))
		}
		if end := hole.End(); e.end() > end { // keep the right remainder
			out = append(out, w.link(newExt(end, e.data[end-e.off:], e.buf, e.use)))
		}
		w.leave(e)
		return out
	})
}

// evictLocked removes extents, least recently used first (ties by
// offset), until the cache fits its budget — at O(log N) per victim.
// With the spill tier on, eviction DEMOTES: each victim's bytes move to
// the spill file before the memory copy drops (and its buffer with it),
// so a warm working set larger than RAM re-reads from local disk
// instead of the pfs (a refused demote — spill budget full, disk
// failure — degrades to the plain drop). Must be called with w.mu held.
func (w *fileCache) evictLocked() {
	for w.total > w.budget {
		e, ok := w.lru.Min()
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

// hole is one uncached sub-range of a ReadThrough request and its
// position in the caller's packed transfer.
type hole struct {
	off, n, bufAt int64
}

// fetchGuard is one sieve fetch or direct write in flight: wrote
// collects every range punched or written while its store
// call is out (under w.mu). A fetch inserts only outside those ranges;
// a write punches its clean copies of them (EndWrite).
//
// A direct write's guard is also its store write's hole source
// (pfs.HoleSource): w is its cache, runs the ranges it writes (sorted:
// ascending and disjoint), lent the holes it has lent (lentSorted: in
// ascending order) and hint where its last lookup in w.ext ended. A
// fetch's has none of them.
type fetchGuard struct {
	wrote      []pfs.Run
	w          *fileCache
	runs       []pfs.Run
	sorted     bool
	lent       []pfs.Run
	lentSorted bool
	hint       int
}

// spareGuard keeps an ended write's guard for the next BeginWrite,
// emptied but for its slices' capacity. Must be called with w.mu held.
func (w *fileCache) spareGuard(g *fetchGuard) {
	if len(w.spare) < 8 {
		*g = fetchGuard{wrote: g.wrote[:0], lent: g.lent[:0]}
		w.spare = append(w.spare, g)
	}
}

// Lock and Unlock take the cache's lock for g's store write, which
// holds it over its Covers and Lend calls.
func (g *fetchGuard) Lock()   { g.w.mu.Lock() }
func (g *fetchGuard) Unlock() { g.w.mu.Unlock() }

// Covers reports whether Lend would lend runs. Must be called with w.mu
// held, as Lend.
func (g *fetchGuard) Covers(runs []pfs.Run) bool {
	for _, r := range runs {
		if g.w.lendAt(g, r) < 0 {
			return false
		}
	}
	return true
}

// Lend is the cache's side of write sieving, the lock ROMIO takes to
// widen a write from its sieve buffer: it copies into p the bytes of
// runs, a hole of g's write, and records them as lent, so the store
// write puts back exactly the bytes already there. It lends only what
// memory extents hold whole and no write in flight writes or has lent:
// cached bytes equal the store's once the writes over them have ended. Until g's EndWrite, a write over a lent range waits.
func (g *fetchGuard) Lend(runs []pfs.Run, p []byte) bool {
	w := g.w
	for _, r := range runs {
		k := w.lendAt(g, r)
		if k < 0 {
			return false
		}
		for ; r.Len > 0; k++ {
			e := w.ext[k]
			n := copy(p, e.data[r.Off-e.off:min(e.end(), r.End())-e.off])
			p, r.Off, r.Len = p[n:], r.Off+int64(n), r.Len-int64(n)
		}
	}
	for _, r := range runs {
		n := len(g.lent)
		g.lentSorted = n == 0 || g.lentSorted && g.lent[n-1].End() <= r.Off
		g.lent = append(g.lent, r)
	}
	w.stats.Lends++
	return true
}

// lendAt returns the position in w.ext of the first of the memory
// extents that hold r whole, or -1 when they do not, or when a direct
// write in flight writes or has lent any of r. That includes the lender
// g's own write, unless its runs are sorted: a hole then lies between
// two segments of one server, and none of the write's runs reaches
// into it. g's lent ranges never overlap a hole of its own. Must be
// called with w.mu held.
func (w *fileCache) lendAt(g *fetchGuard, r pfs.Run) int {
	for _, x := range w.guards {
		if x == g {
			if !g.sorted && extent.Overlaps(g.runs, r, false) {
				return -1
			}
		} else if extent.Overlaps(x.runs, r, x.sorted) || x.lentOverlaps(r) {
			return -1
		}
	}
	k := g.hint
	if k > len(w.ext) || k > 0 && w.ext[k-1].end() > r.Off {
		k = 0
	}
	k = extent.Find(w.ext, r.Off, k)
	g.hint = k
	for i, pos := k, r.Off; pos < r.End(); i++ {
		if i == len(w.ext) || w.ext[i].off > pos {
			return -1
		}
		pos = w.ext[i].end()
	}
	return k
}

// lentOverlaps reports whether a range g has lent overlaps r, sorting
// g's lent ranges first if need be. Must be called with w.mu held.
func (g *fetchGuard) lentOverlaps(r pfs.Run) bool {
	if len(g.lent) == 0 {
		return false
	}
	if !g.lentSorted {
		slices.SortFunc(g.lent, func(a, b pfs.Run) int { return cmp.Compare(a.Off, b.Off) })
		g.lentSorted = true
	}
	return extent.Overlaps(g.lent, r, true)
}

// waitLent waits, over w.mu, until no write in flight has lent a range
// that runs overlap (sorted: runs are ascending and disjoint). Must be
// called with w.mu held.
func (w *fileCache) waitLent(runs []pfs.Run, sorted bool) {
	for w.lentOverlaps(runs, sorted) {
		if w.onWait != nil {
			w.onWait()
		}
		w.unlent.Wait()
	}
}

func (w *fileCache) lentOverlaps(runs []pfs.Run, sorted bool) bool {
	for _, g := range w.guards {
		for _, l := range g.lent {
			if extent.Overlaps(runs, l, sorted) {
				return true
			}
		}
	}
	return false
}

// uncovered returns the sub-ranges of span that neither tier holds, at
// the cost of the extents inside span. Both tiers are "already cached":
// block rounding and read-ahead must not re-fetch a spilled range, which
// would be wasted I/O and would cover its bytes in both tiers. Must be
// called with w.mu held.
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
// mem's segments) through the cache: bytes covered by cached extents
// copy straight from memory, and the uncovered holes are fetched from
// the store as ONE vectored SieveReadV of sieve-aligned blocks (plus
// the read-ahead extension), which then populate the cache for the next
// reader. File.ReadV and the
// collective aggregateRead route through here whenever the handle has a
// cache.
func (w *fileCache) ReadThrough(runs []pfs.Run, mem Vec) error {
	f, err := w.planFetch(runs, mem)
	if err != nil || f.guard == nil {
		return err
	}
	// Phase 2: fetch the plan in one vectored sieve read, without
	// holding mu (the store sleeps RealTime service time; concurrent
	// cache users must not wait on it).
	if _, err := w.fs.SieveReadV(f.plan, f.pieces); err != nil {
		w.mu.Lock()
		w.endGuard(f.guard)
		for _, p := range f.pieces {
			w.unpin(p.buf)
		}
		w.mu.Unlock()
		// Degraded fallback: the sieve plan reads MORE than the caller
		// asked for (block rounding plus read-ahead), so a failure in
		// that speculative territory must not fail the demand read.
		// Retry with exactly the uncovered holes, straight into the
		// caller's memory, and skip cache population — the cache only
		// ever holds whole verified blocks.
		return w.readHolesDirect(f.holes, mem)
	}
	w.settleFetch(&f, mem)
	return nil
}

// sieveFetch is a ReadThrough miss between its plan and its insert: the
// holes it serves, the clipped sieve-block plan and the pinned pieces
// it reads into, the read's LRU stamp and its guard (nil when the read
// was served whole from memory).
type sieveFetch struct {
	holes  []hole
	plan   []pfs.Run
	pieces fetchPieces
	stamp  int64
	guard  *fetchGuard
}

// planFetch is ReadThrough's phase 1, under one mu hold: it serves what
// the cache covers into mem and plans the fetch of the holes.
func (w *fileCache) planFetch(runs []pfs.Run, mem Vec) (sieveFetch, error) {
	// Spill hits promote FIRST — still under this same mu hold, so the
	// hole computation below sees the promoted extents as ordinary
	// memory coverage and the two tiers never cover a byte twice.
	w.mu.Lock()
	defer w.mu.Unlock()
	w.clock++
	stamp := w.clock
	var promoted bool
	if w.spill != nil {
		var hitSpill int64
		for _, r := range runs {
			hitSpill += w.promoteLocked(r.Off, r.Len, stamp)
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
			w.evictLocked()
		}
		return sieveFetch{}, nil
	}
	w.stats.Misses++
	for _, h := range holes {
		w.stats.MissBytes += h.n
	}
	sieve := w.fs.StripeSize()
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
	f := sieveFetch{holes: holes, stamp: stamp, guard: &fetchGuard{}}
	for _, b := range pfs.Coalesce(blocks) {
		f.plan = append(f.plan, w.uncovered(b)...)
	}
	// The fetch lands straight in cache memory: one buffer per sieve-block
	// piece of the plan, pinned until phase 3 has linked what it keeps.
	// The block is the cache's eviction granule, so one large fetch never
	// becomes a single monolithic extent the LRU can only drop whole.
	for _, r := range f.plan {
		for off, end := r.Off, r.End(); off < end; {
			n := min((off/sieve+1)*sieve, end) - off
			b := w.getBuf(n)
			w.pin(b)
			f.pieces = append(f.pieces, fetchPiece{pfs.Run{Off: off, Len: n}, b})
			off += n
		}
	}
	w.guards = append(w.guards, f.guard)
	return f, nil
}

// settleFetch is ReadThrough's phase 3, once the plan's store read has
// landed in its pieces: it serves the holes into mem, then populates
// the cache with the fetched pieces, filling only the gaps between
// existing extents of either tier (which hold the same bytes; a demote
// during phase 2 moved bytes to the spill tier, and the fetched copy of
// that range would cover it twice) and staying out of every range the
// guard saw written during the fetch: the store bytes we hold there may
// predate the write. They
// serve the caller (a racing unsynced conflict is undefined, as in MPI)
// but must not enter the cache. What is kept is inserted split at the
// pieces' (sieve-block) boundaries, each extent a window on its piece's
// buffer; a piece nothing keeps goes back to its pool with its pin.
func (w *fileCache) settleFetch(f *sieveFetch, mem Vec) {
	pieces := f.pieces
	fillHoles(f.holes, mem, func(cur *pfs.Cursor, h hole) {
		// A hole lies inside one fetch run, over one or more of its pieces.
		i := sort.Search(len(pieces), func(k int) bool { return pieces[k].run.End() > h.off })
		for off, end := h.off, h.off+h.n; off < end; i++ {
			p := pieces[i]
			o := min(p.run.End(), end)
			cur.Move(p.buf.b[off-p.run.Off:o-p.run.Off], true)
			off = o
		}
	})

	w.mu.Lock()
	defer w.mu.Unlock()
	w.endGuard(f.guard)
	w.stats.SieveFetched += pieces.Len()
	wrote := extent.Coalesce(f.guard.wrote)
	// Demanded bytes end here; fetched blocks past it are speculative
	// read-ahead and insert one LRU tick colder, so speculation never
	// evicts the data the caller just asked for.
	last := f.holes[len(f.holes)-1]
	reqEnd := last.off + last.n
	pi := 0 // the piece the next kept byte lies in
	for _, fr := range f.plan {
		for _, u := range w.uncovered(fr) {
			for _, g := range extent.Holes(u, wrote) {
				for g.Len > 0 {
					for pieces[pi].run.End() <= g.Off {
						pi++
					}
					p := pieces[pi]
					n := min(p.run.End(), g.End()) - g.Off
					use := f.stamp
					if g.Off >= reqEnd {
						use = f.stamp - 1
					}
					w.insert(newExt(g.Off, p.buf.b[g.Off-p.run.Off:][:n], p.buf, use))
					g.Off += n
					g.Len -= n
				}
			}
		}
	}
	for _, p := range pieces {
		w.unpin(p.buf)
	}
	w.evictLocked()
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

// noteWrite enters runs in the guard of every fetch and write in
// flight; endGuard retires a guard. Both need w.mu held.
func (w *fileCache) noteWrite(runs ...pfs.Run) {
	for _, g := range w.guards {
		g.wrote = append(g.wrote, runs...)
	}
}

func (w *fileCache) endGuard(g *fetchGuard) {
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
// back into the memory tier, LRU-stamped now (a spill hit is a use),
// and returns the promoted bytes that overlap the request (the
// spill-hit attribution; whole extents move, so more may promote). An
// extent whose spill read-back failed simply does not come back — its
// range stays a hole and is re-fetched from the pfs with no cache
// pollution, mirroring readHolesDirect. The read-backs land in cache
// buffers, which the promoted extents keep and the failed ones free.
// Must be called with w.mu held.
func (w *fileCache) promoteLocked(off, n, stamp int64) int64 {
	// TakeInto's error reports a lost dirty entry, and the cache spills
	// none.
	proms, _ := w.spill.TakeInto(off, n, w.lend)
	var overlap int64
	for _, p := range proms {
		if p.Lost {
			w.drop(p.Owner.(*cbuf))
			continue
		}
		pn := int64(len(p.Data))
		w.stats.SpillPromoted += pn
		if lo, hi := max(p.Off, off), min(p.Off+pn, off+n); hi > lo {
			overlap += hi - lo
		}
		// The tiers are disjoint, so the promoted range is uncovered in
		// memory: a plain sorted insert keeps the extent-list invariant.
		w.insert(newExt(p.Off, p.Data, p.Owner.(*cbuf), stamp))
	}
	return overlap
}
