// Package spill is the local-disk tier of the tiered extent cache: a
// single spill file per store holding extents the in-memory cache
// (internal/mpiio's fileCache) demoted under budget pressure, so warm
// working sets larger than RAM are re-read from fast local storage
// instead of paying another parallel-file-system round trip — the
// libhclooc framing of staging out-of-core data through a faster tier.
//
// Layout is a slab file addressed by an in-memory extent index: each
// live entry owns a [slot, slot+len) byte range of the spill file and
// maps it to a [off, off+len) range of the cached array file. Freed
// slots return to a coalescing free list and are reused first-fit, so
// steady-state churn does not grow the file. A byte budget caps the
// LIVE bytes (clean entries evict LRU to make room; dirty entries are
// never dropped by the spill tier — their lifecycle belongs to the
// caller, which flushes them). The extent cache stages no dirty data
// here any more: it demotes clean extents only.
//
// The spill tier is strictly a performance layer: every operation that
// can fail on disk degrades to "not spilled" / "not found", and the
// cache above falls back to the parallel file system. The one
// exception is DIRTY data, whose loss is a real error the
// Take/CollectDirty callers must surface.
package spill

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"

	"drxmp/internal/extent"
)

// Stats is the spill store's cumulative accounting (instantaneous
// gauges are exposed by Used/Dirty, not here).
type Stats struct {
	Puts      int64 // successful Put calls (demotions into the tier)
	PutBytes  int64 // bytes written by successful Puts
	Takes     int64 // extents moved out by Take (promotions)
	TakeBytes int64 // bytes moved out by Take
	Evicted   int64 // clean bytes evicted by the spill budget
	Failures  int64 // disk failures degraded to "not spilled"/"not found"
	Rejected  int64 // Put calls refused (budget could not be made)
}

// ext is one live entry: bytes [Slot, Slot+N) of the spill file hold
// array-file range [Off, Off+N).
type ext struct {
	id    int64
	off   int64
	n     int64
	slot  int64
	dirty bool
	use   int64          // LRU stamp
	node  extent.LRUNode // linked in Store.lru exactly while live and clean
}

func (e *ext) end() int64            { return e.off + e.n }
func (e *ext) Span() extent.Run      { return extent.Run{Off: e.off, Len: e.n} }
func (e *ext) Stamp() int64          { return e.use }
func (e *ext) Node() *extent.LRUNode { return &e.node }

// Promoted is one extent moved out of the spill tier by Take; Owner is
// what the Alloc returned with Data. Lost marks an entry whose
// read-back failed: it has no Data, only the Owner of the memory the
// read-back went to, for the caller to release.
type Promoted struct {
	Off   int64
	Data  []byte
	Owner any
	Dirty bool
	Lost  bool
}

// Chunk is one dirty extent surfaced by CollectDirty for a flush
// sweep; ID names the entry for the follow-up MarkClean, and Owner is
// what the Alloc returned with Data. Lost marks the entry whose
// read-back failed, as in Promoted.
type Chunk struct {
	ID    int64
	Off   int64
	Data  []byte
	Owner any
	Lost  bool
}

// Store manages one local spill file. All methods are safe for
// concurrent use; the store never blocks on anything but its own
// local-disk I/O.
type Store struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	budget int64
	used   int64 // live bytes (sum of entry lengths)
	dirty  int64 // live dirty bytes
	size   int64 // spill-file high-water mark
	free   []extent.Run
	ext    []*ext           // sorted by off, pairwise disjoint (extent.Find/PunchV)
	lru    extent.LRU[*ext] // the clean entries, least recently spilled first
	tmp    []*ext           // PunchV's window scratch
	clock  int64
	nextID int64
	stats  Stats
	closed bool
}

// Open creates the spill store. path names the spill file (created or
// truncated); an empty path creates a temp file. The file is removed
// on Close. budget caps the live spilled bytes.
func Open(path string, budget int64) (*Store, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("spill: non-positive budget %d", budget)
	}
	var f *os.File
	var err error
	if path == "" {
		f, err = os.CreateTemp("", "drxspill-*.dat")
		if err == nil {
			path = f.Name()
		}
	} else {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	}
	if err != nil {
		return nil, fmt.Errorf("spill: open: %w", err)
	}
	return &Store{f: f, path: path, budget: budget}, nil
}

// Path returns the spill file's path.
func (s *Store) Path() string { return s.path }

// Used returns the live spilled bytes (clean + dirty).
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Dirty returns the live dirty spilled bytes.
func (s *Store) Dirty() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirty
}

// Stats returns a snapshot of the cumulative accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close removes the spill file. Live entries (and any dirty bytes —
// callers flush before closing) are discarded.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.ext, s.free, s.lru = nil, nil, extent.LRU[*ext]{}
	s.used, s.dirty, s.size = 0, 0, 0
	err := s.f.Close()
	if rerr := os.Remove(s.path); rerr != nil && err == nil && !os.IsNotExist(rerr) {
		err = rerr
	}
	return err
}

// alloc carves an n-byte slot: first-fit from the free list, else at
// the file's high-water mark. Must be called with s.mu held.
func (s *Store) alloc(n int64) int64 {
	for i, r := range s.free {
		if r.Len >= n {
			slot := r.Off
			if r.Len == n {
				s.free = append(s.free[:i], s.free[i+1:]...)
			} else {
				s.free[i] = extent.Run{Off: r.Off + n, Len: r.Len - n}
			}
			return slot
		}
	}
	slot := s.size
	s.size += n
	return slot
}

// release returns a slot range to the free list, which stays sorted and
// coalesced: the range was live, so it overlaps nothing and at most
// touches its two neighbours, found by binary search and merged in
// place. Must be called with s.mu held.
func (s *Store) release(slot, n int64) {
	if n <= 0 {
		return
	}
	i, _ := slices.BinarySearchFunc(s.free, slot, func(r extent.Run, off int64) int { return cmp.Compare(r.Off, off) })
	left := i > 0 && s.free[i-1].End() == slot
	right := i < len(s.free) && s.free[i].Off == slot+n
	switch {
	case left && right:
		s.free[i-1].Len += n + s.free[i].Len
		s.free = slices.Delete(s.free, i, i+1)
	case left:
		s.free[i-1].Len += n
	case right:
		s.free[i] = extent.Run{Off: slot, Len: n + s.free[i].Len}
	default:
		s.free = slices.Insert(s.free, i, extent.Run{Off: slot, Len: n})
	}
	// Trim trailing free space off the high-water mark so a drained
	// store shrinks back instead of ratcheting.
	for len(s.free) > 0 {
		last := s.free[len(s.free)-1]
		if last.End() != s.size {
			break
		}
		s.free = s.free[:len(s.free)-1]
		s.size = last.Off
	}
}

// link books a new live entry (clean ones join the LRU); unlink is its
// inverse. Neither touches the sorted index or the slot.
func (s *Store) link(e *ext) *ext {
	s.used += e.n
	if e.dirty {
		s.dirty += e.n
	} else {
		s.lru.Push(e)
	}
	return e
}

func (s *Store) unlink(e *ext) {
	s.used -= e.n
	if e.dirty {
		s.dirty -= e.n
	} else {
		s.lru.Remove(e)
	}
}

// dropLocked removes entry at index i and frees its slot.
func (s *Store) dropLocked(i int) {
	e := s.ext[i]
	s.unlink(e)
	s.release(e.slot, e.n)
	s.ext = slices.Delete(s.ext, i, i+1)
}

// punchLocked removes runs from the index, all colors: entries fully
// inside a run are dropped, straddlers are trimmed or split (the kept
// parts go on referencing their sub-ranges of the original slot under
// new ids; the punched middle returns to the free list).
func (s *Store) punchLocked(runs []extent.Run) {
	s.ext, s.tmp = extent.PunchV(s.ext, s.tmp, runs, func(e *ext, hole extent.Run, out []*ext) []*ext {
		lo, hi := max(hole.Off, e.off), min(hole.End(), e.end())
		s.unlink(e)
		s.release(e.slot+(lo-e.off), hi-lo)
		if e.off < lo { // left remainder keeps the slot prefix
			s.nextID++
			out = append(out, s.link(&ext{id: s.nextID, off: e.off, n: lo - e.off,
				slot: e.slot, dirty: e.dirty, use: e.use}))
		}
		if e.end() > hi { // right remainder keeps the slot suffix
			s.nextID++
			out = append(out, s.link(&ext{id: s.nextID, off: hi, n: e.end() - hi,
				slot: e.slot + (hi - e.off), dirty: e.dirty, use: e.use}))
		}
		return out
	})
}

// PunchV discards the spilled bytes of every run — the spill half of
// the cache's write-coherence rule (superseded bytes may not survive in
// any tier) — in one lock hold and one pass (extent.PunchV).
func (s *Store) PunchV(runs []extent.Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.punchLocked(runs)
	}
}

// evictLocked drops clean entries LRU-first until need bytes fit the
// budget, at O(log N) per victim. Dirty entries are never dropped, so
// when they alone leave no room nothing is evicted and it reports false.
func (s *Store) evictLocked(need int64) bool {
	if s.dirty+need > s.budget {
		return false
	}
	for s.used+need > s.budget {
		e, _ := s.lru.Min() // used-dirty > 0: a clean entry exists
		s.stats.Evicted += e.n
		s.dropLocked(extent.Find(s.ext, e.off, 0))
	}
	return true
}

// Put spills [off, off+len(data)) into the tier, punching any spilled
// bytes it overlaps first (the incoming copy is newer). Clean entries
// evict LRU to make room; if the budget still cannot fit the extent —
// or the disk write fails — Put reports false and the tier is
// unchanged (minus the punch), leaving the caller to fall back to
// dropping the extent exactly as without a spill tier. The extent
// cache spills clean extents only (dirty false); dirty stays in the
// signature because the benchmark harness (bench/layers.go) calls Put,
// and the dirty mode it selects has no other caller.
func (s *Store) Put(off int64, data []byte, dirty bool) bool {
	n := int64(len(data))
	if n == 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.punchLocked([]extent.Run{{Off: off, Len: n}})
	if !s.evictLocked(n) {
		s.stats.Rejected++
		return false
	}
	slot := s.alloc(n)
	if _, err := s.f.WriteAt(data, slot); err != nil {
		s.release(slot, n)
		s.stats.Failures++
		return false
	}
	s.clock++
	s.nextID++
	s.ext = extent.Insert(s.ext, s.link(&ext{id: s.nextID, off: off, n: n, slot: slot, dirty: dirty, use: s.clock}))
	s.stats.Puts++
	s.stats.PutBytes += n
	return true
}

// Alloc supplies the memory a read-back lands in: n bytes, which the
// store overwrites entirely and returns as the entry's Data, and the
// caller's handle on that memory, returned beside it as Owner. It runs
// under the store's lock, so it must not call the store. A nil Alloc
// means make (and a nil Owner).
type Alloc func(n int64) (data []byte, owner any)

func (a Alloc) get(n int64) ([]byte, any) {
	if a == nil {
		return make([]byte, n), nil
	}
	return a(n)
}

// Take is TakeInto with freshly made memory.
func (s *Store) Take(off, n int64) ([]Promoted, error) { return s.TakeInto(off, n, nil) }

// TakeInto moves every spilled extent overlapping [off, off+n) out of
// the tier: each entry's bytes are read back from the spill file into
// alloc's memory, the entry is removed, and the data is returned for the
// caller to promote into the memory tier. A clean entry whose read-back
// fails (short read, I/O error — spill-file corruption) is dropped
// without an error, so its bytes fall through to the parallel file
// system with no cache pollution; a DIRTY entry's read failure is
// returned as an error, because those bytes exist nowhere else. Either
// way the entries read back are returned with it, and a failed entry
// whose memory has an Owner comes back Lost, for the caller to release
// that memory (Take's has none, so Take never returns one).
func (s *Store) TakeInto(off, n int64, alloc Alloc) ([]Promoted, error) {
	if n <= 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil
	}
	end := off + n
	var out []Promoted
	var firstErr error
	i := extent.Find(s.ext, off, 0)
	for i < len(s.ext) && s.ext[i].off < end {
		e := s.ext[i]
		data, owner := alloc.get(e.n)
		if _, err := s.f.ReadAt(data, e.slot); err != nil {
			s.stats.Failures++
			if e.dirty && firstErr == nil {
				firstErr = fmt.Errorf("spill: dirty extent [%d,%d) lost: %w", e.off, e.end(), err)
			}
			if owner != nil {
				out = append(out, Promoted{Off: e.off, Owner: owner, Dirty: e.dirty, Lost: true})
			}
			s.dropLocked(i)
			continue
		}
		out = append(out, Promoted{Off: e.off, Data: data, Owner: owner, Dirty: e.dirty})
		s.stats.Takes++
		s.stats.TakeBytes += e.n
		s.dropLocked(i)
	}
	return out, firstErr
}

// Covered appends the live spilled ranges overlapping span to into, in
// offset order — the cache's fetch planner clips speculative reads
// against BOTH tiers' coverage, so sieve rounding never re-fetches (or
// worse, overwrites with stale store bytes) a range the spill tier
// holds. It costs the entries inside span, not the whole index.
func (s *Store) Covered(span extent.Run, into []extent.Run) []extent.Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, j := extent.Window(s.ext, span, 0)
	for _, e := range s.ext[i:j] {
		into = append(into, e.Span())
	}
	return into
}

// Coverage is Covered over the whole file (invariant checks).
func (s *Store) Coverage(into []extent.Run) []extent.Run {
	return s.Covered(extent.Run{Len: math.MaxInt64}, into)
}

// CollectDirty reads back every dirty extent for a flush sweep, into
// alloc's memory, leaving the entries in place (marked clean only after
// the sweep succeeds, by MarkClean with the returned IDs). A dirty
// extent whose read-back fails is a lost deferred write: it is dropped,
// and the error comes back with the chunks read so far and, if its
// memory has an Owner, the failed one marked Lost — every piece of
// memory alloc handed out is in the result, for the caller to release.
func (s *Store) CollectDirty(alloc Alloc) ([]Chunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil
	}
	var out []Chunk
	for i := 0; i < len(s.ext); i++ {
		e := s.ext[i]
		if !e.dirty {
			continue
		}
		data, owner := alloc.get(e.n)
		if _, err := s.f.ReadAt(data, e.slot); err != nil {
			s.stats.Failures++
			s.dropLocked(i)
			if owner != nil {
				out = append(out, Chunk{ID: e.id, Off: e.off, Owner: owner, Lost: true})
			}
			return out, fmt.Errorf("spill: dirty extent [%d,%d) lost: %w", e.off, e.end(), err)
		}
		out = append(out, Chunk{ID: e.id, Off: e.off, Data: data, Owner: owner})
	}
	return out, nil
}

// MarkClean flips the entries named by ids clean — the post-sweep half
// of CollectDirty. An entry punched, split, or re-spilled during the
// sweep has a different id and stays dirty (it re-flushes later, which
// is conservative but never loses bytes).
func (s *Store) MarkClean(ids []int64) {
	if len(ids) == 0 {
		return
	}
	set := make(map[int64]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.ext {
		if e.dirty && set[e.id] {
			e.dirty = false
			s.dirty -= e.n
			s.lru.Push(e)
		}
	}
}
