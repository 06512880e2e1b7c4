package extent

import (
	"slices"
	"sort"
)

// The sorted-extent index shared by the two cache tiers (mpiio's
// memory extents, spill's slab entries): an offset-sorted, pairwise
// disjoint slice searched by galloping binary search, punched by one
// vectored window splice, with recency kept in a lazy min-heap — so
// every cache operation costs O(log N + extents touched), never a walk
// or a sort of all N.

// Spanner is an element of a sorted extent list; its range is fixed
// while it is listed.
type Spanner interface{ Span() Run }

// Find returns the first position >= from in the offset-sorted,
// pairwise disjoint list s whose element ends past off (len(s) if
// none). It gallops from the hint, so a sorted batch of lookups, each
// starting where the last one ended, costs O(log gap) apiece.
func Find[T Spanner](s []T, off int64, from int) int {
	lo, hi := from, from
	for step := 1; hi < len(s) && s[hi].Span().End() <= off; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, len(s))
	return lo + sort.Search(hi-lo, func(k int) bool { return s[lo+k].Span().End() > off })
}

// Window returns the positions [i, j) of the elements of s that
// overlap r, searching from the hint position from.
func Window[T Spanner](s []T, r Run, from int) (i, j int) {
	i = Find(s, r.Off, from)
	for j = i; j < len(s) && s[j].Span().Off < r.End(); j++ {
	}
	return i, j
}

// Insert places e, whose range no element of s overlaps, at its sorted
// position.
func Insert[T Spanner](s []T, e T) []T {
	return slices.Insert(s, Find(s, e.Span().Off, 0), e)
}

// Delete removes the listed element e from s.
func Delete[T Spanner](s []T, e T) []T {
	i := Find(s, e.Span().Off, 0)
	return slices.Delete(s, i, i+1)
}

// PunchV removes the byte ranges runs from s. Every element a run
// overlaps is handed to cut, which appends what survives of it to out —
// nothing, trimmed remainders, or the element itself to keep it whole —
// and does the owner's bookkeeping. Sorted runs (the normal case) cost
// one galloping lookup each plus ONE splice of the window they span,
// rebuilt in scratch (returned emptied, for reuse); elements outside
// the window never move, and a punch that overlaps nothing moves and
// allocates nothing. An out-of-order run closes the window and starts
// another.
func PunchV[T Spanner](s, scratch []T, runs []Run, cut func(e T, hole Run, out []T) []T) (list, tmp []T) {
	// s[lo:at] is being rewritten as out; with no window open (lo < 0)
	// at is only the search hint.
	out, lo, at := scratch[:0], -1, 0
	var done int64 // end of the previous run
	for _, r := range runs {
		if r.Len <= 0 {
			continue
		}
		if r.Off < done {
			if lo >= 0 {
				s = slices.Replace(s, lo, at, out...)
			}
			clear(out)
			out, lo, at = out[:0], -1, 0
		}
		done = r.End()
		// The remainder the previous run left may reach into this one. Its
		// slot is cleared first: if nothing of it survives, the slot falls
		// past the end of out, where the final clear does not reach.
		if n := len(out); n > 0 && out[n-1].Span().End() > r.Off {
			e := out[n-1]
			clear(out[n-1:])
			out = cut(e, r, out[:n-1])
		}
		i := Find(s, r.Off, at)
		if i == len(s) || s[i].Span().Off >= r.End() {
			if lo < 0 {
				at = i
			}
			continue
		}
		if lo < 0 {
			lo, at = i, i
		}
		out = append(out, s[at:i]...)
		for at = i; at < len(s) && s[at].Span().Off < r.End(); at++ {
			out = cut(s[at], r, out)
		}
	}
	if lo >= 0 {
		s = slices.Replace(s, lo, at, out...)
	}
	clear(out) // the scratch must not pin punched elements
	return s, out[:0]
}

// Aged is an element of an LRU: a Spanner with a recency stamp and an
// embedded LRUNode. The stamp may rise while the element is linked —
// the owner just assigns it — but must never fall.
type Aged interface {
	Spanner
	Stamp() int64
	Node() *LRUNode
}

// LRUNode is the per-element state of an LRU, embedded in the element.
// An element is linked in at most one LRU at a time.
type LRUNode struct {
	pos int   // 1-based heap position; 0 = linked nowhere
	key int64 // the stamp the heap last ordered the element by
}

// Linked reports whether the element is in an LRU — the owner's
// "still resident" mark.
func (n *LRUNode) Linked() bool { return n.pos > 0 }

// LRU keeps elements least recently used first, equal stamps highest
// offset first — a deterministic order in which the tail of one request
// goes before its head, and a read-ahead block nobody demanded since
// (inserted one tick cold) before the demanded blocks of that tick — as
// a LAZY binary min-heap: raising a stamp costs nothing, and Min
// re-sinks stale tops until the top's recorded key is current (every
// other recorded key is <= its true one, so that top is the true
// minimum). Eviction therefore costs O(log N) per victim plus, once,
// per element touched since it was last ordered.
type LRU[T Aged] struct{ h []T }

// Len returns the number of linked elements.
func (l *LRU[T]) Len() int { return len(l.h) }

// Items returns the linked elements in no particular order; the slice
// is the heap itself and is only valid until the next mutation.
func (l *LRU[T]) Items() []T { return l.h }

// Push links e under its current stamp.
func (l *LRU[T]) Push(e T) {
	e.Node().key = e.Stamp()
	l.h = append(l.h, e)
	l.up(len(l.h) - 1)
}

// Remove unlinks e.
func (l *LRU[T]) Remove(e T) {
	i, last := e.Node().pos-1, len(l.h)-1
	l.h[i] = l.h[last]
	var zero T
	l.h[last] = zero
	l.h = l.h[:last]
	e.Node().pos = 0
	if i < last {
		l.up(l.down(i))
	}
}

// Min returns the least recently used element without unlinking it.
func (l *LRU[T]) Min() (e T, ok bool) {
	for len(l.h) > 0 {
		e = l.h[0]
		if n := e.Node(); n.key != e.Stamp() {
			n.key = e.Stamp()
			l.down(0)
			continue
		}
		return e, true
	}
	return e, false
}

func (l *LRU[T]) less(a, b T) bool {
	if ka, kb := a.Node().key, b.Node().key; ka != kb {
		return ka < kb
	}
	return a.Span().Off > b.Span().Off
}

// up floats h[i] toward the root; down sinks it toward the leaves and
// returns where it came to rest. Both record final positions.
func (l *LRU[T]) up(i int) {
	e := l.h[i]
	for ; i > 0 && l.less(e, l.h[(i-1)/2]); i = (i - 1) / 2 {
		l.h[i] = l.h[(i-1)/2]
		l.h[i].Node().pos = i + 1
	}
	l.h[i] = e
	e.Node().pos = i + 1
}

func (l *LRU[T]) down(i int) int {
	e := l.h[i]
	for {
		c := 2*i + 1
		if c+1 < len(l.h) && l.less(l.h[c+1], l.h[c]) {
			c++
		}
		if c >= len(l.h) || !l.less(l.h[c], e) {
			break
		}
		l.h[i] = l.h[c]
		l.h[i].Node().pos = i + 1
		i = c
	}
	l.h[i] = e
	e.Node().pos = i + 1
	return i
}
