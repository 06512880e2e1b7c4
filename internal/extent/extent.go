// Package extent is the shared byte-extent arithmetic of the I/O
// stack: the Run type, run-list coalescing, hole (complement)
// computation, and alignment rounding. pfs re-exports Run and Coalesce
// (its vectored calls take run lists), and the mpiio file cache builds
// its sieve-block fetch plans from Holes and Align — one
// implementation, property-tested here, instead of per-layer copies.
package extent

import "sort"

// Run is one contiguous byte extent [Off, Off+Len).
type Run struct {
	Off int64
	Len int64
}

// End returns the exclusive end offset of the run.
func (r Run) End() int64 { return r.Off + r.Len }

// Coalesce merges a run list into the minimal sorted, non-overlapping
// extent set covering exactly the same bytes: runs are sorted by offset
// (on a copy), empty runs dropped, and adjacent or overlapping extents
// merged. The result never has more runs than the input.
func Coalesce(runs []Run) []Run {
	out := make([]Run, 0, len(runs))
	for _, r := range runs {
		if r.Len > 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Off != out[j].Off {
			return out[i].Off < out[j].Off
		}
		return out[i].Len > out[j].Len
	})
	w := 0
	for _, r := range out {
		if w > 0 && r.Off <= out[w-1].End() {
			if end := r.End(); end > out[w-1].End() {
				out[w-1].Len = end - out[w-1].Off
			}
			continue
		}
		out[w] = r
		w++
	}
	return out[:w]
}

// Holes returns the sub-ranges of span not covered by cover, in offset
// order. cover must be sorted by offset and pairwise non-overlapping
// (adjacency is fine) — the invariant Coalesce establishes and the
// cache's extent list maintains. Runs of cover outside span are
// ignored.
func Holes(span Run, cover []Run) []Run {
	var out []Run
	at := span.Off
	end := span.End()
	for _, c := range cover {
		if c.Len <= 0 || c.End() <= at {
			continue
		}
		if c.Off >= end {
			break
		}
		if c.Off > at {
			out = append(out, Run{Off: at, Len: c.Off - at})
		}
		if c.End() > at {
			at = c.End()
		}
	}
	if at < end {
		out = append(out, Run{Off: at, Len: end - at})
	}
	return out
}

// Intersect returns the bytes both a run of runs and cover span, in the
// order of runs. cover must be sorted by offset and pairwise
// non-overlapping, as for Holes; runs may come in any order.
func Intersect(runs, cover []Run) []Run {
	var out []Run
	for _, r := range runs {
		i := sort.Search(len(cover), func(k int) bool { return cover[k].End() > r.Off })
		for ; i < len(cover) && cover[i].Off < r.End(); i++ {
			if lo, hi := max(r.Off, cover[i].Off), min(r.End(), cover[i].End()); hi > lo {
				out = append(out, Run{Off: lo, Len: hi - lo})
			}
		}
	}
	return out
}

// Sorted reports whether runs are ascending and pairwise disjoint:
// each ends at or before the next begins.
func Sorted(runs []Run) bool {
	for i := 1; i < len(runs); i++ {
		if runs[i].Off < runs[i-1].End() {
			return false
		}
	}
	return true
}

// Overlaps reports whether any run of runs shares a byte with r: by
// binary search when sorted says runs are as Sorted reports, else by a
// walk.
func Overlaps(runs []Run, r Run, sorted bool) bool {
	if r.Len <= 0 {
		return false
	}
	if sorted {
		i, j := 0, len(runs) // the first run ending past r.Off is in [i, j]
		for i < j {
			if h := int(uint(i+j) >> 1); runs[h].End() > r.Off {
				j = h
			} else {
				i = h + 1
			}
		}
		for ; i < len(runs) && runs[i].Off < r.End(); i++ {
			if runs[i].Len > 0 {
				return true
			}
		}
		return false
	}
	for _, x := range runs {
		if max(x.Off, r.Off) < min(x.End(), r.End()) {
			return true
		}
	}
	return false
}

// Align widens r to unit boundaries: the start rounds down and the end
// rounds up to multiples of unit. unit <= 1 returns r unchanged.
func Align(r Run, unit int64) Run {
	if unit <= 1 || r.Len <= 0 {
		return r
	}
	lo := (r.Off / unit) * unit
	hi := ((r.End() + unit - 1) / unit) * unit
	return Run{Off: lo, Len: hi - lo}
}
