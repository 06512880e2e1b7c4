package mpiio

import (
	"testing"

	"drxmp/internal/pfs"
	"drxmp/internal/place"
)

// Edge-case coverage for the aggregation-domain geometry: zero-length
// runs, single-byte domains, and runs that start or end exactly on
// stripe/domain boundaries. These paths feed every collective call, so
// their corner behavior is pinned explicitly.

// spanCarve is the span carving of [lo, hi) into n stripe-aligned
// domains (the last one takes the tail): n stripes of payload on n
// ranks make n aggregators.
func spanCarve(lo, hi, stripe int64, n int) place.Domains {
	return place.ByteCyclic{}.Carve(place.Req{Lo: lo, Hi: hi, TotalBytes: int64(n) * stripe, Stripe: stripe, Ranks: n})
}

// piecesOf is placePieces without the per-owner byte totals.
func piecesOf(d place.Domains, runs []pfs.Run) []placed {
	pl, _ := placePieces(d, runs, d.N())
	return pl
}

// TestCollectiveDomainsSplitZeroLengthRun: a zero-length run produces
// no pieces, regardless of where it sits.
func TestCollectiveDomainsSplitZeroLengthRun(t *testing.T) {
	d := spanCarve(0, 256, 64, 4)
	for _, off := range []int64{0, 63, 64, 255, 1000} {
		if got := splitRun(nil, d, pfs.Run{Off: off, Len: 0}); len(got) != 0 {
			t.Errorf("split of zero-length run at %d yielded %d pieces", off, len(got))
		}
	}
}

// TestCollectiveDomainsSplitSingleByteDomains: with a 1-byte stripe the
// domain size degenerates to a single byte per aggregator; every byte
// of a run must land on its own owner, with the tail spilling into the
// last domain.
func TestCollectiveDomainsSplitSingleByteDomains(t *testing.T) {
	d := spanCarve(0, 4, 1, 4)
	pieces := splitRun(nil, d, pfs.Run{Off: 0, Len: 10})
	if len(pieces) != 4 {
		t.Fatalf("pieces = %d, want 4 (one per domain + tail)", len(pieces))
	}
	for i := 0; i < 3; i++ {
		want := placed{owner: i, fileOff: int64(i), n: 1}
		if pieces[i] != want {
			t.Errorf("piece %d = %+v, want %+v", i, pieces[i], want)
		}
	}
	// The last domain takes the tail: bytes 3..9.
	if want := (placed{owner: 3, fileOff: 3, n: 7}); pieces[3] != want {
		t.Errorf("tail piece = %+v, want %+v", pieces[3], want)
	}
	// A single-byte run in the middle maps to exactly its domain.
	one := splitRun(nil, d, pfs.Run{Off: 2, Len: 1})
	if len(one) != 1 || one[0] != (placed{owner: 2, fileOff: 2, n: 1}) {
		t.Errorf("single-byte split = %+v", one)
	}
}

// TestCollectiveDomainsSplitBoundaryAligned: runs that start or stop
// exactly on a domain boundary must not leak a byte across it.
func TestCollectiveDomainsSplitBoundaryAligned(t *testing.T) {
	d := spanCarve(130, 128+3*64, 64, 3) // start aligns down to 128
	// Exactly one domain, [128, 192).
	p := splitRun(nil, d, pfs.Run{Off: 128, Len: 64})
	if len(p) != 1 || p[0] != (placed{owner: 0, fileOff: 128, n: 64}) {
		t.Errorf("aligned split = %+v", p)
	}
	// Straddle the first boundary by one byte on each side.
	p = splitRun(nil, d, pfs.Run{Off: 191, Len: 2})
	if len(p) != 2 ||
		p[0] != (placed{owner: 0, fileOff: 191, n: 1}) ||
		p[1] != (placed{owner: 1, fileOff: 192, n: 1}) {
		t.Errorf("straddling split = %+v", p)
	}
	// Past the last domain: the tail rule absorbs everything.
	p = splitRun(nil, d, pfs.Run{Off: 128 + 3*64 - 1, Len: 10})
	if len(p) != 1 || p[0].owner != 2 || p[0].n != 10 {
		t.Errorf("tail split = %+v", p)
	}
}

// TestCollectiveDomainRunsZeroLengthRuns: zero-length runs contribute
// nothing to a domain's transfer list, and untouched domains get an
// empty one.
func TestCollectiveDomainRunsZeroLengthRuns(t *testing.T) {
	d := spanCarve(0, 128, 64, 2)
	placedBy := [][]placed{
		piecesOf(d, []pfs.Run{{Off: 10, Len: 0}, {Off: 20, Len: 4}}),
		piecesOf(d, []pfs.Run{{Off: 40, Len: 0}}),
	}
	if got := domainRuns(0, placedBy); len(got) != 1 || got[0] != (pfs.Run{Off: 20, Len: 4}) {
		t.Errorf("domainRuns(0) = %+v, want [{20 4}]", got)
	}
	// Domain 1 saw only a zero-length run.
	if got := domainRuns(1, placedBy); len(got) != 0 {
		t.Errorf("domainRuns(1) = %+v, want empty", got)
	}
	if got := domainRuns(0, nil); len(got) != 0 {
		t.Errorf("domainRuns of no runs = %+v, want empty", got)
	}
}

// TestCollectiveDomainRunsSingleByteAtBoundary: single-byte runs on
// either side of a domain boundary stay with their own domain.
func TestCollectiveDomainRunsSingleByteAtBoundary(t *testing.T) {
	d := spanCarve(0, 128, 64, 2)
	placedBy := [][]placed{
		piecesOf(d, []pfs.Run{{Off: 63, Len: 1}}),
		piecesOf(d, []pfs.Run{{Off: 64, Len: 1}}),
	}
	if got := domainRuns(0, placedBy); len(got) != 1 || got[0] != (pfs.Run{Off: 63, Len: 1}) {
		t.Errorf("domainRuns(0) = %+v, want [{63 1}]", got)
	}
	if got := domainRuns(1, placedBy); len(got) != 1 || got[0] != (pfs.Run{Off: 64, Len: 1}) {
		t.Errorf("domainRuns(1) = %+v, want [{64 1}]", got)
	}
}

// TestCollectiveDomainRunsCoalesces: the aggregator's transfer list is
// the coalesced union across ranks — overlapping and adjacent pieces
// from different ranks collapse.
func TestCollectiveDomainRunsCoalesces(t *testing.T) {
	d := spanCarve(0, 256, 256, 1)
	placedBy := [][]placed{
		piecesOf(d, []pfs.Run{{Off: 0, Len: 8}, {Off: 16, Len: 8}}),
		piecesOf(d, []pfs.Run{{Off: 8, Len: 8}, {Off: 100, Len: 4}}),
		piecesOf(d, []pfs.Run{{Off: 4, Len: 10}}), // overlaps both
	}
	got := domainRuns(0, placedBy)
	want := []pfs.Run{{Off: 0, Len: 24}, {Off: 100, Len: 4}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("domainRuns = %+v, want %+v", got, want)
	}
}
