package place

import (
	"math/rand"
	"testing"

	"drxmp/internal/pfs"
)

// randomReq builds a random but well-formed carving request over a
// random file size.
func randomReq(rng *rand.Rand) Req {
	fileBytes := 1 + rng.Int63n(729*1000)

	ranks := 1 + rng.Intn(8)
	runs := make([][]pfs.Run, ranks)
	lo, hi := int64(-1), int64(-1)
	var total int64
	for r := range runs {
		for k := rng.Intn(4); k > 0; k-- {
			off := rng.Int63n(fileBytes)
			n := 1 + rng.Int63n(fileBytes-off)
			runs[r] = append(runs[r], pfs.Run{Off: off, Len: n})
			if lo < 0 || off < lo {
				lo = off
			}
			if off+n > hi {
				hi = off + n
			}
			total += n
		}
		runs[r] = pfs.Coalesce(runs[r])
	}
	if lo < 0 { // nobody transfers: synthesize a minimal span
		lo, hi, total = 0, fileBytes, fileBytes
	}
	stripes := []int64{64, 256, 1024}
	return Req{
		Lo: lo, Hi: hi, TotalBytes: total,
		Ranks:       ranks,
		Stripe:      stripes[rng.Intn(len(stripes))],
		WriteBehind: rng.Intn(2) == 0,
		Runs:        runs,
	}
}

// checkPartition walks [req.Lo, req.Hi) in Owner/BlockEnd blocks and
// verifies the carving is a total partition: every walk step makes
// progress (no gaps — BlockEnd is the next boundary, so consecutive
// blocks tile the span with no overlap), every owner is a valid rank
// below N(), and ownership is constant within each block.
func checkPartition(t *testing.T, d Domains, req Req) {
	t.Helper()
	n := d.N()
	if n < 1 || n > req.Ranks {
		t.Fatalf("N() = %d outside [1, %d]", n, req.Ranks)
	}
	off := req.Lo
	steps := 0
	for off < req.Hi {
		owner := d.Owner(off)
		if owner < 0 || owner >= n {
			t.Fatalf("Owner(%d) = %d outside [0, %d)", off, owner, n)
		}
		end := d.BlockEnd(off)
		if end <= off {
			t.Fatalf("BlockEnd(%d) = %d makes no progress", off, end)
		}
		if end > req.Hi {
			end = req.Hi
		}
		// Ownership must hold across the whole block, not just its
		// first byte.
		for _, s := range []int64{off, (off + end - 1) / 2, end - 1} {
			if got := d.Owner(s); got != owner {
				t.Fatalf("Owner(%d) = %d inside block [%d,%d) owned by %d", s, got, off, end, owner)
			}
		}
		off = end
		if steps++; steps > 1<<20 {
			t.Fatalf("partition walk did not terminate")
		}
	}
}

// sameCarving compares two carvings over the request span.
func sameCarving(a, b Domains, req Req, rng *rand.Rand) bool {
	if a.N() != b.N() {
		return false
	}
	for i := 0; i < 256; i++ {
		off := req.Lo + rng.Int63n(req.Hi-req.Lo)
		if a.Owner(off) != b.Owner(off) {
			return false
		}
	}
	return true
}

// TestPoliciesPartitionAndDeterministic is the carving property test:
// for random spans, stripe sizes, rank counts, and run sets, the
// ByteCyclic domains exactly partition the collective span (no gaps,
// no overlaps, valid owners) and carving the same request twice — as
// two ranks of a collective would — yields the identical placement.
func TestPoliciesPartitionAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		req := randomReq(rng)
		d := ByteCyclic{}.Carve(req)
		checkPartition(t, d, req)
		if !sameCarving(d, ByteCyclic{}.Carve(req), req, rand.New(rand.NewSource(int64(trial)))) {
			t.Fatalf("trial %d: carving is not deterministic", trial)
		}
	}
}
