package exp

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"drxmp/internal/core"
)

func TestE12MergeShape(t *testing.T) {
	tables := E12MergeAblation(Quick)
	rows := tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("E12 rows = %d", len(rows))
	}
	merged, _ := strconv.Atoi(rows[0][1])
	unmerged, _ := strconv.Atoi(rows[1][1])
	if merged <= 0 || unmerged <= merged*4 {
		t.Fatalf("E12 record counts: merged=%d unmerged=%d, want unmerged >> merged", merged, unmerged)
	}
}

// TestE12VariantsAgreeOnAddresses is the correctness half of the merge
// ablation: merging is purely a metadata compression, so both variants
// must produce the identical mapping (bijection equality over the whole
// space).
func TestE12VariantsAgreeOnAddresses(t *testing.T) {
	build := func(merge bool) *core.Space {
		s, err := core.NewSpace([]int{2, 3, 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 30; i++ {
			if !merge {
				s.BreakMerge()
			}
			if err := s.Extend(rng.Intn(3), 1+rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	a, b := build(true), build(false)
	if a.Total() != b.Total() {
		t.Fatalf("totals differ: %d vs %d", a.Total(), b.Total())
	}
	bounds := a.Bounds()
	idx := make([]int, 3)
	for idx[0] = 0; idx[0] < bounds[0]; idx[0]++ {
		for idx[1] = 0; idx[1] < bounds[1]; idx[1]++ {
			for idx[2] = 0; idx[2] < bounds[2]; idx[2]++ {
				qa, qb := a.MustMap(idx), b.MustMap(idx)
				if qa != qb {
					t.Fatalf("F*(%v): merged %d, unmerged %d", idx, qa, qb)
				}
			}
		}
	}
	if err := b.Check(); err != nil {
		t.Fatalf("unmerged space fails invariants: %v", err)
	}
}

func TestE14CacheShape(t *testing.T) {
	tables := E14CacheAblation(Quick)
	rows := tables[0].Rows
	if len(rows) < 5 {
		t.Fatalf("E14 rows = %d", len(rows))
	}
	// Chunk reads must be non-increasing as the cache grows, and the
	// full-working-set row must eliminate storage reads entirely.
	prev := int64(1 << 62)
	for _, r := range rows {
		reads, err := strconv.ParseInt(r[2], 10, 64)
		if err != nil {
			t.Fatalf("E14 chunk reads %q: %v", r[2], err)
		}
		if reads > prev {
			t.Fatalf("E14 not monotone: cache %s has %d reads after %d", r[0], reads, prev)
		}
		prev = reads
	}
	if lastReads := rows[len(rows)-1][2]; lastReads != "0" {
		t.Fatalf("E14 full-cache row still reads storage: %s", lastReads)
	}
	if !strings.Contains(rows[0][1], "%") {
		t.Fatalf("E14 hit rate column malformed: %q", rows[0][1])
	}
}

func TestE15TransportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP meshes")
	}
	tables := E15TransportAblation(Quick)
	rows := tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("E15 rows = %d", len(rows))
	}
	for _, r := range rows[:4] {
		if !strings.Contains(r[4], "B") && r[4] != "-" {
			t.Fatalf("E15 wire column malformed: %v", r)
		}
	}
}
