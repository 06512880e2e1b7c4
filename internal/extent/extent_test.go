package extent

import (
	"math/rand"
	"testing"
)

// TestCoalesceProperty is the property-based check of run coalescing
// (moved here from internal/pfs when the implementation moved): for
// random run lists (including empty and overlapping runs), the
// coalesced list is sorted, non-overlapping, never longer than the
// input, and covers exactly the same bytes. The pfs replay test
// additionally checks write-replay equality against a striped store.
func TestCoalesceProperty(t *testing.T) {
	const space = int64(600)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		runs := make([]Run, rng.Intn(13))
		for i := range runs {
			runs[i] = Run{Off: int64(rng.Intn(500)), Len: int64(rng.Intn(61))} // Len 0 allowed
		}
		out := Coalesce(runs)

		if len(out) > len(runs) {
			t.Fatalf("trial %d: coalesced %d runs into %d", trial, len(runs), len(out))
		}
		covered := make([]bool, space)
		var inputBytes int64
		for _, r := range runs {
			for b := r.Off; b < r.End(); b++ {
				if !covered[b] {
					covered[b] = true
					inputBytes++
				}
			}
		}
		var outBytes int64
		for i, r := range out {
			if r.Len <= 0 {
				t.Fatalf("trial %d: empty coalesced run %+v", trial, r)
			}
			if i > 0 && r.Off <= out[i-1].End() {
				// <= catches overlap AND un-merged adjacency.
				t.Fatalf("trial %d: runs %d,%d not sorted/disjoint: %+v %+v",
					trial, i-1, i, out[i-1], r)
			}
			for b := r.Off; b < r.End(); b++ {
				if !covered[b] {
					t.Fatalf("trial %d: coalesced run %+v covers byte %d the input never touched", trial, r, b)
				}
			}
			outBytes += r.Len
		}
		if inputBytes != outBytes {
			t.Fatalf("trial %d: input covers %d bytes, coalesced %d", trial, inputBytes, outBytes)
		}
	}
}

// TestCoalesceFixed pins small hand-checked cases.
func TestCoalesceFixed(t *testing.T) {
	cases := []struct {
		name string
		in   []Run
		want []Run
	}{
		{"empty", nil, nil},
		{"zero-length-dropped", []Run{{Off: 5, Len: 0}}, nil},
		{"adjacent-merge", []Run{{0, 4}, {4, 4}}, []Run{{0, 8}}},
		{"gap-kept", []Run{{0, 4}, {5, 4}}, []Run{{0, 4}, {5, 4}}},
		{"overlap-merge", []Run{{0, 6}, {4, 6}}, []Run{{0, 10}}},
		{"contained", []Run{{0, 10}, {2, 3}}, []Run{{0, 10}}},
		{"unsorted", []Run{{8, 2}, {0, 2}, {2, 6}}, []Run{{0, 10}}},
	}
	for _, tc := range cases {
		got := Coalesce(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
				break
			}
		}
	}
}

// TestHolesProperty: Holes(span, cover) and cover∩span partition span —
// every byte of span is in exactly one of the two, holes are sorted,
// disjoint from cover, and non-adjacent to each other.
func TestHolesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		span := Run{Off: int64(rng.Intn(100)), Len: int64(1 + rng.Intn(200))}
		var raw []Run
		for i := 0; i < rng.Intn(8); i++ {
			raw = append(raw, Run{Off: int64(rng.Intn(300)), Len: int64(rng.Intn(50))})
		}
		cover := Coalesce(raw)
		holes := Holes(span, cover)

		inCover := func(b int64) bool {
			for _, c := range cover {
				if b >= c.Off && b < c.End() {
					return true
				}
			}
			return false
		}
		got := make(map[int64]bool)
		for i, h := range holes {
			if h.Len <= 0 {
				t.Fatalf("trial %d: empty hole %+v", trial, h)
			}
			if i > 0 && h.Off <= holes[i-1].End() {
				t.Fatalf("trial %d: holes %+v, %+v not sorted/merged", trial, holes[i-1], h)
			}
			for b := h.Off; b < h.End(); b++ {
				if b < span.Off || b >= span.End() {
					t.Fatalf("trial %d: hole byte %d outside span %+v", trial, b, span)
				}
				if inCover(b) {
					t.Fatalf("trial %d: hole byte %d is covered", trial, b)
				}
				got[b] = true
			}
		}
		for b := span.Off; b < span.End(); b++ {
			if !inCover(b) && !got[b] {
				t.Fatalf("trial %d: uncovered span byte %d missing from holes", trial, b)
			}
		}
	}
}

// TestIntersectProperty: for disjoint runs in any order and a coalesced
// cover, Intersect returns exactly the bytes both cover, each inside the
// run it came from, in the order of the runs.
func TestIntersectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		var runs []Run
		for at := int64(rng.Intn(40)); at < 300 && len(runs) < 6; at += int64(1 + rng.Intn(40)) {
			n := int64(1 + rng.Intn(50))
			runs = append(runs, Run{Off: at, Len: n})
			at += n
		}
		rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		var raw []Run
		for i := 0; i < rng.Intn(8); i++ {
			raw = append(raw, Run{Off: int64(rng.Intn(350)), Len: int64(rng.Intn(60))})
		}
		cover := Coalesce(raw)
		in := func(b int64, rs []Run) int {
			for i, r := range rs {
				if b >= r.Off && b < r.End() {
					return i
				}
			}
			return -1
		}
		got := make(map[int64]bool)
		from := 0 // the run the last piece came from
		for _, p := range Intersect(runs, cover) {
			if p.Len <= 0 {
				t.Fatalf("trial %d: empty piece %+v", trial, p)
			}
			k := in(p.Off, runs)
			if k < from {
				t.Fatalf("trial %d: piece %+v out of the runs' order", trial, p)
			}
			from = k
			for b := p.Off; b < p.End(); b++ {
				if in(b, runs) != k || in(b, cover) < 0 || got[b] {
					t.Fatalf("trial %d: piece %+v byte %d is outside its run, uncovered or repeated", trial, p, b)
				}
				got[b] = true
			}
		}
		for b := int64(0); b < 400; b++ {
			if in(b, runs) >= 0 && in(b, cover) >= 0 && !got[b] {
				t.Fatalf("trial %d: byte %d of both lists missing", trial, b)
			}
		}
	}
}

// TestOverlapsProperty: Overlaps agrees with a byte walk, for random
// run lists (empty runs included) searched both ways when Sorted holds
// and by the walk when it does not; and Sorted holds exactly for lists
// of ascending, disjoint runs.
func TestOverlapsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		var runs []Run
		at := int64(rng.Intn(20))
		for range rng.Intn(9) {
			n := int64(rng.Intn(30)) // Len 0 allowed
			runs = append(runs, Run{Off: at, Len: n})
			at += n + int64(rng.Intn(20))
		}
		if trial%3 == 0 && len(runs) > 1 {
			i := rng.Intn(len(runs) - 1)
			runs[i], runs[i+1] = runs[i+1], runs[i]
		}
		ordered := true
		for i := 1; i < len(runs); i++ {
			ordered = ordered && runs[i].Off >= runs[i-1].End()
		}
		sorted := Sorted(runs)
		if sorted != ordered {
			t.Fatalf("trial %d: Sorted(%v) = %v", trial, runs, sorted)
		}
		for range 20 {
			r := Run{Off: int64(rng.Intn(300)), Len: int64(rng.Intn(40))}
			want := false
			for _, x := range runs {
				for b := r.Off; b < r.End(); b++ {
					want = want || (b >= x.Off && b < x.End())
				}
			}
			if got := Overlaps(runs, r, false); got != want {
				t.Fatalf("trial %d: Overlaps(%v, %+v, walk) = %v, want %v", trial, runs, r, got, want)
			}
			if got := Overlaps(runs, r, true); sorted && got != want {
				t.Fatalf("trial %d: Overlaps(%v, %+v, sorted) = %v, want %v", trial, runs, r, got, want)
			}
		}
	}
}

// TestHolesFixed pins hand-checked hole cases.
func TestHolesFixed(t *testing.T) {
	cases := []struct {
		name  string
		span  Run
		cover []Run
		want  []Run
	}{
		{"no-cover", Run{10, 10}, nil, []Run{{10, 10}}},
		{"full-cover", Run{10, 10}, []Run{{0, 40}}, nil},
		{"left-gap", Run{10, 10}, []Run{{15, 20}}, []Run{{10, 5}}},
		{"right-gap", Run{10, 10}, []Run{{0, 15}}, []Run{{15, 5}}},
		{"middle-gap", Run{0, 30}, []Run{{0, 10}, {20, 10}}, []Run{{10, 10}}},
		{"outside-ignored", Run{10, 10}, []Run{{0, 5}, {40, 5}}, []Run{{10, 10}}},
	}
	for _, tc := range cases {
		got := Holes(tc.span, tc.cover)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
				break
			}
		}
	}
}

// TestAlign pins alignment rounding.
func TestAlign(t *testing.T) {
	cases := []struct {
		r    Run
		unit int64
		want Run
	}{
		{Run{10, 10}, 8, Run{8, 16}},
		{Run{16, 8}, 8, Run{16, 8}},
		{Run{0, 1}, 64, Run{0, 64}},
		{Run{10, 10}, 1, Run{10, 10}},
		{Run{10, 10}, 0, Run{10, 10}},
	}
	for _, tc := range cases {
		if got := Align(tc.r, tc.unit); got != tc.want {
			t.Errorf("Align(%+v, %d) = %+v, want %+v", tc.r, tc.unit, got, tc.want)
		}
	}
}
