package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// mustSpace builds a space or fails the test.
func mustSpace(t *testing.T, bounds []int) *Space {
	t.Helper()
	s, err := NewSpace(bounds)
	if err != nil {
		t.Fatalf("NewSpace(%v): %v", bounds, err)
	}
	return s
}

func mustExtend(t *testing.T, s *Space, dim, by int) {
	t.Helper()
	if err := s.Extend(dim, by); err != nil {
		t.Fatalf("Extend(%d,%d): %v", dim, by, err)
	}
}

// fig1Space reproduces the expansion history of the paper's Fig. 1:
// a 2-D array of 2x3-element chunks grown from a single chunk to a
// 5x4 chunk grid. History (in chunk indices): initial [1,1]; D1+1;
// D0+1; D0+1 (uninterrupted); D1+1; D0+1; D1+1; D0+1.
func fig1Space(t *testing.T) *Space {
	s := mustSpace(t, []int{1, 1})
	steps := []struct{ dim, by int }{
		{1, 1}, {0, 1}, {0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 1},
	}
	for _, st := range steps {
		mustExtend(t, s, st.dim, st.by)
	}
	return s
}

// TestFig1ChunkAddresses verifies the exact chunk-address grid of the
// paper's Fig. 1 (addresses 0..19 over a 5x4 chunk grid).
func TestFig1ChunkAddresses(t *testing.T) {
	s := fig1Space(t)
	if got := s.Bounds(); !reflect.DeepEqual(got, []int{5, 4}) {
		t.Fatalf("bounds = %v, want [5 4]", got)
	}
	want := [5][4]int64{
		{0, 1, 6, 12},
		{2, 3, 7, 13},
		{4, 5, 8, 14},
		{9, 10, 11, 15},
		{16, 17, 18, 19},
	}
	for i0 := 0; i0 < 5; i0++ {
		for i1 := 0; i1 < 4; i1++ {
			q, err := s.Map([]int{i0, i1})
			if err != nil {
				t.Fatalf("Map(%d,%d): %v", i0, i1, err)
			}
			if q != want[i0][i1] {
				t.Errorf("F*(%d,%d) = %d, want %d", i0, i1, q, want[i0][i1])
			}
		}
	}
}

// TestFig1PaperExample checks the paper's Section II worked value:
// chunk A[4,2] is assigned to linear address 18, i.e. F*(4,2) = 18.
func TestFig1PaperExample(t *testing.T) {
	s := fig1Space(t)
	if q := s.MustMap([]int{4, 2}); q != 18 {
		t.Fatalf("F*(4,2) = %d, want 18 (paper Section II)", q)
	}
}

// fig3Space reproduces the paper's Fig. 3 history: initial A[4][3][1],
// extend D2 by 2 (two consecutive extensions, merged as uninterrupted),
// then D1 by 1, D0 by 2, D2 by 1.
func fig3Space(t *testing.T) *Space {
	s := mustSpace(t, []int{4, 3, 1})
	mustExtend(t, s, 2, 1)
	mustExtend(t, s, 2, 1) // uninterrupted with the previous extension
	mustExtend(t, s, 1, 1)
	mustExtend(t, s, 0, 2)
	mustExtend(t, s, 2, 1)
	return s
}

// TestFig3AxialVectors verifies the exact axial-vector records of the
// paper's Fig. 3b, including sentinel entries and merged uninterrupted
// expansions (E0=2, E1=2, E2=3).
func TestFig3AxialVectors(t *testing.T) {
	s := fig3Space(t)
	if got := s.Bounds(); !reflect.DeepEqual(got, []int{6, 4, 4}) {
		t.Fatalf("bounds = %v, want [6 4 4]", got)
	}
	if s.Total() != 96 {
		t.Fatalf("total = %d, want 96", s.Total())
	}
	want := [][]Record{
		{ // Γ0
			{Start: 0, Base: 0, Coef: []int64{3, 1, 1}},
			{Start: 4, Base: 48, Coef: []int64{12, 3, 1}},
		},
		{ // Γ1
			{Start: 0, Base: SentinelBase, Coef: []int64{0, 0, 0}},
			{Start: 3, Base: 36, Coef: []int64{3, 12, 1}},
		},
		{ // Γ2
			{Start: 0, Base: SentinelBase, Coef: []int64{0, 0, 0}},
			{Start: 1, Base: 12, Coef: []int64{3, 1, 12}},
			{Start: 3, Base: 72, Coef: []int64{4, 1, 24}},
		},
	}
	for d := 0; d < 3; d++ {
		got := s.Records(d)
		if len(got) != len(want[d]) {
			t.Fatalf("dimension %d: %d records, want %d (got %+v)", d, len(got), len(want[d]), got)
		}
		for i := range got {
			if got[i].Start != want[d][i].Start || got[i].Base != want[d][i].Base ||
				!reflect.DeepEqual(got[i].Coef, want[d][i].Coef) {
				t.Errorf("Γ%d[%d] = %+v, want %+v", d, i, got[i], want[d][i])
			}
		}
	}
}

// TestFig3WorkedAddresses verifies the specific linear addresses quoted
// in the paper's Section III: A[2,1,0] -> 7, A[3,1,2] -> 34, and the
// fully worked F*(<4,2,2>) = 56.
func TestFig3WorkedAddresses(t *testing.T) {
	s := fig3Space(t)
	cases := []struct {
		idx  []int
		want int64
	}{
		{[]int{2, 1, 0}, 7},
		{[]int{3, 1, 2}, 34},
		{[]int{4, 2, 2}, 56},
	}
	for _, c := range cases {
		if got := s.MustMap(c.idx); got != c.want {
			t.Errorf("F*(%v) = %d, want %d", c.idx, got, c.want)
		}
	}
}

// TestFig3FullBijection checks that the 96 chunks of the Fig. 3 space
// map bijectively onto addresses 0..95 and that Inverse inverts Map
// everywhere.
func TestFig3FullBijection(t *testing.T) {
	s := fig3Space(t)
	checkBijection(t, s)
}

// checkBijection exhaustively verifies that Map is a bijection from the
// bounds box onto [0, Total()) and that Inverse is its inverse.
func checkBijection(t *testing.T, s *Space) {
	t.Helper()
	seen := make([]bool, s.Total())
	idx := make([]int, s.Rank())
	var rec func(d int)
	rec = func(d int) {
		if d == s.Rank() {
			q, err := s.Map(idx)
			if err != nil {
				t.Fatalf("Map(%v): %v", idx, err)
			}
			if q < 0 || q >= s.Total() {
				t.Fatalf("Map(%v) = %d outside [0,%d)", idx, q, s.Total())
			}
			if seen[q] {
				t.Fatalf("address %d assigned twice (second time to %v)", q, idx)
			}
			seen[q] = true
			inv, err := s.Inverse(q, nil)
			if err != nil {
				t.Fatalf("Inverse(%d): %v", q, err)
			}
			if !reflect.DeepEqual(inv, idx) {
				t.Fatalf("Inverse(Map(%v)) = %v", idx, inv)
			}
			return
		}
		for i := 0; i < s.Bound(d); i++ {
			idx[d] = i
			rec(d + 1)
		}
	}
	rec(0)
	for q, ok := range seen {
		if !ok {
			t.Fatalf("address %d never assigned", q)
		}
	}
}

func TestNewSpaceErrors(t *testing.T) {
	if _, err := NewSpace(nil); err == nil {
		t.Error("NewSpace(nil) succeeded")
	}
	if _, err := NewSpace([]int{}); err == nil {
		t.Error("NewSpace(empty) succeeded")
	}
	if _, err := NewSpace([]int{3, 0}); err == nil {
		t.Error("NewSpace with zero bound succeeded")
	}
	if _, err := NewSpace([]int{3, -1}); err == nil {
		t.Error("NewSpace with negative bound succeeded")
	}
}

func TestExtendErrors(t *testing.T) {
	s := mustSpace(t, []int{2, 2})
	if err := s.Extend(-1, 1); err == nil {
		t.Error("Extend(-1,1) succeeded")
	}
	if err := s.Extend(2, 1); err == nil {
		t.Error("Extend(2,1) succeeded")
	}
	if err := s.Extend(0, 0); err == nil {
		t.Error("Extend(0,0) succeeded")
	}
	if err := s.Extend(0, -3); err == nil {
		t.Error("Extend(0,-3) succeeded")
	}
}

func TestMapErrors(t *testing.T) {
	s := mustSpace(t, []int{2, 3})
	if _, err := s.Map([]int{0}); err == nil {
		t.Error("rank-mismatched Map succeeded")
	}
	for _, idx := range [][]int{{-1, 0}, {2, 0}, {0, 3}, {0, -1}} {
		if _, err := s.Map(idx); !errors.Is(err, ErrBounds) {
			t.Errorf("Map(%v) err = %v, want ErrBounds", idx, err)
		}
	}
	if _, err := s.Inverse(-1, nil); !errors.Is(err, ErrBounds) {
		t.Error("Inverse(-1) did not return ErrBounds")
	}
	if _, err := s.Inverse(6, nil); !errors.Is(err, ErrBounds) {
		t.Error("Inverse(total) did not return ErrBounds")
	}
}

// TestInitialIsRowMajor verifies that before any extension the mapping
// coincides with plain row-major order (the paper's initial allocation).
func TestInitialIsRowMajor(t *testing.T) {
	s := mustSpace(t, []int{3, 4, 5})
	for i0 := 0; i0 < 3; i0++ {
		for i1 := 0; i1 < 4; i1++ {
			for i2 := 0; i2 < 5; i2++ {
				want := int64(i0*20 + i1*5 + i2)
				if got := s.MustMap([]int{i0, i1, i2}); got != want {
					t.Fatalf("F*(%d,%d,%d) = %d, want row-major %d", i0, i1, i2, got, want)
				}
			}
		}
	}
}

// TestUninterruptedMerge verifies that repeated extensions of one
// dimension share a single axial record while still covering all new
// addresses contiguously.
func TestUninterruptedMerge(t *testing.T) {
	s := mustSpace(t, []int{2, 2})
	mustExtend(t, s, 1, 1)
	recs := s.Records(1)
	if len(recs) != 2 { // sentinel + 1
		t.Fatalf("after first D1 extension: %d records, want 2", len(recs))
	}
	for i := 0; i < 5; i++ {
		mustExtend(t, s, 1, 1)
	}
	if got := s.Records(1); len(got) != 2 {
		t.Fatalf("after 6 uninterrupted D1 extensions: %d records, want 2", len(got))
	}
	if s.Bound(1) != 8 {
		t.Fatalf("bound(1) = %d, want 8", s.Bound(1))
	}
	checkBijection(t, s)

	// An intervening extension of another dimension breaks the run.
	mustExtend(t, s, 0, 1)
	mustExtend(t, s, 1, 1)
	if got := s.Records(1); len(got) != 3 {
		t.Fatalf("after interrupted D1 extension: %d records, want 3", len(got))
	}
	checkBijection(t, s)
}

// TestInitialMergesWithDim0 verifies that an immediate extension of
// dimension 0 merges with the initial-allocation record (the initial
// allocation is, by construction, an expansion of dimension 0).
func TestInitialMergesWithDim0(t *testing.T) {
	s := mustSpace(t, []int{2, 3})
	mustExtend(t, s, 0, 2)
	if got := s.Records(0); len(got) != 1 {
		t.Fatalf("Γ0 has %d records, want 1 (merged)", len(got))
	}
	// Must equal plain row-major of the final 4x3 shape.
	for i0 := 0; i0 < 4; i0++ {
		for i1 := 0; i1 < 3; i1++ {
			want := int64(i0*3 + i1)
			if got := s.MustMap([]int{i0, i1}); got != want {
				t.Fatalf("F*(%d,%d) = %d, want %d", i0, i1, got, want)
			}
		}
	}
}

// TestNoReorganization is the paper's central invariant: extending any
// dimension never changes the address of an already-allocated chunk.
func TestNoReorganization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		k := 1 + rng.Intn(4)
		bounds := make([]int, k)
		for i := range bounds {
			bounds[i] = 1 + rng.Intn(3)
		}
		s := mustSpace(t, bounds)
		type snap struct {
			idx  []int
			addr int64
		}
		var history []snap
		record := func() {
			idx := make([]int, k)
			var rec func(d int)
			rec = func(d int) {
				if d == k {
					history = append(history, snap{append([]int(nil), idx...), s.MustMap(idx)})
					return
				}
				for i := 0; i < s.Bound(d); i++ {
					idx[d] = i
					rec(d + 1)
				}
			}
			rec(0)
		}
		for step := 0; step < 8; step++ {
			history = history[:0]
			record()
			mustExtend(t, s, rng.Intn(k), 1+rng.Intn(2))
			for _, h := range history {
				if got := s.MustMap(h.idx); got != h.addr {
					t.Fatalf("trial %d step %d: F*(%v) moved from %d to %d after extension",
						trial, step, h.idx, h.addr, got)
				}
			}
		}
	}
}

// TestRandomHistoriesBijection drives random expansion histories and
// checks bijectivity, inverse correctness and Check() after every step.
func TestRandomHistoriesBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(4)
		bounds := make([]int, k)
		for i := range bounds {
			bounds[i] = 1 + rng.Intn(3)
		}
		s := mustSpace(t, bounds)
		for step := 0; step < 6; step++ {
			mustExtend(t, s, rng.Intn(k), 1+rng.Intn(3))
			if err := s.Check(); err != nil {
				t.Fatalf("trial %d step %d: Check: %v", trial, step, err)
			}
			if s.Total() <= 4096 {
				checkBijection(t, s)
			}
		}
	}
}

// TestQuickInverseRoundTrip is a property-based test: for arbitrary
// histories and arbitrary in-range addresses, Map(Inverse(q)) == q.
func TestQuickInverseRoundTrip(t *testing.T) {
	f := func(seed int64, hist []uint8, probe uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		bounds := make([]int, k)
		for i := range bounds {
			bounds[i] = 1 + rng.Intn(3)
		}
		s, err := NewSpace(bounds)
		if err != nil {
			return false
		}
		for _, h := range hist {
			if len(hist) > 12 {
				hist = hist[:12]
			}
			if err := s.Extend(int(h)%k, 1+int(h/16)%3); err != nil {
				return false
			}
		}
		q := int64(probe) % s.Total()
		idx, err := s.Inverse(q, nil)
		if err != nil {
			return false
		}
		back, err := s.Map(idx)
		return err == nil && back == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickMonotoneGrowth is a property-based test: new chunks always get
// addresses >= the previous Total (append-only allocation).
func TestQuickMonotoneGrowth(t *testing.T) {
	f := func(seed int64, hist []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		bounds := make([]int, k)
		for i := range bounds {
			bounds[i] = 1 + rng.Intn(2)
		}
		s, err := NewSpace(bounds)
		if err != nil {
			return false
		}
		if len(hist) > 10 {
			hist = hist[:10]
		}
		for _, h := range hist {
			before := s.Total()
			dim := int(h) % k
			if err := s.Extend(dim, 1); err != nil {
				return false
			}
			// Every index with idx[dim] in the newly added range must map
			// to an address >= before.
			ok := true
			idx := make([]int, k)
			var rec func(d int)
			rec = func(d int) {
				if !ok {
					return
				}
				if d == k {
					if s.MustMap(idx) < before {
						ok = false
					}
					return
				}
				lo, hi := 0, s.Bound(d)
				if d == dim {
					lo = hi - 1
				}
				for i := lo; i < hi; i++ {
					idx[d] = i
					rec(d + 1)
				}
			}
			if s.Total()-before <= 2048 {
				rec(0)
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestExtendTo(t *testing.T) {
	s := mustSpace(t, []int{2, 2, 2})
	if err := s.ExtendTo([]int{4, 2, 5}); err != nil {
		t.Fatal(err)
	}
	if got := s.Bounds(); !reflect.DeepEqual(got, []int{4, 2, 5}) {
		t.Fatalf("bounds = %v", got)
	}
	// Shrinking requests are ignored.
	if err := s.ExtendTo([]int{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if got := s.Bounds(); !reflect.DeepEqual(got, []int{4, 2, 5}) {
		t.Fatalf("bounds after shrink request = %v", got)
	}
	if err := s.ExtendTo([]int{1, 1}); err == nil {
		t.Error("rank-mismatched ExtendTo succeeded")
	}
	checkBijection(t, s)
}

// TestCheckRejectsCorruption: Check, the structural oracle of the
// property tests, flags each kind of broken space.
func TestCheckRejectsCorruption(t *testing.T) {
	cases := []func(s *Space){
		func(s *Space) { s.total++ },                         // total mismatch
		func(s *Space) { s.bounds[0] = 0 },                   // zero bound
		func(s *Space) { s.axial[0].Records[0].Base = 5 },    // dimension-0 root moved
		func(s *Space) { s.axial[2].Records[1].Coef[0] = 0 }, // zero coefficient
		func(s *Space) { s.axial = s.axial[:2] },             // missing axial vector
		func(s *Space) { s.lastDim = 9 },                     // lastDim out of range
	}
	for i, corrupt := range cases {
		s := fig3Space(t)
		corrupt(s)
		if err := s.Check(); err == nil {
			t.Errorf("corruption case %d accepted", i)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := fig1Space(t)
	c := s.Clone()
	mustExtend(t, c, 0, 3)
	if s.Bound(0) != 5 {
		t.Fatalf("clone extension leaked into original: bound(0)=%d", s.Bound(0))
	}
	if c.Bound(0) != 8 {
		t.Fatalf("clone bound(0)=%d, want 8", c.Bound(0))
	}
	checkBijection(t, c)
}

func TestRankOne(t *testing.T) {
	s := mustSpace(t, []int{3})
	mustExtend(t, s, 0, 4)
	if s.Total() != 7 {
		t.Fatalf("total = %d", s.Total())
	}
	for i := 0; i < 7; i++ {
		if got := s.MustMap([]int{i}); got != int64(i) {
			t.Fatalf("F*(%d) = %d", i, got)
		}
	}
	if got := s.Records(0); len(got) != 1 {
		t.Fatalf("rank-1 space has %d records, want 1", len(got))
	}
}

// TestComplexityRecordGrowth confirms E grows with interrupted
// expansions only: alternating extensions add one record each, repeated
// extensions add none.
func TestComplexityRecordGrowth(t *testing.T) {
	s := mustSpace(t, []int{1, 1})
	base := s.NumRecords()
	// Start with dim 1: a leading dim-0 extension would merge with the
	// initial-allocation record (which belongs to dim 0).
	for i := 0; i < 10; i++ {
		mustExtend(t, s, (i+1)%2, 1)
	}
	if got := s.NumRecords() - base; got != 10 {
		t.Fatalf("10 alternating extensions added %d records, want 10", got)
	}
	// lastDim is now 0; a run of dim-1 extensions adds exactly one record.
	for i := 0; i < 10; i++ {
		mustExtend(t, s, 1, 1)
	}
	if got := s.NumRecords() - base; got != 11 {
		t.Fatalf("after same-dim run: %d new records, want 11", got)
	}
}

func TestDumpContainsRecords(t *testing.T) {
	s := fig3Space(t)
	d := s.Dump()
	for _, frag := range []string{"D0:", "D1:", "D2:", "(4; 48; 12 3 1)", "(1; 12; 3 1 12)", "(3; 72; 4 1 24)", "(0; -1; 0 0 0)"} {
		if !contains(d, frag) {
			t.Errorf("Dump() missing %q:\n%s", frag, d)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func BenchmarkMap3D(b *testing.B) {
	s, _ := NewSpace([]int{4, 3, 1})
	_ = s.Extend(2, 2)
	_ = s.Extend(1, 1)
	_ = s.Extend(0, 2)
	_ = s.Extend(2, 1)
	idx := []int{4, 2, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.mapUnchecked(idx) != 56 {
			b.Fatal("wrong address")
		}
	}
}

func BenchmarkInverse3D(b *testing.B) {
	s, _ := NewSpace([]int{4, 3, 1})
	_ = s.Extend(2, 2)
	_ = s.Extend(1, 1)
	_ = s.Extend(0, 2)
	_ = s.Extend(2, 1)
	dst := make([]int, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Inverse(56, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapManyRecords is F* as its record count E grows, every
// extension interrupting the last: the paper's binary search over each
// axial vector, O(k + log E), against a linear scan, O(k + E). The
// search stays nearly flat in E; the scan wins for the small E that
// merging keeps and loses by several times from E ≈ 256 on.
func BenchmarkMapManyRecords(b *testing.B) {
	for _, steps := range []int{4, 16, 64, 256, 512, 2048} {
		s, _ := NewSpace([]int{2, 2, 2})
		for i := 0; i < steps; i++ {
			_ = s.Extend(i%3, 1)
		}
		bd := s.Bounds()
		rng := rand.New(rand.NewSource(int64(steps)))
		probes := make([][]int, 64)
		for i := range probes {
			probes[i] = []int{rng.Intn(bd[0]), rng.Intn(bd[1]), rng.Intn(bd[2])}
			if got, want := linearMap(s, probes[i]), s.mapUnchecked(probes[i]); got != want {
				b.Fatalf("linearMap(%v) = %d, want %d", probes[i], got, want)
			}
		}
		for _, leg := range []struct {
			name string
			f    func(*Space, []int) int64
		}{{"bsearch", (*Space).mapUnchecked}, {"linear", linearMap}} {
			b.Run(fmt.Sprintf("E=%d/%s", s.NumRecords(), leg.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					leg.f(s, probes[i%len(probes)])
				}
			})
		}
	}
}

// linearMap is mapUnchecked with a linear scan in place of the binary
// search for each dimension's covering record.
func linearMap(s *Space, idx []int) int64 {
	var rz *Record
	z := -1
	for j := range idx {
		recs := s.axial[j].Records
		rj := &recs[0]
		for r := 1; r < len(recs) && recs[r].Start <= idx[j]; r++ {
			rj = &recs[r]
		}
		if z < 0 || rj.Base > rz.Base {
			z, rz = j, rj
		}
	}
	q := rz.Base + int64(idx[z]-rz.Start)*rz.Coef[z]
	for j, i := range idx {
		if j != z {
			q += int64(i) * rz.Coef[j]
		}
	}
	return q
}
