package grid

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestShapeBasics(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.Rank() != 3 {
		t.Fatalf("Rank = %d", s.Rank())
	}
	if s.Volume() != 24 {
		t.Fatalf("Volume = %d", s.Volume())
	}
	if got := s.String(); got != "[2x3x4]" {
		t.Fatalf("String = %q", got)
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 2 {
		t.Fatal("Clone aliases original")
	}
	if !s.Equal(Shape{2, 3, 4}) || s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 3, 5}) {
		t.Fatal("Equal misbehaves")
	}
}

func TestShapeValidate(t *testing.T) {
	if err := (Shape{}).Validate(); err == nil {
		t.Error("empty shape validated")
	}
	if err := (Shape{1, -1}).Validate(); err == nil {
		t.Error("negative extent validated")
	}
	if err := (Shape{0, 5}).Validate(); err != nil {
		t.Errorf("zero extent rejected: %v", err)
	}
	if (Shape{0, 5}).Positive() {
		t.Error("zero extent reported positive")
	}
	if !(Shape{1, 5}).Positive() {
		t.Error("positive shape reported non-positive")
	}
}

func TestStridesAndOffset(t *testing.T) {
	s := Shape{2, 3, 4}
	if got := Strides(s, RowMajor); !reflect.DeepEqual(got, []int64{12, 4, 1}) {
		t.Fatalf("row-major strides = %v", got)
	}
	if got := Strides(s, ColMajor); !reflect.DeepEqual(got, []int64{1, 2, 6}) {
		t.Fatalf("col-major strides = %v", got)
	}
	if got := Offset(s, []int{1, 2, 3}, RowMajor); got != 23 {
		t.Fatalf("row-major offset = %d", got)
	}
	if got := Offset(s, []int{1, 2, 3}, ColMajor); got != 23 {
		t.Fatalf("col-major offset = %d", got)
	}
	if got := Offset(s, []int{1, 0, 0}, RowMajor); got != 12 {
		t.Fatalf("offset = %d", got)
	}
	if got := Offset(s, []int{1, 0, 0}, ColMajor); got != 1 {
		t.Fatalf("offset = %d", got)
	}
}

func TestOffsetPanicsOnRankMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Offset(Shape{2, 2}, []int{1}, RowMajor)
}

func TestUnoffsetRoundTrip(t *testing.T) {
	s := Shape{3, 4, 5}
	for _, o := range []Order{RowMajor, ColMajor} {
		for q := int64(0); q < s.Volume(); q++ {
			idx := Unoffset(s, q, o, nil)
			if got := Offset(s, idx, o); got != q {
				t.Fatalf("%v: Offset(Unoffset(%d)) = %d", o, q, got)
			}
		}
	}
}

func TestQuickOffsetRoundTrip(t *testing.T) {
	f := func(a, b, c uint8, q uint16) bool {
		s := Shape{int(a%5) + 1, int(b%5) + 1, int(c%5) + 1}
		qq := int64(q) % s.Volume()
		for _, o := range []Order{RowMajor, ColMajor} {
			if Offset(s, Unoffset(s, qq, o, nil), o) != qq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBoxVolumeAllocFree: Volume multiplies the extents in place —
// zero for an empty box, one for rank 0 — without building a Shape.
func TestBoxVolumeAllocFree(t *testing.T) {
	for _, c := range []struct {
		b    Box
		want int64
	}{
		{NewBox([]int{1, 2, 0}, []int{4, 5, 7}), 63},
		{NewBox([]int{3, 2}, []int{1, 5}), 0},
		{NewBox([]int{3}, []int{3}), 0},
		{Box{}, 1},
	} {
		if got := c.b.Volume(); got != c.want {
			t.Errorf("%v.Volume() = %d, want %d", c.b, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = c.b.Volume() }); n != 0 {
			t.Errorf("%v.Volume() allocates %.0f times", c.b, n)
		}
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox([]int{1, 2}, []int{4, 5})
	if b.Rank() != 2 || b.Volume() != 9 {
		t.Fatalf("box %v: rank %d vol %d", b, b.Rank(), b.Volume())
	}
	if !b.Contains([]int{1, 2}) || !b.Contains([]int{3, 4}) {
		t.Error("Contains misses interior")
	}
	if b.Contains([]int{4, 2}) || b.Contains([]int{0, 2}) || b.Contains([]int{1}) {
		t.Error("Contains accepts exterior")
	}
	if b.Empty() {
		t.Error("non-empty box reported empty")
	}
	if !NewBox([]int{2, 2}, []int{2, 5}).Empty() {
		t.Error("empty box not reported")
	}
	full := BoxOf(Shape{4, 5})
	if !full.ContainsBox(b) {
		t.Error("ContainsBox false negative")
	}
	if b.ContainsBox(full) {
		t.Error("ContainsBox false positive")
	}
	if !b.ContainsBox(NewBox([]int{9, 9}, []int{9, 9})) {
		t.Error("empty box should be contained anywhere")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := NewBox([]int{0, 0}, []int{4, 4})
	b := NewBox([]int{2, 3}, []int{6, 5})
	got := a.Intersect(b)
	if !got.Equal(NewBox([]int{2, 3}, []int{4, 4})) {
		t.Fatalf("Intersect = %v", got)
	}
	empty := a.Intersect(NewBox([]int{5, 5}, []int{6, 6}))
	if !empty.Empty() {
		t.Fatalf("disjoint intersect non-empty: %v", empty)
	}
	if !a.Intersect(a).Equal(a) {
		t.Error("self-intersection differs")
	}
}

func TestBoxEqual(t *testing.T) {
	a := NewBox([]int{0, 0}, []int{2, 2})
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal")
	}
	if a.Equal(NewBox([]int{0, 0}, []int{2, 3})) {
		t.Error("unequal boxes equal")
	}
	e1 := NewBox([]int{5, 5}, []int{5, 9})
	e2 := NewBox([]int{1, 1}, []int{0, 0})
	if !e1.Equal(e2) {
		t.Error("two empty boxes should be equal")
	}
}

func TestIterateOrders(t *testing.T) {
	b := NewBox([]int{0, 0}, []int{2, 3})
	var row [][]int
	b.Iterate(RowMajor, func(idx []int) bool {
		row = append(row, append([]int(nil), idx...))
		return true
	})
	wantRow := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if !reflect.DeepEqual(row, wantRow) {
		t.Fatalf("row-major iterate = %v", row)
	}
	var col [][]int
	b.Iterate(ColMajor, func(idx []int) bool {
		col = append(col, append([]int(nil), idx...))
		return true
	})
	wantCol := [][]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}
	if !reflect.DeepEqual(col, wantCol) {
		t.Fatalf("col-major iterate = %v", col)
	}
}

func TestIterateEarlyStop(t *testing.T) {
	b := BoxOf(Shape{10, 10})
	n := 0
	done := b.Iterate(RowMajor, func([]int) bool {
		n++
		return n < 7
	})
	if done || n != 7 {
		t.Fatalf("early stop: done=%v n=%d", done, n)
	}
}

func TestIterateEmpty(t *testing.T) {
	calls := 0
	NewBox([]int{3, 3}, []int{3, 6}).Iterate(RowMajor, func([]int) bool {
		calls++
		return true
	})
	if calls != 0 {
		t.Fatalf("empty box iterated %d times", calls)
	}
}

func TestRows(t *testing.T) {
	b := NewBox([]int{1, 2}, []int{3, 6})
	var starts [][]int
	var lens []int
	b.Rows(RowMajor, func(s []int, n int) bool {
		starts = append(starts, append([]int(nil), s...))
		lens = append(lens, n)
		return true
	})
	if !reflect.DeepEqual(starts, [][]int{{1, 2}, {2, 2}}) || !reflect.DeepEqual(lens, []int{4, 4}) {
		t.Fatalf("RowMajor rows: starts=%v lens=%v", starts, lens)
	}
	starts, lens = nil, nil
	b.Rows(ColMajor, func(s []int, n int) bool {
		starts = append(starts, append([]int(nil), s...))
		lens = append(lens, n)
		return true
	})
	if len(starts) != 4 || lens[0] != 2 {
		t.Fatalf("ColMajor rows: starts=%v lens=%v", starts, lens)
	}
}

func TestRowsCoverBoxExactly(t *testing.T) {
	b := NewBox([]int{0, 1, 2}, []int{2, 3, 5})
	for _, o := range []Order{RowMajor, ColMajor} {
		var total int64
		b.Rows(o, func(_ []int, n int) bool {
			total += int64(n)
			return true
		})
		if total != b.Volume() {
			t.Fatalf("%v rows cover %d points, want %d", o, total, b.Volume())
		}
	}
}

func TestChunkOf(t *testing.T) {
	cs := Shape{2, 3}
	ci, wi := ChunkOf([]int{5, 7}, cs, nil, nil)
	if !reflect.DeepEqual(ci, []int{2, 2}) || !reflect.DeepEqual(wi, []int{1, 1}) {
		t.Fatalf("ChunkOf = %v %v", ci, wi)
	}
	// Reuse buffers.
	ci2, wi2 := ChunkOf([]int{0, 0}, cs, ci, wi)
	if &ci2[0] != &ci[0] || &wi2[0] != &wi[0] {
		t.Error("buffers not reused")
	}
}

func TestChunkBoxAndCover(t *testing.T) {
	cs := Shape{2, 3}
	cb := ChunkBox([]int{2, 1}, cs)
	if !cb.Equal(NewBox([]int{4, 3}, []int{6, 6})) {
		t.Fatalf("ChunkBox = %v", cb)
	}
	cover := ChunkCover(NewBox([]int{1, 2}, []int{5, 7}), cs)
	if !cover.Equal(NewBox([]int{0, 0}, []int{3, 3})) {
		t.Fatalf("ChunkCover = %v", cover)
	}
	empty := ChunkCover(NewBox([]int{2, 2}, []int{2, 2}), cs)
	if !empty.Empty() {
		t.Fatalf("cover of empty box = %v", empty)
	}
}

func TestChunkGrid(t *testing.T) {
	if got := ChunkGrid(Shape{10, 10}, Shape{2, 3}); !got.Equal(Shape{5, 4}) {
		t.Fatalf("ChunkGrid = %v", got) // the paper's Fig. 1 geometry
	}
	if got := ChunkGrid(Shape{0, 7}, Shape{2, 3}); !got.Equal(Shape{0, 3}) {
		t.Fatalf("ChunkGrid with zero bound = %v", got)
	}
}

// TestQuickChunkRoundTrip: element -> (chunk, within) -> element.
func TestQuickChunkRoundTrip(t *testing.T) {
	f := func(e1, e2 uint16, c1, c2 uint8) bool {
		cs := Shape{int(c1%7) + 1, int(c2%7) + 1}
		elem := []int{int(e1 % 1000), int(e2 % 1000)}
		ci, wi := ChunkOf(elem, cs, nil, nil)
		for i := range elem {
			if ci[i]*cs[i]+wi[i] != elem[i] {
				return false
			}
			if wi[i] < 0 || wi[i] >= cs[i] {
				return false
			}
		}
		if !ChunkBox(ci, cs).Contains(elem) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderString(t *testing.T) {
	if RowMajor.String() != "C" || ColMajor.String() != "Fortran" {
		t.Fatal("Order strings changed")
	}
	if Order(9).String() == "" {
		t.Fatal("unknown order has empty string")
	}
}

func BenchmarkIterate3D(b *testing.B) {
	box := BoxOf(Shape{16, 16, 16})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		box.Iterate(RowMajor, func([]int) bool { n++; return true })
		if n != 4096 {
			b.Fatal(n)
		}
	}
}

func BenchmarkRows3D(b *testing.B) {
	box := BoxOf(Shape{16, 16, 16})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var total int
		box.Rows(RowMajor, func(_ []int, n int) bool { total += n; return true })
		if total != 4096 {
			b.Fatal(total)
		}
	}
}
