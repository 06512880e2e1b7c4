// Package grid provides index-space geometry for dense k-dimensional
// arrays: shapes, half-open boxes, row-/column-major linearization, and
// element-to-chunk coordinate maps.
//
// Conventions used throughout the repository:
//
//   - A Shape is a slice of per-dimension lengths (chunk shapes, array
//     bounds, ...). All lengths are non-negative ints.
//   - A Box is a half-open axis-aligned region [Lo, Hi) of the index space.
//   - Linear addresses, volumes and byte offsets are int64 (arrays may
//     exceed 2^31 elements); per-dimension indices are int.
//   - Row-major (C) order varies the last dimension fastest; column-major
//     (Fortran) order varies the first dimension fastest.
package grid

import (
	"errors"
	"fmt"
)

// Shape is a list of per-dimension extents.
type Shape []int

// Clone returns an independent copy of s.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Volume returns the number of points in the shape (product of extents).
// The empty shape has volume 1 (a single scalar).
func (s Shape) Volume() int64 {
	v := int64(1)
	for _, n := range s {
		v *= int64(n)
	}
	return v
}

// Validate reports an error if any extent is negative or the rank is zero.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return errors.New("grid: rank must be at least 1")
	}
	for i, n := range s {
		if n < 0 {
			return fmt.Errorf("grid: negative extent %d in dimension %d", n, i)
		}
	}
	return nil
}

// Positive reports whether every extent is at least 1.
func (s Shape) Positive() bool {
	for _, n := range s {
		if n < 1 {
			return false
		}
	}
	return len(s) > 0
}

// Equal reports whether s and t have identical rank and extents.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

func (s Shape) String() string {
	out := "["
	for i, n := range s {
		if i > 0 {
			out += "x"
		}
		out += fmt.Sprint(n)
	}
	return out + "]"
}

// Order selects a linearization convention for a dense region.
type Order int

const (
	// RowMajor is C order: the last dimension varies fastest.
	RowMajor Order = iota
	// ColMajor is Fortran order: the first dimension varies fastest.
	ColMajor
)

func (o Order) String() string {
	switch o {
	case RowMajor:
		return "C"
	case ColMajor:
		return "Fortran"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Strides returns the linear stride of each dimension for shape s in
// order o. Offset(idx) = sum_i idx[i]*strides[i].
func Strides(s Shape, o Order) []int64 {
	return StridesInto(make([]int64, len(s)), s, o)
}

// StridesInto is Strides writing into st, which must have len(s)
// elements; it returns st.
func StridesInto(st []int64, s Shape, o Order) []int64 {
	k := len(s)
	switch o {
	case ColMajor:
		acc := int64(1)
		for i := 0; i < k; i++ {
			st[i] = acc
			acc *= int64(s[i])
		}
	default: // RowMajor
		acc := int64(1)
		for i := k - 1; i >= 0; i-- {
			st[i] = acc
			acc *= int64(s[i])
		}
	}
	return st
}

// Offset linearizes idx within shape s using order o. It panics if the
// ranks differ; callers validate bounds separately (see Box.Contains).
func Offset(s Shape, idx []int, o Order) int64 {
	if len(idx) != len(s) {
		panic(fmt.Sprintf("grid: index rank %d != shape rank %d", len(idx), len(s)))
	}
	var q int64
	switch o {
	case ColMajor:
		acc := int64(1)
		for i := 0; i < len(s); i++ {
			q += int64(idx[i]) * acc
			acc *= int64(s[i])
		}
	default:
		acc := int64(1)
		for i := len(s) - 1; i >= 0; i-- {
			q += int64(idx[i]) * acc
			acc *= int64(s[i])
		}
	}
	return q
}

// Unoffset inverts Offset: it writes the k-dimensional index of linear
// position q (within shape s, order o) into dst and returns it. If dst is
// nil a new slice is allocated.
func Unoffset(s Shape, q int64, o Order, dst []int) []int {
	if dst == nil {
		dst = make([]int, len(s))
	}
	switch o {
	case ColMajor:
		for i := 0; i < len(s); i++ {
			n := int64(s[i])
			dst[i] = int(q % n)
			q /= n
		}
	default:
		for i := len(s) - 1; i >= 0; i-- {
			n := int64(s[i])
			dst[i] = int(q % n)
			q /= n
		}
	}
	return dst
}

// Box is a half-open axis-aligned region [Lo, Hi) of a k-dimensional
// index space. A Box with any Hi[i] <= Lo[i] is empty.
type Box struct {
	Lo, Hi []int
}

// NewBox returns a box spanning [lo, hi). The slices are cloned.
func NewBox(lo, hi []int) Box {
	return Box{Lo: append([]int(nil), lo...), Hi: append([]int(nil), hi...)}
}

// BoxOf returns the box [0, shape) covering an entire shape.
func BoxOf(s Shape) Box {
	lo := make([]int, len(s))
	hi := make([]int, len(s))
	for i, n := range s {
		hi[i] = n
	}
	return Box{Lo: lo, Hi: hi}
}

// Rank returns the box's dimensionality.
func (b Box) Rank() int { return len(b.Lo) }

// Clone returns a deep copy of b.
func (b Box) Clone() Box { return NewBox(b.Lo, b.Hi) }

// Shape returns the per-dimension extents of b (zero-clamped).
func (b Box) Shape() Shape {
	s := make(Shape, len(b.Lo))
	for i := range b.Lo {
		if d := b.Hi[i] - b.Lo[i]; d > 0 {
			s[i] = d
		}
	}
	return s
}

// Volume returns the number of points in b (0 if b is empty).
func (b Box) Volume() int64 {
	v := int64(1)
	for i := range b.Lo {
		v *= int64(max(b.Hi[i]-b.Lo[i], 0))
	}
	return v
}

// Empty reports whether b contains no points.
func (b Box) Empty() bool {
	for i := range b.Lo {
		if b.Hi[i] <= b.Lo[i] {
			return true
		}
	}
	return len(b.Lo) == 0
}

// Contains reports whether idx lies inside b.
func (b Box) Contains(idx []int) bool {
	if len(idx) != len(b.Lo) {
		return false
	}
	for i := range idx {
		if idx[i] < b.Lo[i] || idx[i] >= b.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether every point of c lies inside b. An empty c
// is contained in anything of equal rank.
func (b Box) ContainsBox(c Box) bool {
	if len(c.Lo) != len(b.Lo) {
		return false
	}
	if c.Empty() {
		return true
	}
	for i := range c.Lo {
		if c.Lo[i] < b.Lo[i] || c.Hi[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of b and c (possibly empty).
func (b Box) Intersect(c Box) Box {
	k := len(b.Lo)
	out := Box{Lo: make([]int, k), Hi: make([]int, k)}
	for i := 0; i < k; i++ {
		out.Lo[i] = max(b.Lo[i], c.Lo[i])
		out.Hi[i] = min(b.Hi[i], c.Hi[i])
		if out.Hi[i] < out.Lo[i] {
			out.Hi[i] = out.Lo[i]
		}
	}
	return out
}

// Equal reports whether b and c span the same region. Two empty boxes of
// equal rank are considered equal regardless of coordinates.
func (b Box) Equal(c Box) bool {
	if len(b.Lo) != len(c.Lo) {
		return false
	}
	if b.Empty() && c.Empty() {
		return true
	}
	for i := range b.Lo {
		if b.Lo[i] != c.Lo[i] || b.Hi[i] != c.Hi[i] {
			return false
		}
	}
	return true
}

func (b Box) String() string {
	return fmt.Sprintf("[%v..%v)", b.Lo, b.Hi)
}

// Iterate calls fn for every point of b in order o, reusing one index
// slice (fn must not retain it). Iteration stops early if fn returns
// false. It returns false if stopped early.
func (b Box) Iterate(o Order, fn func(idx []int) bool) bool {
	if b.Empty() {
		return true
	}
	idx := append([]int(nil), b.Lo...)
	for {
		if !fn(idx) {
			return false
		}
		if !b.advance(idx, o) {
			return true
		}
	}
}

// advance steps idx to the next point of b in order o, returning false
// when iteration wraps past the end.
func (b Box) advance(idx []int, o Order) bool {
	if o == ColMajor {
		for i := 0; i < len(idx); i++ {
			idx[i]++
			if idx[i] < b.Hi[i] {
				return true
			}
			idx[i] = b.Lo[i]
		}
		return false
	}
	for i := len(idx) - 1; i >= 0; i-- {
		idx[i]++
		if idx[i] < b.Hi[i] {
			return true
		}
		idx[i] = b.Lo[i]
	}
	return false
}

// Rows calls fn once per contiguous innermost run of b in order o. For
// RowMajor a run is a row segment with the last dimension spanning
// [b.Lo[k-1], b.Hi[k-1]); for ColMajor the first dimension spans its
// range. fn receives the run's starting index (reused between calls) and
// the run length. This is the workhorse for translating sub-array I/O
// into contiguous memory segments.
func (b Box) Rows(o Order, fn func(start []int, n int) bool) bool {
	if b.Empty() {
		return true
	}
	k := len(b.Lo)
	var inner int
	if o == RowMajor {
		inner = k - 1
	} else {
		inner = 0
	}
	n := b.Hi[inner] - b.Lo[inner]
	// Iterate the box collapsed along the inner dimension.
	outer := b.Clone()
	outer.Hi[inner] = outer.Lo[inner] + 1
	return outer.Iterate(o, func(idx []int) bool {
		return fn(idx, n)
	})
}

// ChunkOf maps an element index to its chunk index and the element's
// index within the chunk, for chunks of shape cs anchored at the origin.
func ChunkOf(elem []int, cs Shape, chunkIdx, within []int) ([]int, []int) {
	if chunkIdx == nil {
		chunkIdx = make([]int, len(elem))
	}
	if within == nil {
		within = make([]int, len(elem))
	}
	for i := range elem {
		chunkIdx[i] = elem[i] / cs[i]
		within[i] = elem[i] % cs[i]
	}
	return chunkIdx, within
}

// ChunkBox returns the element-space box covered by chunk chunkIdx (shape
// cs), i.e. [chunkIdx*cs, (chunkIdx+1)*cs).
func ChunkBox(chunkIdx []int, cs Shape) Box {
	k := len(chunkIdx)
	b := Box{Lo: make([]int, k), Hi: make([]int, k)}
	for i := 0; i < k; i++ {
		b.Lo[i] = chunkIdx[i] * cs[i]
		b.Hi[i] = b.Lo[i] + cs[i]
	}
	return b
}

// ChunkCover returns the box, in chunk coordinates, of all chunks of
// shape cs that intersect the element-space box b.
func ChunkCover(b Box, cs Shape) Box {
	k := len(b.Lo)
	out := Box{Lo: make([]int, k), Hi: make([]int, k)}
	for i := 0; i < k; i++ {
		out.Lo[i] = b.Lo[i] / cs[i]
		out.Hi[i] = ceilDiv(b.Hi[i], cs[i])
		if out.Hi[i] < out.Lo[i] {
			out.Hi[i] = out.Lo[i]
		}
	}
	return out
}

// ChunkGrid returns the chunk-space bounds (number of chunks per
// dimension) needed to cover element bounds n with chunk shape cs.
func ChunkGrid(n Shape, cs Shape) Shape {
	g := make(Shape, len(n))
	for i := range n {
		g[i] = ceilDiv(n[i], cs[i])
	}
	return g
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
