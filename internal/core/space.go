// Package core implements the paper's primary contribution: the
// axial-vector storage scheme for dense extendible arrays.
//
// A Space models the chunk index space of a k-dimensional extendible
// array. Chunks are assigned linear addresses 0,1,2,... in allocation
// order; the array grows by adjoining a segment (hyperslab) of chunks
// along any dimension, and the mapping function F* computes the linear
// address of any chunk from its k-dimensional index without ever moving
// previously allocated chunks. The inverse function F*⁻¹ recovers the
// k-dimensional index from a linear address.
//
// Each dimension l has an axial vector Γ_l of expansion records. A record
// describes one "uninterrupted expansion": a maximal run of consecutive
// extensions of dimension l with no intervening extension of another
// dimension. The record stores
//
//   - Start: N*_l, the first chunk index along l covered by the segment,
//   - Base:  M*_l, the linear address of the segment's first chunk, and
//   - Coef:  the k multiplying coefficients C*_j for row-major addressing
//     within the segment, where dimension l is the least-varying
//     dimension and all other dimensions keep their relative order.
//
// F*(I_0,...,I_{k-1}) binary-searches each Γ_j for the record covering
// I_j, selects the record with the maximum Base (the segment allocated
// last among the candidates — the only one that can contain the chunk),
// and evaluates
//
//	q* = Base + (I_l − Start)·Coef[l] + Σ_{j≠l} I_j·Coef[j].
//
// Both F* and F*⁻¹ run in O(k + log E) time, where E is the total number
// of expansion records. This is the computed-access ("hashing-like")
// property the paper contrasts with HDF5's B-tree chunk index.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// SentinelBase is the Base value of the sentinel record carried by every
// dimension that has not yet been extended (and, for dimensions other
// than 0, not covered by the initial allocation). It reproduces the −1
// entries of the paper's Fig. 3b.
const SentinelBase int64 = -1

// Record is one expansion record of an axial vector (the 4-field record
// of the paper's Section III-B; the file displacement field S_l is
// derivable as Base × chunkBytes and is therefore not stored).
type Record struct {
	// Start is N*_l: the first chunk index along the record's dimension
	// covered by this segment.
	Start int
	// Base is M*_l: the linear chunk address where the segment begins,
	// or SentinelBase for the sentinel record.
	Base int64
	// Coef holds the k multiplying coefficients C*_j used for addressing
	// within the segment. Sentinel records carry all-zero coefficients.
	Coef []int64
}

// IsSentinel reports whether r is the placeholder record of a dimension
// with no allocations attributed to it.
func (r Record) IsSentinel() bool { return r.Base == SentinelBase }

// clone returns a deep copy of r.
func (r Record) clone() Record {
	return Record{Start: r.Start, Base: r.Base, Coef: append([]int64(nil), r.Coef...)}
}

// Vector is the axial vector Γ_l of one dimension: its expansion records
// in allocation order (Start and Base both strictly increase across the
// non-sentinel records).
type Vector struct {
	Records []Record
}

func (v Vector) clone() Vector {
	out := Vector{Records: make([]Record, len(v.Records))}
	for i, r := range v.Records {
		out.Records[i] = r.clone()
	}
	return out
}

// searchByStart returns the index of the last record with Start <= i.
// Records are sorted by Start, and every query index i >= 0 is covered
// because the first record always has Start == 0.
func (v Vector) searchByStart(i int) int {
	// sort.Search finds the first record with Start > i.
	j := sort.Search(len(v.Records), func(m int) bool { return v.Records[m].Start > i })
	return j - 1
}

// searchByBase returns the index of the last record with Base <= q, or
// -1 if none (cannot happen for q >= 0 on dimension 0, whose first
// record has Base 0).
func (v Vector) searchByBase(q int64) int {
	j := sort.Search(len(v.Records), func(m int) bool { return v.Records[m].Base > q })
	return j - 1
}

// Space is the extendible chunk index space of one array. The zero value
// is not usable; construct with NewSpace or Restore.
//
// A Space is not safe for concurrent mutation; concurrent calls to the
// read-only methods (Map, Inverse, Bounds, ...) are safe provided no
// Extend runs concurrently. The array libraries built on top serialize
// extensions and replicate the Space per process, as the paper replicates
// the meta-data on every node.
type Space struct {
	bounds  []int // N*_j: current chunk-space bound of each dimension
	total   int64 // number of chunks allocated so far
	axial   []Vector
	lastDim int // dimension of the most recent expansion (for merging)
}

// ErrBounds is returned by Map for an index outside the current bounds
// and by Inverse for an address outside [0, Total()).
var ErrBounds = errors.New("core: index out of bounds")

// NewSpace creates a space with an initial allocation of the given
// chunk-space bounds (all >= 1). Following the paper, the initial
// allocation is recorded as an expansion record of dimension 0 with
// Base 0 and plain row-major coefficients; every other dimension starts
// with a sentinel record.
func NewSpace(bounds []int) (*Space, error) {
	k := len(bounds)
	if k == 0 {
		return nil, errors.New("core: rank must be at least 1")
	}
	for d, n := range bounds {
		if n < 1 {
			return nil, fmt.Errorf("core: initial bound of dimension %d is %d; must be >= 1", d, n)
		}
	}
	s := &Space{
		bounds:  append([]int(nil), bounds...),
		axial:   make([]Vector, k),
		lastDim: 0,
	}
	total, err := mulAll(s.bounds)
	if err != nil {
		return nil, err
	}
	s.total = total
	coef, err := s.segmentCoef(0)
	if err != nil {
		return nil, err
	}
	s.axial[0].Records = []Record{{Start: 0, Base: 0, Coef: coef}}
	for d := 1; d < k; d++ {
		s.axial[d].Records = []Record{{Start: 0, Base: SentinelBase, Coef: make([]int64, k)}}
	}
	return s, nil
}

// Restore rebuilds a Space from persisted state (see package meta). It
// validates structural invariants and returns an error on corruption.
func Restore(bounds []int, total int64, axial []Vector, lastDim int) (*Space, error) {
	s := &Space{
		bounds:  append([]int(nil), bounds...),
		total:   total,
		axial:   make([]Vector, len(axial)),
		lastDim: lastDim,
	}
	for i, v := range axial {
		s.axial[i] = v.clone()
	}
	if err := s.Check(); err != nil {
		return nil, err
	}
	return s, nil
}

// Clone returns an independent deep copy of s.
func (s *Space) Clone() *Space {
	c := &Space{
		bounds:  append([]int(nil), s.bounds...),
		total:   s.total,
		axial:   make([]Vector, len(s.axial)),
		lastDim: s.lastDim,
	}
	for i, v := range s.axial {
		c.axial[i] = v.clone()
	}
	return c
}

// Rank returns the number of dimensions k.
func (s *Space) Rank() int { return len(s.bounds) }

// Bounds returns a copy of the current chunk-space bounds N*_j.
func (s *Space) Bounds() []int { return append([]int(nil), s.bounds...) }

// Bound returns the current bound of dimension d.
func (s *Space) Bound(d int) int { return s.bounds[d] }

// Total returns the number of chunks allocated (the next free linear
// address).
func (s *Space) Total() int64 { return s.total }

// LastDim returns the dimension of the most recent expansion; a
// subsequent Extend of the same dimension merges into the existing
// record ("uninterrupted expansion").
func (s *Space) LastDim() int { return s.lastDim }

// Records returns a deep copy of dimension d's axial vector records.
func (s *Space) Records(d int) []Record {
	return s.axial[d].clone().Records
}

// NumRecords returns E, the total number of expansion records across all
// axial vectors, counting sentinels (matching the paper's O(k + log E)
// accounting, E is bounded by the number of interrupted expansions + k).
func (s *Space) NumRecords() int {
	n := 0
	for _, v := range s.axial {
		n += len(v.Records)
	}
	return n
}

// segmentCoef computes the multiplying coefficients for a segment
// adjoined along dimension l at the current bounds:
//
//	C*_l = Π_{j≠l} N*_j      (chunks per unit index of l within the segment)
//	C*_j = Π_{r>j, r≠l} N*_r (row-major coefficients with l excluded)
func (s *Space) segmentCoef(l int) ([]int64, error) {
	k := len(s.bounds)
	coef := make([]int64, k)
	acc := int64(1)
	for j := k - 1; j >= 0; j-- {
		if j == l {
			continue
		}
		coef[j] = acc
		var err error
		acc, err = mul(acc, int64(s.bounds[j]))
		if err != nil {
			return nil, err
		}
	}
	coef[l] = acc // Π_{j≠l} N*_j
	return coef, nil
}

// Extend grows dimension dim by `by` chunk indices. Previously allocated
// chunk addresses are never changed (the no-reorganization property).
// If the previous expansion was of the same dimension, the growth merges
// into the existing axial record, exactly as the paper's "uninterrupted
// extension".
func (s *Space) Extend(dim, by int) error {
	if dim < 0 || dim >= len(s.bounds) {
		return fmt.Errorf("core: extend dimension %d out of range [0,%d)", dim, len(s.bounds))
	}
	if by < 1 {
		return fmt.Errorf("core: extend amount %d must be >= 1", by)
	}
	perIndex := int64(1)
	for j, n := range s.bounds {
		if j == dim {
			continue
		}
		var err error
		perIndex, err = mul(perIndex, int64(n))
		if err != nil {
			return err
		}
	}
	added, err := mul(perIndex, int64(by))
	if err != nil {
		return err
	}
	if _, err := add(s.total, added); err != nil {
		return err
	}

	if s.lastDim != dim {
		coef, err := s.segmentCoef(dim)
		if err != nil {
			return err
		}
		s.axial[dim].Records = append(s.axial[dim].Records, Record{
			Start: s.bounds[dim],
			Base:  s.total,
			Coef:  coef,
		})
		s.lastDim = dim
	}
	// Uninterrupted expansions only advance the bound and the total; the
	// most recent record of dim already carries valid coefficients (no
	// other bound changed since it was created).
	s.bounds[dim] += by
	s.total += added
	return nil
}

// BreakMerge makes the next Extend open a new axial record even when it
// continues the most recent expansion's dimension. Address computation
// is unaffected (the new record carries the same coefficients its merged
// continuation would have used); only the record count E grows. It
// exists for the merging ablation (experiment E12), which quantifies
// why the paper folds uninterrupted expansions into one record.
func (s *Space) BreakMerge() { s.lastDim = -1 }

// ExtendTo grows every dimension as needed so that the bounds become at
// least want (element of want < current bound leaves that dimension
// untouched). Extensions are applied in increasing dimension order.
func (s *Space) ExtendTo(want []int) error {
	if len(want) != len(s.bounds) {
		return fmt.Errorf("core: ExtendTo rank %d != %d", len(want), len(s.bounds))
	}
	for d, w := range want {
		if w > s.bounds[d] {
			if err := s.Extend(d, w-s.bounds[d]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Map computes F*(idx): the linear chunk address of the chunk with
// k-dimensional index idx. It returns ErrBounds if idx lies outside the
// current bounds.
func (s *Space) Map(idx []int) (int64, error) {
	if len(idx) != len(s.bounds) {
		return 0, fmt.Errorf("core: index rank %d != space rank %d", len(idx), len(s.bounds))
	}
	for j, i := range idx {
		if i < 0 || i >= s.bounds[j] {
			return 0, fmt.Errorf("%w: index %d of dimension %d outside [0,%d)", ErrBounds, i, j, s.bounds[j])
		}
	}
	return s.mapUnchecked(idx), nil
}

// MustMap is Map for indices known to be in bounds; it panics otherwise.
func (s *Space) MustMap(idx []int) int64 {
	q, err := s.Map(idx)
	if err != nil {
		panic(err)
	}
	return q
}

// mapUnchecked evaluates F* assuming idx is within bounds.
func (s *Space) mapUnchecked(idx []int) int64 {
	// Find, per dimension, the record covering idx[j]; keep the one with
	// the maximum segment start address.
	z := 0
	rz := &s.axial[0].Records[s.axial[0].searchByStart(idx[0])]
	for j := 1; j < len(idx); j++ {
		r := &s.axial[j].Records[s.axial[j].searchByStart(idx[j])]
		if r.Base > rz.Base {
			z, rz = j, r
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

// Inverse computes F*⁻¹(q): the k-dimensional chunk index of linear
// address q, writing into dst (allocated if nil). It returns ErrBounds
// if q is outside [0, Total()).
func (s *Space) Inverse(q int64, dst []int) ([]int, error) {
	if q < 0 || q >= s.total {
		return nil, fmt.Errorf("%w: address %d outside [0,%d)", ErrBounds, q, s.total)
	}
	if dst == nil {
		dst = make([]int, len(s.bounds))
	}
	// The record whose Base is the maximum lower bound of q identifies
	// the segment containing q (segments partition [0, total)).
	z := -1
	var rz *Record
	for j := range s.axial {
		m := s.axial[j].searchByBase(q)
		if m < 0 {
			continue
		}
		r := &s.axial[j].Records[m]
		if r.IsSentinel() {
			continue
		}
		if rz == nil || r.Base > rz.Base {
			z, rz = j, r
		}
	}
	if rz == nil {
		return nil, fmt.Errorf("core: no segment covers address %d (corrupt axial vectors)", q)
	}
	d := q - rz.Base
	dst[z] = rz.Start + int(d/rz.Coef[z])
	rem := d % rz.Coef[z]
	for j := range s.bounds {
		if j == z {
			continue
		}
		dst[j] = int(rem / rz.Coef[j])
		rem %= rz.Coef[j]
	}
	return dst, nil
}

// MustInverse is Inverse for addresses known to be in range.
func (s *Space) MustInverse(q int64, dst []int) []int {
	idx, err := s.Inverse(q, dst)
	if err != nil {
		panic(err)
	}
	return idx
}

// Check validates the structural invariants of the space:
// positive bounds, one axial vector per dimension, records sorted by
// Start and by Base, positive coefficients on non-sentinel records, and
// dimension 0 rooted at Base 0. It is used when restoring persisted
// metadata and by the property-based tests.
func (s *Space) Check() error {
	k := len(s.bounds)
	if k == 0 {
		return errors.New("core: rank 0")
	}
	if len(s.axial) != k {
		return fmt.Errorf("core: %d axial vectors for rank %d", len(s.axial), k)
	}
	if s.lastDim < 0 || s.lastDim >= k {
		return fmt.Errorf("core: lastDim %d out of range", s.lastDim)
	}
	for d, n := range s.bounds {
		if n < 1 {
			return fmt.Errorf("core: bound of dimension %d is %d", d, n)
		}
	}
	want, err := mulAll(s.bounds)
	if err != nil {
		return err
	}
	if s.total != want {
		// total == product(bounds) holds because the space always covers
		// a full rectilinear region.
		return fmt.Errorf("core: total %d != product of bounds %d", s.total, want)
	}
	var maxBase int64 = SentinelBase
	for d := 0; d < k; d++ {
		recs := s.axial[d].Records
		if len(recs) == 0 {
			return fmt.Errorf("core: dimension %d has no records", d)
		}
		if d == 0 {
			if recs[0].Start != 0 || recs[0].Base != 0 {
				return fmt.Errorf("core: dimension 0 must be rooted at (Start 0, Base 0), got (%d,%d)", recs[0].Start, recs[0].Base)
			}
		} else if recs[0].Start != 0 {
			return fmt.Errorf("core: dimension %d first record Start %d != 0", d, recs[0].Start)
		}
		for i, r := range recs {
			if len(r.Coef) != k {
				return fmt.Errorf("core: dimension %d record %d has %d coefficients, want %d", d, i, len(r.Coef), k)
			}
			if i > 0 {
				if r.Start <= recs[i-1].Start {
					return fmt.Errorf("core: dimension %d records not increasing in Start at %d", d, i)
				}
				if r.Base <= recs[i-1].Base {
					return fmt.Errorf("core: dimension %d records not increasing in Base at %d", d, i)
				}
			}
			if r.IsSentinel() {
				if i != 0 {
					return fmt.Errorf("core: dimension %d has sentinel at position %d", d, i)
				}
				continue
			}
			if r.Base < 0 || r.Base >= s.total {
				return fmt.Errorf("core: dimension %d record %d base %d outside [0,%d)", d, i, r.Base, s.total)
			}
			if r.Start < 0 || r.Start >= s.bounds[d] {
				return fmt.Errorf("core: dimension %d record %d start %d outside [0,%d)", d, i, r.Start, s.bounds[d])
			}
			for j, c := range r.Coef {
				if c < 1 {
					return fmt.Errorf("core: dimension %d record %d coefficient %d is %d", d, i, j, c)
				}
			}
			if r.Base > maxBase {
				maxBase = r.Base
			}
		}
	}
	if maxBase < 0 {
		return errors.New("core: no non-sentinel records")
	}
	return nil
}

// Dump renders the axial vectors as a human-readable table in the style
// of the paper's Fig. 3b (dimension, then per record: start index; start
// address; coefficients).
func (s *Space) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "extendible space: bounds=%v chunks=%d records=%d\n", s.bounds, s.total, s.NumRecords())
	for d := len(s.axial) - 1; d >= 0; d-- {
		fmt.Fprintf(&b, "D%d:", d)
		for _, r := range s.axial[d].Records {
			fmt.Fprintf(&b, "  (%d; %d;", r.Start, r.Base)
			for _, c := range r.Coef {
				fmt.Fprintf(&b, " %d", c)
			}
			b.WriteString(")")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- overflow-checked arithmetic ---

func mul(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	c := a * b
	if c/b != a {
		return 0, fmt.Errorf("core: chunk count overflow (%d * %d)", a, b)
	}
	return c, nil
}

func add(a, b int64) (int64, error) {
	if b > 0 && a > math.MaxInt64-b {
		return 0, fmt.Errorf("core: chunk count overflow (%d + %d)", a, b)
	}
	return a + b, nil
}

func mulAll(ns []int) (int64, error) {
	v := int64(1)
	for _, n := range ns {
		var err error
		v, err = mul(v, int64(n))
		if err != nil {
			return 0, err
		}
	}
	return v, nil
}
