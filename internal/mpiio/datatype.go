// Package mpiio reimplements the slice of MPI-IO that DRX-MP uses:
// derived datatypes (contiguous, vector, indexed, subarray), per-process
// file views, independent read/write, and collective read_all/write_all
// with two-phase aggregation over the striped parallel file system.
//
// The paper's Section IV listing builds an MPI_Type_indexed filetype of
// chunk addresses, sets a file view, and calls MPI_File_read_all so the
// four processes collectively fetch their zones. This package provides
// exactly those moving parts, in Go, over internal/pfs and
// internal/cluster.
package mpiio

import (
	"errors"
	"fmt"
	"sort"

	"drxmp/internal/grid"
)

// Block is one contiguous byte extent of a flattened datatype, relative
// to the datatype's start.
type Block struct {
	Off int64
	Len int64
}

// Datatype is a flattened MPI derived datatype: a sorted list of
// disjoint byte extents plus an overall extent (the span one repetition
// occupies when tiled).
//
// Datatypes are immutable once built; constructors always normalize
// (sort and merge adjacent blocks).
type Datatype struct {
	blocks []Block
	extent int64
	size   int64 // sum of block lengths
	prefix []int64
}

// Bytes returns an elementary datatype of n contiguous bytes.
func Bytes(n int64) (Datatype, error) {
	if n < 1 {
		return Datatype{}, fmt.Errorf("mpiio: elementary datatype of %d bytes", n)
	}
	return build([]Block{{0, n}}, n)
}

// MustBytes is Bytes for known-good sizes.
func MustBytes(n int64) Datatype {
	d, err := Bytes(n)
	if err != nil {
		panic(err)
	}
	return d
}

// Contiguous repeats base count times back to back
// (MPI_Type_contiguous).
func Contiguous(count int, base Datatype) (Datatype, error) {
	if count < 1 {
		return Datatype{}, fmt.Errorf("mpiio: contiguous count %d", count)
	}
	var blocks []Block
	for i := 0; i < count; i++ {
		off := int64(i) * base.extent
		for _, b := range base.blocks {
			blocks = append(blocks, Block{off + b.Off, b.Len})
		}
	}
	return build(blocks, int64(count)*base.extent)
}

// Vector places count blocks of blocklen base-repetitions, the starts of
// consecutive blocks separated by stride base-extents
// (MPI_Type_vector).
func Vector(count, blocklen, stride int, base Datatype) (Datatype, error) {
	if count < 1 || blocklen < 1 {
		return Datatype{}, fmt.Errorf("mpiio: vector count %d blocklen %d", count, blocklen)
	}
	if stride < blocklen {
		return Datatype{}, fmt.Errorf("mpiio: vector stride %d < blocklen %d would overlap", stride, blocklen)
	}
	var blocks []Block
	for i := 0; i < count; i++ {
		start := int64(i) * int64(stride) * base.extent
		for j := 0; j < blocklen; j++ {
			off := start + int64(j)*base.extent
			for _, b := range base.blocks {
				blocks = append(blocks, Block{off + b.Off, b.Len})
			}
		}
	}
	extent := (int64(count-1)*int64(stride) + int64(blocklen)) * base.extent
	return build(blocks, extent)
}

// Indexed places len(blocklens) blocks; block i has blocklens[i]
// base-repetitions starting at displacement displs[i] base-extents
// (MPI_Type_indexed). Blocks must not overlap. This is the constructor
// the paper's listing uses for the chunk maps.
func Indexed(blocklens, displs []int, base Datatype) (Datatype, error) {
	if len(blocklens) != len(displs) {
		return Datatype{}, fmt.Errorf("mpiio: indexed lens %d != displs %d", len(blocklens), len(displs))
	}
	if len(blocklens) == 0 {
		return Datatype{}, errors.New("mpiio: empty indexed datatype")
	}
	var blocks []Block
	var extent int64
	for i := range blocklens {
		if blocklens[i] < 0 || displs[i] < 0 {
			return Datatype{}, fmt.Errorf("mpiio: indexed block %d: len %d displ %d", i, blocklens[i], displs[i])
		}
		for j := 0; j < blocklens[i]; j++ {
			off := (int64(displs[i]) + int64(j)) * base.extent
			for _, b := range base.blocks {
				blocks = append(blocks, Block{off + b.Off, b.Len})
			}
		}
		if end := (int64(displs[i]) + int64(blocklens[i])) * base.extent; end > extent {
			extent = end
		}
	}
	return build(blocks, extent)
}

// Subarray flattens the sub-box [lo, hi) of a dense row-major or
// column-major array with the given full shape and element size
// (MPI_Type_create_subarray).
func Subarray(shape grid.Shape, box grid.Box, elemSize int64, order grid.Order) (Datatype, error) {
	if elemSize < 1 {
		return Datatype{}, fmt.Errorf("mpiio: element size %d", elemSize)
	}
	if len(shape) != box.Rank() {
		return Datatype{}, fmt.Errorf("mpiio: shape rank %d != box rank %d", len(shape), box.Rank())
	}
	if !grid.BoxOf(shape).ContainsBox(box) {
		return Datatype{}, fmt.Errorf("mpiio: box %v outside shape %v", box, shape)
	}
	if box.Empty() {
		return Datatype{}, errors.New("mpiio: empty subarray")
	}
	strides := grid.Strides(shape, order)
	var blocks []Block
	box.Rows(order, func(start []int, n int) bool {
		var off int64
		for i, s := range start {
			off += int64(s) * strides[i]
		}
		blocks = append(blocks, Block{off * elemSize, int64(n) * elemSize})
		return true
	})
	return build(blocks, shape.Volume()*elemSize)
}

// build normalizes blocks (sort, verify disjoint, merge adjacent) and
// computes prefix sums for O(log n) view translation.
func build(blocks []Block, extent int64) (Datatype, error) {
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Off < blocks[j].Off })
	merged := blocks[:0]
	for _, b := range blocks {
		if b.Len == 0 {
			continue
		}
		if b.Off < 0 {
			return Datatype{}, fmt.Errorf("mpiio: negative block offset %d", b.Off)
		}
		if n := len(merged); n > 0 {
			last := &merged[n-1]
			if b.Off < last.Off+last.Len {
				return Datatype{}, fmt.Errorf("mpiio: overlapping blocks at offset %d", b.Off)
			}
			if b.Off == last.Off+last.Len {
				last.Len += b.Len
				continue
			}
		}
		merged = append(merged, b)
	}
	if len(merged) == 0 {
		return Datatype{}, errors.New("mpiio: datatype with no bytes")
	}
	d := Datatype{blocks: append([]Block(nil), merged...), extent: extent}
	if last := merged[len(merged)-1]; d.extent < last.Off+last.Len {
		d.extent = last.Off + last.Len
	}
	d.prefix = make([]int64, len(d.blocks)+1)
	for i, b := range d.blocks {
		d.prefix[i+1] = d.prefix[i] + b.Len
	}
	d.size = d.prefix[len(d.blocks)]
	return d, nil
}

// Size returns the number of data bytes in one repetition.
func (d Datatype) Size() int64 { return d.size }

// Extent returns the span one repetition occupies when tiled.
func (d Datatype) Extent() int64 { return d.extent }

// NumBlocks returns the number of contiguous extents after
// normalization (a contiguity measure used by the benchmarks).
func (d Datatype) NumBlocks() int { return len(d.blocks) }

// Blocks returns a copy of the normalized extents.
func (d Datatype) Blocks() []Block { return append([]Block(nil), d.blocks...) }

// IsZero reports whether d is the invalid zero datatype.
func (d Datatype) IsZero() bool { return len(d.blocks) == 0 }

// locate maps a data-byte position v in [0, Size()) to (block index,
// offset within block).
func (d Datatype) locate(v int64) (int, int64) {
	// First block with prefix > v, minus one.
	i := sort.Search(len(d.prefix), func(m int) bool { return d.prefix[m] > v }) - 1
	return i, v - d.prefix[i]
}
