package main

import "bytes"

// elemSize is the element width of every benchmark array (float64).
const elemSize = 8

// box is a half-open 2-D element region [r0,r1) x [c0,c1).
type box struct{ r0, c0, r1, c1 int }

func (b box) rows() int    { return b.r1 - b.r0 }
func (b box) cols() int    { return b.c1 - b.c0 }
func (b box) bytes() int64 { return int64(b.rows()) * int64(b.cols()) * elemSize }
func (b box) lo() []int    { return []int{b.r0, b.c0} }
func (b box) hi() []int    { return []int{b.r1, b.c1} }

// oracle is the flat in-memory row-major array every workload is
// checked against. It is also the far end of the paired reference
// transfer: the same bytes the program moves are moved between the
// caller's buffer and this array by plain row copies.
//
// Concurrent use is safe only on disjoint rows (the two drivers of
// collective_timestep and serve_mixed write disjoint row ranges).
type oracle struct {
	rows, cols int
	stride     int // allocated columns, >= cols
	data       []byte
}

// newOracle builds a rows x cols oracle whose bytes repeat fill.
func newOracle(rows, cols int, fill []byte) *oracle {
	o := &oracle{rows: rows, cols: cols, stride: cols, data: make([]byte, rows*cols*elemSize)}
	for at := 0; at < len(o.data); {
		at += copy(o.data[at:], fill)
	}
	return o
}

// extend grows dimension dim by `by` elements; the new region reads as
// zeros, like an extended array's unwritten chunks.
func (o *oracle) extend(dim, by int) {
	rows, cols := o.rows, o.cols
	if dim == 0 {
		rows += by
	} else {
		cols += by
	}
	if cols > o.stride || rows*o.stride*elemSize > len(o.data) {
		// Reallocate with headroom so a run of extensions copies rarely.
		stride := max(o.stride, cols+cols/4)
		data := make([]byte, (rows+rows/4)*stride*elemSize)
		for r := 0; r < o.rows; r++ {
			copy(data[r*stride*elemSize:], o.row(r, 0, o.cols))
		}
		o.stride, o.data = stride, data
	}
	o.rows, o.cols = rows, cols
}

// row returns the bytes of elements [c0,c1) of row r.
func (o *oracle) row(r, c0, c1 int) []byte {
	base := r * o.stride
	return o.data[(base+c0)*elemSize : (base+c1)*elemSize]
}

// read copies b into dst (dense, row-major over b).
func (o *oracle) read(b box, dst []byte) {
	w := b.cols() * elemSize
	for r := b.r0; r < b.r1; r++ {
		copy(dst[(r-b.r0)*w:], o.row(r, b.c0, b.c1))
	}
}

// write copies src (dense, row-major over b) into b.
func (o *oracle) write(b box, src []byte) {
	w := b.cols() * elemSize
	for r := b.r0; r < b.r1; r++ {
		copy(o.row(r, b.c0, b.c1), src[(r-b.r0)*w:(r-b.r0+1)*w])
	}
}

// equal reports whether got (dense, row-major over b) matches b.
func (o *oracle) equal(b box, got []byte) bool {
	if int64(len(got)) != b.bytes() {
		return false
	}
	w := b.cols() * elemSize
	for r := b.r0; r < b.r1; r++ {
		if !bytes.Equal(got[(r-b.r0)*w:(r-b.r0+1)*w], o.row(r, b.c0, b.c1)) {
			return false
		}
	}
	return true
}
