// Package drx is the serial Disk Resident Extendible array library of
// the paper: out-of-core dense k-dimensional arrays stored by chunks
// whose linear addresses come from the axial-vector mapping function F*
// (package internal/core), extendible along any dimension without
// reorganizing previously written data.
//
// An array named "xyz" is a pair of files, exactly as in the paper's
// Section IV: "xyz.xmd" holds the metadata (the extension history that
// rebuilds the axial vectors, chunk shape, bounds, data type and stripe
// layout) and "xyz.xta" holds the chunk data. An Array is a
// drxmp.File opened on a one-rank communicator (cluster.Self), so the
// serial and the parallel library share one file format and one I/O
// path. Chunks are cached by drxmp's extent cache (Tuning.CacheBytes):
// with the default stripe of one chunk its sieve block is one chunk,
// the page of the BerkeleyDB Mpool the paper's DRX caches through.
// Writes go through to the store at once and keep the cached chunks up
// to date; unlike Mpool's dirty pages, nothing is written back later
// (Tuning.WriteBehindBytes is ignored).
// Sub-arrays are read into memory in either C or Fortran order
// regardless of how chunks are stored — the "on the fly" transposition
// the paper advertises.
package drx

import (
	"fmt"
	"os"
	"path/filepath"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/dtype"
	"drxmp/internal/grid"
	"drxmp/internal/meta"
	"drxmp/internal/pfs"
)

// DType re-exports the element types.
type DType = dtype.T

// Element types supported by DRX arrays.
const (
	Int32      = dtype.Int32
	Int64      = dtype.Int64
	Float32    = dtype.Float32
	Float64    = dtype.Float64
	Complex64  = dtype.Complex64
	Complex128 = dtype.Complex128
)

// Order re-exports the memory orders.
type Order = grid.Order

// Memory orders for chunks and in-memory sub-arrays.
const (
	RowMajor = grid.RowMajor // C order
	ColMajor = grid.ColMajor // Fortran order
)

// Box re-exports the half-open sub-array region type.
type Box = grid.Box

// NewBox builds a half-open box [lo, hi).
func NewBox(lo, hi []int) Box { return grid.NewBox(lo, hi) }

// Options configures Create.
type Options struct {
	// DType is the element type (required).
	DType DType
	// ChunkShape is the chunk shape in elements (required, positive).
	ChunkShape []int
	// Bounds is the initial element bounds (required, positive).
	Bounds []int
	// Order is the element order within chunks (default RowMajor).
	Order Order
	// FS configures the backing store. Zero value = single in-memory
	// "server" (tests, examples); set Backend: pfs.Disk to persist, or
	// more Servers to model a striped parallel file system. A zero
	// StripeSize selects one chunk's bytes, so the cache's sieve block
	// is one chunk.
	FS pfs.Options
	// Tuning carries the chunk-cache knobs, meaning what they mean in
	// drxmp: CacheBytes is the cache budget (0, the default, turns the
	// cache off); WriteBehindBytes is ignored.
	drxmp.Tuning
}

// Array is an open extendible array. Not safe for concurrent use; the
// parallel library drxmp provides multi-process access.
type Array struct{ f *drxmp.File }

// Create makes a new extendible array named by path (files path+".xmd"
// and path+".xta[.sN]" for disk backends).
func Create(path string, opts Options) (*Array, error) {
	fsOpts := opts.FS
	if fsOpts.StripeSize == 0 {
		// An invalid geometry is drxmp.Create's to report.
		if m, err := meta.New(opts.DType, opts.Order, opts.ChunkShape, opts.Bounds); err == nil {
			fsOpts.StripeSize = m.ChunkBytes()
		}
	}
	f, err := drxmp.Create(cluster.Self(), path, drxmp.Options{
		DType:      opts.DType,
		ChunkShape: opts.ChunkShape,
		Bounds:     opts.Bounds,
		Order:      opts.Order,
		FS:         fsOpts,
		Tuning:     opts.Tuning,
	})
	if err != nil {
		return nil, err
	}
	return &Array{f: f}, nil
}

// Open opens an existing disk-backed array. The stripe layout comes
// from the .xmd, so fsOpts carries at most Dir (default: the path's
// directory), the cost model and the scheduler; a non-zero Servers,
// StripeSize or Parity must match the recorded one. t carries the cache
// knobs; the zero Tuning means no cache.
func Open(path string, fsOpts pfs.Options, t drxmp.Tuning) (*Array, error) {
	f, err := drxmp.OpenWith(cluster.Self(), path, drxmp.OpenOptions{FS: fsOpts, Tuning: t})
	if err != nil {
		return nil, err
	}
	return &Array{f: f}, nil
}

// Remove deletes the files of a disk-backed array. The .xmd names the
// server files and goes last, so a failed Remove can be retried.
func Remove(path string) error {
	blob, err := os.ReadFile(path + ".xmd")
	if err != nil {
		return err
	}
	m, err := meta.Decode(blob)
	if err != nil {
		return err
	}
	if err := pfs.Remove(filepath.Base(path)+".xta", pfs.Options{Dir: filepath.Dir(path), Servers: m.Layout.Servers}); err != nil {
		return err
	}
	return os.Remove(path + ".xmd")
}

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return a.f.Rank() }

// Bounds returns the current element bounds.
func (a *Array) Bounds() []int { return a.f.Bounds() }

// ChunkShape returns the chunk shape.
func (a *Array) ChunkShape() []int { return a.f.ChunkShape() }

// DType returns the element type.
func (a *Array) DType() DType { return a.f.DType() }

// Order returns the within-chunk element order.
func (a *Array) Order() Order { return a.f.Order() }

// Chunks returns the number of allocated chunks.
func (a *Array) Chunks() int64 { return a.f.Chunks() }

// Meta exposes the metadata (read-only by convention; used by drxdump
// and the benchmark harness).
func (a *Array) Meta() *meta.Meta { return a.f.Meta() }

// FS exposes the backing store (I/O statistics in benchmarks).
func (a *Array) FS() *pfs.FS { return a.f.FS() }

// CacheStats returns the chunk-cache counters (all zero without a
// cache): Hits and Misses count reads served from memory and reads
// that fetched.
func (a *Array) CacheStats() drxmp.CacheStats { return a.f.CacheStats() }

// Extend grows dimension dim by `by` elements. Existing data never
// moves; new chunks are appended to the file as needed and materialize
// lazily (zero-filled) on first access.
func (a *Array) Extend(dim, by int) error { return a.f.Extend(dim, by) }

// ExtendTo grows dimension dim to at least newBound elements.
func (a *Array) ExtendTo(dim, newBound int) error {
	if dim < 0 || dim >= a.Rank() {
		return fmt.Errorf("drx: dimension %d out of range", dim)
	}
	if by := newBound - a.f.Meta().ElemBounds[dim]; by > 0 {
		return a.f.Extend(dim, by)
	}
	return nil
}

// Sync has nothing to flush: every write is on the store when it
// returns, and every Extend rewrites the .xmd atomically. It stays for
// callers that order their I/O around it.
func (a *Array) Sync() error { return a.f.Sync() }

// Close releases resources.
func (a *Array) Close() error { return a.f.Close() }

// elemBox is the one-element section of idx.
func elemBox(idx []int) Box {
	hi := make([]int, len(idx))
	for d, i := range idx {
		hi[d] = i + 1
	}
	return Box{Lo: idx, Hi: hi}
}

// At reads a single element as float64 (real part for complex arrays).
func (a *Array) At(idx []int) (float64, error) {
	buf := make([]byte, a.DType().Size())
	if err := a.Read(elemBox(idx), buf, RowMajor); err != nil {
		return 0, err
	}
	return dtype.Float64At(a.DType(), buf), nil
}

// Set writes a single element from a float64.
func (a *Array) Set(idx []int, v float64) error {
	buf := make([]byte, a.DType().Size())
	dtype.PutFloat64(a.DType(), buf, v)
	return a.Write(elemBox(idx), buf, RowMajor)
}

// Read copies the sub-array `box` into dst, laid out densely in the
// requested memory order. dst must have box.Volume()*elemSize bytes.
// This is the serial DRXMP_Read: chunks are fetched through the cache
// and elements placed according to the requested order — no out-of-core
// transposition ever happens.
func (a *Array) Read(box Box, dst []byte, order Order) error {
	return a.f.ReadSection(box, dst, order)
}

// Write copies src (densely laid out in the given memory order over
// `box`) into the array. The box must lie within the current bounds
// (call Extend first to grow). It is the collective write on the
// one-rank world, so it goes through the cache's direct write path.
func (a *Array) Write(box Box, src []byte, order Order) error {
	return a.f.WriteSectionAll(box, src, order)
}

// ReadFloat64s is Read with float64 conversion (convenience).
func (a *Array) ReadFloat64s(box Box, order Order) ([]float64, error) {
	return a.f.ReadSectionFloat64s(box, order)
}

// WriteFloat64s is Write from float64 values (convenience).
func (a *Array) WriteFloat64s(box Box, vals []float64, order Order) error {
	if int64(len(vals)) != box.Volume() {
		return fmt.Errorf("drx: %d values for box of %d elements", len(vals), box.Volume())
	}
	return a.Write(box, dtype.EncodeFloat64s(a.DType(), vals), order)
}
