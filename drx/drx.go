// Package drx is the serial Disk Resident Extendible array library of
// the paper: out-of-core dense k-dimensional arrays stored by chunks
// whose linear addresses come from the axial-vector mapping function F*
// (package internal/core), extendible along any dimension without
// reorganizing previously written data.
//
// An array named "xyz" is a pair of files, exactly as in the paper's
// Section IV: "xyz.xmd" holds the metadata (axial vectors, chunk shape,
// bounds, data type) and "xyz.xta" holds the chunk data. Chunk I/O goes
// through an LRU buffer pool (internal/mpool, the BerkeleyDB-Mpool
// stand-in), and sub-arrays can be read into memory in either C or
// Fortran order regardless of how chunks are stored — the "on the fly"
// transposition the paper advertises.
//
// The parallel counterpart is the root package drxmp.
package drx

import (
	"fmt"
	"os"
	"path/filepath"

	"drxmp/internal/dtype"
	"drxmp/internal/grid"
	"drxmp/internal/meta"
	"drxmp/internal/mpool"
	"drxmp/internal/par"
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
	// CacheChunks is the buffer-pool capacity in chunks (default 64).
	CacheChunks int
	// FS configures the backing store. Zero value = single in-memory
	// "server" (tests, examples); set Backend: pfs.Disk to persist, or
	// more Servers/StripeSize to model a striped parallel file system.
	FS pfs.Options
	// Parallelism bounds the worker goroutines a single Read/Write call
	// uses to move chunks through the buffer pool: 0 selects GOMAXPROCS,
	// negative forces the serial path, larger values overlap more chunk
	// I/O (useful when the backing store has real latency). The workers
	// also read ahead: the next chunks fault into the pool while the
	// current chunks scatter/gather.
	Parallelism int
	// SingleFile embeds the metadata in a reserved header region of the
	// data file instead of a separate .xmd — the layout the paper's
	// Section V leaves as future work. Chunk data starts at
	// HeaderRegion; Open auto-detects the mode.
	SingleFile bool
}

// HeaderRegion is the reserved metadata header size of single-file
// arrays. Axial vectors grow by one record per interrupted expansion,
// so even 10⁴ expansions fit comfortably.
const HeaderRegion int64 = 64 << 10

// Array is an open extendible array. Not safe for concurrent use; the
// parallel library drxmp provides multi-process access.
type Array struct {
	name       string
	m          *meta.Meta
	fs         *pfs.FS
	pool       *mpool.Pool
	dirt       bool  // metadata changed since last Sync
	fsIsDisk   bool  // whether metadata must be persisted on Sync
	singleFile bool  // metadata embedded in the data file header
	dataOff    int64 // byte offset of chunk 0 in the data file
	par        int   // Parallelism knob (see Options.Parallelism)

	ci, wi []int // scratch
}

// chunkBacking adapts the striped file to the buffer pool: page id q is
// the chunk's linear address F*(chunk index).
type chunkBacking struct {
	fs         *pfs.FS
	chunkBytes int64
	base       int64
}

func (b chunkBacking) ReadPage(id int64, buf []byte) error {
	_, err := b.fs.ReadAt(buf, b.base+id*b.chunkBytes)
	return err
}

func (b chunkBacking) WritePage(id int64, buf []byte) error {
	_, err := b.fs.WriteAt(buf, b.base+id*b.chunkBytes)
	return err
}

// Create makes a new extendible array named by path (files path+".xmd"
// and path+".xta[.sN]" for disk backends).
func Create(path string, opts Options) (*Array, error) {
	if opts.Order != RowMajor && opts.Order != ColMajor {
		return nil, fmt.Errorf("drx: invalid order %v", opts.Order)
	}
	m, err := meta.New(opts.DType, opts.Order, opts.ChunkShape, opts.Bounds)
	if err != nil {
		return nil, err
	}
	fsOpts := opts.FS
	if fsOpts.Backend == pfs.Disk && fsOpts.Dir == "" {
		fsOpts.Dir = filepath.Dir(path)
	}
	fs, err := pfs.Create(xtaName(path), fsOpts)
	if err != nil {
		return nil, err
	}
	var dataOff int64
	if opts.SingleFile {
		dataOff = HeaderRegion
	}
	a, err := newArray(path, m, fs, opts.CacheChunks, dataOff)
	if err != nil {
		fs.Close()
		return nil, err
	}
	a.par = opts.Parallelism
	a.singleFile = opts.SingleFile
	a.fsIsDisk = fsOpts.Backend == pfs.Disk
	a.dirt = true
	if err := a.Sync(); err != nil {
		fs.Close()
		return nil, err
	}
	return a, nil
}

// Open opens an existing disk-backed array. fsOpts must carry the same
// Servers/StripeSize geometry used at Create (Backend and Dir default
// to Disk and the path's directory). cacheChunks <= 0 selects the
// default cache size. Single-file arrays (no .xmd beside the data) are
// detected automatically.
func Open(path string, fsOpts pfs.Options, cacheChunks int) (*Array, error) {
	fsOpts.Backend = pfs.Disk
	if fsOpts.Dir == "" {
		fsOpts.Dir = filepath.Dir(path)
	}
	blob, err := os.ReadFile(xmdName(path))
	singleFile := false
	if os.IsNotExist(err) {
		singleFile = true
	} else if err != nil {
		return nil, fmt.Errorf("drx: open metadata: %w", err)
	}
	fs, err := pfs.Open(xtaName(path), fsOpts)
	if err != nil {
		return nil, err
	}
	if singleFile {
		blob, err = readHeaderBlob(fs)
		if err != nil {
			fs.Close()
			return nil, err
		}
	}
	m, err := meta.Decode(blob)
	if err != nil {
		fs.Close()
		return nil, err
	}
	var dataOff int64
	if singleFile {
		dataOff = HeaderRegion
	}
	a, err := newArray(path, m, fs, cacheChunks, dataOff)
	if err != nil {
		fs.Close()
		return nil, err
	}
	a.singleFile = singleFile
	a.fsIsDisk = true
	return a, nil
}

// readHeaderBlob extracts the metadata blob from a single-file array's
// header region (8-byte little-endian length, then the .xmd bytes).
func readHeaderBlob(fs *pfs.FS) ([]byte, error) {
	hdr := make([]byte, 8)
	if _, err := fs.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	var n int64
	for i := 7; i >= 0; i-- {
		n = n<<8 | int64(hdr[i])
	}
	if n <= 0 || n > HeaderRegion-8 {
		return nil, fmt.Errorf("drx: single-file header length %d invalid (missing header?)", n)
	}
	blob := make([]byte, n)
	if _, err := fs.ReadAt(blob, 8); err != nil {
		return nil, err
	}
	return blob, nil
}

// Remove deletes the files of a disk-backed array.
func Remove(path string, fsOpts pfs.Options) error {
	fsOpts.Backend = pfs.Disk
	if fsOpts.Dir == "" {
		fsOpts.Dir = filepath.Dir(path)
	}
	err1 := os.Remove(xmdName(path))
	err2 := pfs.Remove(xtaName(path), fsOpts)
	if err1 != nil && !os.IsNotExist(err1) {
		return err1
	}
	return err2
}

func xmdName(path string) string { return path + ".xmd" }
func xtaName(path string) string { return filepath.Base(path) + ".xta" }

func newArray(path string, m *meta.Meta, fs *pfs.FS, cacheChunks int, dataOff int64) (*Array, error) {
	if cacheChunks <= 0 {
		cacheChunks = 64
	}
	pool, err := mpool.New(int(m.ChunkBytes()), cacheChunks,
		chunkBacking{fs: fs, chunkBytes: m.ChunkBytes(), base: dataOff})
	if err != nil {
		return nil, err
	}
	return &Array{
		name:    path,
		m:       m,
		fs:      fs,
		pool:    pool,
		dataOff: dataOff,
		ci:      make([]int, m.Rank()),
		wi:      make([]int, m.Rank()),
	}, nil
}

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return a.m.Rank() }

// Bounds returns the current element bounds.
func (a *Array) Bounds() []int { return a.m.ElemBounds.Clone() }

// ChunkShape returns the chunk shape.
func (a *Array) ChunkShape() []int { return a.m.ChunkShape.Clone() }

// DType returns the element type.
func (a *Array) DType() DType { return a.m.DType }

// Order returns the within-chunk element order.
func (a *Array) Order() Order { return a.m.MemOrder }

// Chunks returns the number of allocated chunks.
func (a *Array) Chunks() int64 { return a.m.Space.Total() }

// Meta exposes the metadata (read-only by convention; used by drxdump
// and the benchmark harness).
func (a *Array) Meta() *meta.Meta { return a.m }

// FS exposes the backing store (I/O statistics in benchmarks).
func (a *Array) FS() *pfs.FS { return a.fs }

// CacheStats returns the chunk-cache counters.
func (a *Array) CacheStats() mpool.Stats { return a.pool.Stats() }

// Parallelism returns the resolved worker bound for Read/Write calls,
// additionally capped by the pool's safe concurrency (each worker pins
// one page and prefetches ahead; the pool must fit both however the
// page ids hash). Raise CacheChunks to allow more workers.
func (a *Array) Parallelism() int {
	n := par.Resolve(a.par)
	if c := a.pool.SafeConcurrency(); n > c {
		n = c
	}
	return n
}

// Extend grows dimension dim by `by` elements. Existing data never
// moves; new chunks are appended to the file as needed and materialize
// lazily (zero-filled) on first access.
func (a *Array) Extend(dim, by int) error {
	if by < 1 {
		return fmt.Errorf("drx: extend by %d", by)
	}
	if dim < 0 || dim >= a.Rank() {
		return fmt.Errorf("drx: dimension %d out of range", dim)
	}
	return a.ExtendTo(dim, a.m.ElemBounds[dim]+by)
}

// ExtendTo grows dimension dim to at least newBound elements.
func (a *Array) ExtendTo(dim, newBound int) error {
	if dim < 0 || dim >= a.Rank() {
		return fmt.Errorf("drx: dimension %d out of range", dim)
	}
	if err := a.m.ExtendElems(dim, newBound); err != nil {
		return err
	}
	a.dirt = true
	// Pre-size the file so holes read as zeros on any backend.
	return a.fs.Truncate(a.dataOff + a.m.FileBytes())
}

// Sync flushes dirty cached chunks and persists the metadata: to the
// companion .xmd, or into the header region for single-file arrays
// (in-memory arrays keep metadata in RAM).
func (a *Array) Sync() error {
	if err := a.pool.Flush(); err != nil {
		return err
	}
	if a.dirt {
		switch {
		case a.singleFile:
			blob := a.m.Encode()
			if int64(len(blob)) > HeaderRegion-8 {
				return fmt.Errorf("drx: metadata (%d bytes) exceeds the single-file header region", len(blob))
			}
			hdr := make([]byte, 8)
			n := int64(len(blob))
			for i := 0; i < 8; i++ {
				hdr[i] = byte(n >> (8 * i))
			}
			if _, err := a.fs.WriteAt(hdr, 0); err != nil {
				return err
			}
			if _, err := a.fs.WriteAt(blob, 8); err != nil {
				return err
			}
		case a.diskBacked():
			if err := os.WriteFile(xmdName(a.name), a.m.Encode(), 0o644); err != nil {
				return err
			}
		}
		a.dirt = false
	}
	return nil
}

func (a *Array) diskBacked() bool { return a.fsIsDisk }

// Close flushes and releases resources.
func (a *Array) Close() error {
	if err := a.Sync(); err != nil {
		return err
	}
	return a.fs.Close()
}

// At reads a single element as float64 (real part for complex arrays).
func (a *Array) At(idx []int) (float64, error) {
	q, within, err := a.m.Locate(idx, a.ci, a.wi)
	if err != nil {
		return 0, err
	}
	buf, err := a.pool.Get(q)
	if err != nil {
		return 0, err
	}
	defer a.pool.Put(q)
	return dtype.Float64At(a.m.DType, buf[within*int64(a.m.DType.Size()):]), nil
}

// Set writes a single element from a float64.
func (a *Array) Set(idx []int, v float64) error {
	q, within, err := a.m.Locate(idx, a.ci, a.wi)
	if err != nil {
		return err
	}
	buf, err := a.pool.Get(q)
	if err != nil {
		return err
	}
	defer a.pool.Put(q)
	dtype.PutFloat64(a.m.DType, buf[within*int64(a.m.DType.Size()):], v)
	return a.pool.MarkDirty(q)
}

// Read copies the sub-array `box` into dst, laid out densely in the
// requested memory order. dst must have box.Volume()*elemSize bytes.
// This is the serial DRXMP_Read: chunks are fetched through the cache
// and elements placed according to the requested order — no out-of-core
// transposition ever happens.
func (a *Array) Read(box Box, dst []byte, order Order) error {
	return a.copyBox(box, dst, order, false)
}

// Write copies src (densely laid out in the given memory order over
// `box`) into the array. The box must lie within the current bounds
// (call Extend first to grow).
func (a *Array) Write(box Box, src []byte, order Order) error {
	return a.copyBox(box, src, order, true)
}

// ReadFloat64s is Read with float64 conversion (convenience).
func (a *Array) ReadFloat64s(box Box, order Order) ([]float64, error) {
	buf := make([]byte, box.Volume()*int64(a.m.DType.Size()))
	if err := a.Read(box, buf, order); err != nil {
		return nil, err
	}
	return dtype.DecodeFloat64s(a.m.DType, buf, int(box.Volume())), nil
}

// WriteFloat64s is Write from float64 values (convenience).
func (a *Array) WriteFloat64s(box Box, vals []float64, order Order) error {
	if int64(len(vals)) != box.Volume() {
		return fmt.Errorf("drx: %d values for box of %d elements", len(vals), box.Volume())
	}
	return a.Write(box, dtype.EncodeFloat64s(a.m.DType, vals), order)
}

// chunkTask is one chunk's share of a Read/Write call: its linear
// address plus its intersection with the requested box. Tasks touch
// disjoint chunk pages and disjoint user-buffer elements, so they can
// proceed on concurrent workers.
type chunkTask struct {
	q          int64
	cbox, ibox Box
}

// copyBox moves data between the chunk store and a dense user buffer.
// The chunk list is dispatched across Parallelism() workers (each
// pinning one page at a time through the sharded pool); workers also
// prefetch the chunks `workers` ahead of their own, so the next pages
// fault in while the current pages scatter/gather.
func (a *Array) copyBox(box Box, user []byte, order Order, write bool) error {
	if box.Rank() != a.Rank() {
		return fmt.Errorf("drx: box rank %d != array rank %d", box.Rank(), a.Rank())
	}
	if box.Empty() {
		return nil
	}
	if !grid.BoxOf(a.m.ElemBounds).ContainsBox(box) {
		return fmt.Errorf("drx: box %v outside bounds %v", box, a.m.ElemBounds)
	}
	es := int64(a.m.DType.Size())
	need := box.Volume() * es
	if int64(len(user)) < need {
		return fmt.Errorf("drx: buffer of %d bytes for %d-byte box", len(user), need)
	}
	boxShape := box.Shape()
	userStrides := grid.Strides(boxShape, order)
	chunkStrides := grid.Strides(a.m.ChunkShape, a.m.MemOrder)

	var tasks []chunkTask
	var outerErr error
	cover := grid.ChunkCover(box, a.m.ChunkShape)
	cover.Iterate(grid.RowMajor, func(cidx []int) bool {
		q, err := a.m.Space.Map(cidx)
		if err != nil {
			outerErr = err
			return false
		}
		cbox := grid.ChunkBox(cidx, a.m.ChunkShape)
		ibox := cbox.Intersect(box)
		if ibox.Empty() {
			return true
		}
		tasks = append(tasks, chunkTask{q: q, cbox: cbox, ibox: ibox})
		return true
	})
	if outerErr != nil {
		return outerErr
	}
	workers := a.Parallelism()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	return par.Do(workers, len(tasks), func(i int) error {
		if workers > 1 {
			// Read-ahead: hint the chunk this worker would reach next.
			if j := i + workers; j < len(tasks) {
				if t := &tasks[j]; !(write && t.ibox.Equal(t.cbox)) {
					a.pool.Prefetch(t.q)
				}
			}
		}
		return a.copyChunk(&tasks[i], box, user, order, userStrides, chunkStrides, es, write)
	})
}

// copyChunk moves one chunk's intersection between its pooled page and
// the user buffer.
func (a *Array) copyChunk(t *chunkTask, box Box, user []byte, order Order, userStrides, chunkStrides []int64, es int64, write bool) error {
	var page []byte
	var err error
	if write && t.ibox.Equal(t.cbox) {
		// Whole-chunk overwrite: skip the read fault.
		page, err = a.pool.GetZero(t.q)
	} else {
		page, err = a.pool.Get(t.q)
	}
	if err != nil {
		return err
	}
	defer a.pool.Put(t.q)
	if write {
		if err := a.pool.MarkDirty(t.q); err != nil {
			return err
		}
	}

	// Fast path: same order on both sides — copy contiguous runs of
	// the chunk's inner dimension.
	if order == a.m.MemOrder {
		t.ibox.Rows(a.m.MemOrder, func(start []int, n int) bool {
			var chunkOff, userOff int64
			for d := range start {
				chunkOff += int64(start[d]-t.cbox.Lo[d]) * chunkStrides[d]
				userOff += int64(start[d]-box.Lo[d]) * userStrides[d]
			}
			cp, up := page[chunkOff*es:(chunkOff+int64(n))*es], user[userOff*es:(userOff+int64(n))*es]
			if write {
				copy(cp, up)
			} else {
				copy(up, cp)
			}
			return true
		})
		return nil
	}
	// Transposing path: element-wise placement (the on-the-fly
	// transposition of Section II-A).
	t.ibox.Iterate(a.m.MemOrder, func(idx []int) bool {
		var chunkOff, userOff int64
		for d := range idx {
			chunkOff += int64(idx[d]-t.cbox.Lo[d]) * chunkStrides[d]
			userOff += int64(idx[d]-box.Lo[d]) * userStrides[d]
		}
		cp, up := page[chunkOff*es:(chunkOff+1)*es], user[userOff*es:(userOff+1)*es]
		if write {
			copy(cp, up)
		} else {
			copy(up, cp)
		}
		return true
	})
	return nil
}
