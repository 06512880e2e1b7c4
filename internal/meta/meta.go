// Package meta implements the ".xmd" metadata file of the DRX array
// libraries: the persistent, replicable description of an extendible
// array file.
//
// The paper (Section IV-A) stores in the meta-data file "a persistent
// copy of the content of the axial-vectors used in the linear address
// calculation", plus the number of dimensions, the data type, the chunk
// shape, the instantaneous bounds of the array and the number of chunks.
// When a file is opened by a parallel program, the metadata is read once
// and replicated in all participating processes; this package provides
// the binary encoding (with CRC32 integrity), decoding with validation,
// and a JSON debug rendering used by cmd/drxdump.
//
// Layout (all integers little-endian):
//
//	magic   "DRXM"            4 bytes
//	version uint32            currently 1
//	payload length uint64
//	payload:
//	    dtype      uint8
//	    memOrder   uint8      within-chunk element order (0=C, 1=Fortran)
//	    rank k     uint32
//	    chunkShape k × int64
//	    elemBounds k × int64  (element-space bounds; need not be chunk-aligned)
//	    chunkBounds k × int64 (chunk-space bounds, = Space bounds)
//	    totalChunks int64
//	    lastDim     uint32
//	    per dimension: record count uint32, then records
//	        (start int64, base int64, k × coef int64)
//	crc32 (IEEE) of payload   uint32
package meta

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"drxmp/internal/core"
	"drxmp/internal/dtype"
	"drxmp/internal/grid"
)

// Magic identifies a DRX metadata blob.
var Magic = [4]byte{'D', 'R', 'X', 'M'}

// Version is the current format version.
const Version = 1

// Meta describes one extendible array file. It is the in-memory image
// of an .xmd file, replicated per process when opened in parallel.
type Meta struct {
	// DType is the element type.
	DType dtype.T
	// MemOrder is the element order within a chunk (and the default
	// order of in-memory sub-arrays).
	MemOrder grid.Order
	// ChunkShape is the fixed chunk shape in elements.
	ChunkShape grid.Shape
	// ElemBounds is the element-space bound of each dimension. It need
	// not be a multiple of the chunk shape: the paper notes "the maximum
	// index of a dimension does not necessarily fall exactly on a
	// segment boundary".
	ElemBounds grid.Shape
	// Space is the chunk-space extendible index mapping (axial vectors).
	Space *core.Space
}

// ErrCorrupt reports a malformed or inconsistent metadata blob.
var ErrCorrupt = errors.New("meta: corrupt metadata")

// New builds metadata for a fresh array.
func New(dt dtype.T, memOrder grid.Order, chunkShape, elemBounds grid.Shape) (*Meta, error) {
	if !dt.Valid() {
		return nil, fmt.Errorf("meta: invalid dtype %v", dt)
	}
	if err := chunkShape.Validate(); err != nil {
		return nil, err
	}
	if !chunkShape.Positive() {
		return nil, fmt.Errorf("meta: chunk shape %v must be positive", chunkShape)
	}
	if len(elemBounds) != len(chunkShape) {
		return nil, fmt.Errorf("meta: bounds rank %d != chunk rank %d", len(elemBounds), len(chunkShape))
	}
	if !elemBounds.Positive() {
		return nil, fmt.Errorf("meta: element bounds %v must be positive", elemBounds)
	}
	space, err := core.NewSpace(grid.ChunkGrid(elemBounds, chunkShape))
	if err != nil {
		return nil, err
	}
	return &Meta{
		DType:      dt,
		MemOrder:   memOrder,
		ChunkShape: chunkShape.Clone(),
		ElemBounds: elemBounds.Clone(),
		Space:      space,
	}, nil
}

// Rank returns the number of dimensions.
func (m *Meta) Rank() int { return len(m.ChunkShape) }

// ChunkBytes returns the byte size of one (full) chunk.
func (m *Meta) ChunkBytes() int64 {
	return m.ChunkShape.Volume() * int64(m.DType.Size())
}

// ChunkElems returns the element count of one chunk.
func (m *Meta) ChunkElems() int64 { return m.ChunkShape.Volume() }

// FileBytes returns the current principal-array file size in bytes
// (total chunks × chunk bytes; partial chunks are stored full-size).
func (m *Meta) FileBytes() int64 { return m.Space.Total() * m.ChunkBytes() }

// ExtendElems grows dimension dim so that its element bound becomes
// newBound (no-op if newBound <= current). The chunk space grows by
// whole chunks as needed; repeated growth of the same dimension merges
// into one axial record.
func (m *Meta) ExtendElems(dim int, newBound int) error {
	if dim < 0 || dim >= m.Rank() {
		return fmt.Errorf("meta: dimension %d out of range", dim)
	}
	if newBound <= m.ElemBounds[dim] {
		return nil
	}
	needChunks := (newBound + m.ChunkShape[dim] - 1) / m.ChunkShape[dim]
	if needChunks > m.Space.Bound(dim) {
		if err := m.Space.Extend(dim, needChunks-m.Space.Bound(dim)); err != nil {
			return err
		}
	}
	m.ElemBounds[dim] = newBound
	return nil
}

// Clone returns an independent deep copy (used when replicating the
// metadata to every process of a parallel program).
func (m *Meta) Clone() *Meta {
	return &Meta{
		DType:      m.DType,
		MemOrder:   m.MemOrder,
		ChunkShape: m.ChunkShape.Clone(),
		ElemBounds: m.ElemBounds.Clone(),
		Space:      m.Space.Clone(),
	}
}

// Equal reports whether two metadata images describe the same array
// state (used to assert replica consistency in tests).
func (m *Meta) Equal(o *Meta) bool {
	if m.DType != o.DType || m.MemOrder != o.MemOrder ||
		!m.ChunkShape.Equal(o.ChunkShape) || !m.ElemBounds.Equal(o.ElemBounds) {
		return false
	}
	a, b := m.Encode(), o.Encode()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Encode serializes m to the .xmd wire format.
func (m *Meta) Encode() []byte {
	var payload []byte
	put8 := func(v uint8) { payload = append(payload, v) }
	put32 := func(v uint32) { payload = binary.LittleEndian.AppendUint32(payload, v) }
	put64 := func(v int64) { payload = binary.LittleEndian.AppendUint64(payload, uint64(v)) }

	put8(uint8(m.DType))
	put8(uint8(m.MemOrder))
	k := m.Rank()
	put32(uint32(k))
	for _, c := range m.ChunkShape {
		put64(int64(c))
	}
	for _, n := range m.ElemBounds {
		put64(int64(n))
	}
	for _, n := range m.Space.Bounds() {
		put64(int64(n))
	}
	put64(m.Space.Total())
	put32(uint32(m.Space.LastDim()))
	for d := 0; d < k; d++ {
		recs := m.Space.Records(d)
		put32(uint32(len(recs)))
		for _, r := range recs {
			put64(int64(r.Start))
			put64(r.Base)
			for _, c := range r.Coef {
				put64(c)
			}
		}
	}

	out := make([]byte, 0, 4+4+8+len(payload)+4)
	out = append(out, Magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return out
}

// Decode parses and validates an .xmd blob.
func Decode(b []byte) (*Meta, error) {
	if len(b) < 20 {
		return nil, fmt.Errorf("%w: short blob (%d bytes)", ErrCorrupt, len(b))
	}
	if string(b[:4]) != string(Magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	ver := binary.LittleEndian.Uint32(b[4:])
	if ver != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	plen := binary.LittleEndian.Uint64(b[8:])
	if plen != uint64(len(b))-20 {
		return nil, fmt.Errorf("%w: payload of %d bytes declared, %d present", ErrCorrupt, plen, len(b)-20)
	}
	payload := b[16 : 16+plen]
	gotCRC := binary.LittleEndian.Uint32(b[16+plen:])
	if crc32.ChecksumIEEE(payload) != gotCRC {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}

	r := reader{b: payload}
	dt := dtype.T(r.u8())
	mo := grid.Order(r.u8())
	k := int(r.u32())
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("%w: rank %d", ErrCorrupt, k)
	}
	if !dt.Valid() {
		return nil, fmt.Errorf("%w: dtype %d", ErrCorrupt, uint8(dt))
	}
	if mo != grid.RowMajor && mo != grid.ColMajor {
		return nil, fmt.Errorf("%w: memory order %d", ErrCorrupt, uint8(mo))
	}
	readShape := func() grid.Shape {
		s := make(grid.Shape, k)
		for i := range s {
			v := r.i64()
			if v < 0 || v > math.MaxInt32 {
				r.fail(fmt.Errorf("shape extent %d", v))
				return nil
			}
			s[i] = int(v)
		}
		return s
	}
	chunkShape := readShape()
	elemBounds := readShape()
	chunkBounds := readShape()
	total := r.i64()
	lastDim := int(r.u32())
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	axial := make([]core.Vector, k)
	for d := 0; d < k; d++ {
		n := int(r.u32())
		// Each record takes 16+8k bytes, so the count is bounded by what
		// is left before anything is allocated for it.
		if r.err != nil || n < 1 || n > len(r.b)/(16+8*k) {
			return nil, fmt.Errorf("%w: record count %d for dimension %d", ErrCorrupt, n, d)
		}
		recs := make([]core.Record, n)
		for i := range recs {
			start := r.i64()
			base := r.i64()
			coef := make([]int64, k)
			for j := range coef {
				coef[j] = r.i64()
			}
			if r.err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
			}
			recs[i] = core.Record{Start: int(start), Base: base, Coef: coef}
		}
		axial[d] = core.Vector{Records: recs}
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.b))
	}
	space, err := core.Restore(chunkBounds, total, axial, lastDim)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	m := &Meta{
		DType:      dt,
		MemOrder:   mo,
		ChunkShape: chunkShape,
		ElemBounds: elemBounds,
		Space:      space,
	}
	// Cross-field consistency: the chunk grid implied by the element
	// bounds must match the space's bounds.
	for d := 0; d < k; d++ {
		if !chunkShape.Positive() {
			return nil, fmt.Errorf("%w: chunk shape %v", ErrCorrupt, chunkShape)
		}
		want := (elemBounds[d] + chunkShape[d] - 1) / chunkShape[d]
		if want > space.Bound(d) {
			return nil, fmt.Errorf("%w: element bound %d of dim %d exceeds chunk space %d×%d",
				ErrCorrupt, elemBounds[d], d, space.Bound(d), chunkShape[d])
		}
	}
	return m, nil
}

// reader is a tiny cursor with sticky errors.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail(fmt.Errorf("truncated (need %d, have %d)", n, len(r.b)))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// jsonMeta is the debug rendering schema.
type jsonMeta struct {
	DType       string         `json:"dtype"`
	MemOrder    string         `json:"mem_order"`
	ChunkShape  []int          `json:"chunk_shape"`
	ElemBounds  []int          `json:"elem_bounds"`
	ChunkBounds []int          `json:"chunk_bounds"`
	TotalChunks int64          `json:"total_chunks"`
	ChunkBytes  int64          `json:"chunk_bytes"`
	FileBytes   int64          `json:"file_bytes"`
	Axial       [][]jsonRecord `json:"axial_vectors"`
	LastDim     int            `json:"last_extended_dim"`
}

type jsonRecord struct {
	Start int     `json:"start_index"`
	Base  int64   `json:"start_address"`
	Coef  []int64 `json:"coefficients"`
}

// MarshalJSON renders the metadata for human inspection (cmd/drxdump).
func (m *Meta) MarshalJSON() ([]byte, error) {
	jm := jsonMeta{
		DType:       m.DType.String(),
		MemOrder:    m.MemOrder.String(),
		ChunkShape:  m.ChunkShape,
		ElemBounds:  m.ElemBounds,
		ChunkBounds: m.Space.Bounds(),
		TotalChunks: m.Space.Total(),
		ChunkBytes:  m.ChunkBytes(),
		FileBytes:   m.FileBytes(),
		LastDim:     m.Space.LastDim(),
	}
	for d := 0; d < m.Rank(); d++ {
		var recs []jsonRecord
		for _, r := range m.Space.Records(d) {
			recs = append(recs, jsonRecord{Start: r.Start, Base: r.Base, Coef: r.Coef})
		}
		jm.Axial = append(jm.Axial, recs)
	}
	return json.MarshalIndent(jm, "", "  ")
}
