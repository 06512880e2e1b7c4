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
// The file keeps only what cannot be derived. The axial vectors are
// stored as the history that built them, which Decode replays through
// core.Space.Extend, the code that grew the live array; the stripe
// layout (servers, stripe unit, parity) is recorded beside it, so an
// opener never has to repeat it. There is one placement per parity
// count: with parity, a row's coded units rotate over every server
// (internal/pfs). Decode refuses older versions as corrupt: version 2
// put the coded units on the last servers, and version 1 recorded no
// layout.
//
// Layout (all integers little-endian):
//
//	magic   "DRXM"            4 bytes
//	version uint32            currently 3
//	payload length uint64
//	payload:
//	    dtype      uint8
//	    memOrder   uint8      within-chunk element order (0=C, 1=Fortran)
//	    rank k     uint32
//	    chunkShape k × int64
//	    elemBounds k × int64  (element-space bounds; need not be chunk-aligned)
//	    servers    uint32     stripe layout: I/O servers, data + parity
//	    stripe     int64      stripe layout: stripe unit in bytes
//	    parity     uint32     stripe layout: parity servers
//	    initial    k × int64  chunk grid of the first allocation
//	    entries    uint32, then per axial record after the first, in
//	               allocation order: dim uint32, new chunk bound int64
//	crc32 (IEEE) of payload   uint32
//
// Each entry grows its dimension, and no two consecutive entries share
// one (the initial grid counts as dimension 0's): the second would have
// merged into the first's record. Decode rejects any other history, so
// every blob it accepts is the encoding of the Meta it returns.
package meta

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"drxmp/internal/core"
	"drxmp/internal/dtype"
	"drxmp/internal/grid"
)

// Magic identifies a DRX metadata blob.
var Magic = [4]byte{'D', 'R', 'X', 'M'}

// Version is the current format version.
const Version = 3

// maxServers bounds a decoded server count, against a forged blob.
const maxServers = 1 << 16

// Layout is the stripe geometry of the array's data file, as the file
// system applied it when the array was created.
type Layout struct {
	Servers    int   // I/O servers, data and parity
	StripeSize int64 // stripe unit in bytes
	Parity     int   // coded units per row among Servers, rotated
}

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
	// Layout is the data file's stripe layout. New leaves it zero for
	// the caller to fill in; Decode accepts only a usable one.
	Layout Layout
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
		Layout:     m.Layout,
		Space:      m.Space.Clone(),
	}
}

// Equal reports whether two metadata images describe the same array
// state (used to assert replica consistency in tests).
func (m *Meta) Equal(o *Meta) bool {
	return string(m.Encode()) == string(o.Encode())
}

// history returns the chunk grid of s's first allocation and one entry
// per later axial record, in allocation order: the record's dimension
// and that dimension's chunk bound where the record's run ended. Every
// dimension's first record is the initial allocation (dimension 0) or
// a sentinel; a dimension's bound when its next record began is that
// record's Start.
func history(s *core.Space) (initial []int, entries []entry) {
	initial = s.Bounds()
	for d := range initial {
		recs := s.Records(d)
		if len(recs) > 1 {
			initial[d] = recs[1].Start
		}
		for i := 1; i < len(recs); i++ {
			end := s.Bound(d)
			if i+1 < len(recs) {
				end = recs[i+1].Start
			}
			entries = append(entries, entry{dim: d, bound: end, base: recs[i].Base})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.base, b.base) })
	return initial, entries
}

// entry is one step of the history: dimension dim grew to bound
// chunks. base orders the entries and is not stored.
type entry struct {
	dim, bound int
	base       int64
}

// Encode serializes m to the .xmd wire format.
func (m *Meta) Encode() []byte {
	var payload []byte
	put8 := func(v uint8) { payload = append(payload, v) }
	put32 := func(v int) { payload = binary.LittleEndian.AppendUint32(payload, uint32(v)) }
	put64 := func(v int64) { payload = binary.LittleEndian.AppendUint64(payload, uint64(v)) }
	putShape := func(s []int) {
		for _, n := range s {
			put64(int64(n))
		}
	}

	put8(uint8(m.DType))
	put8(uint8(m.MemOrder))
	put32(m.Rank())
	putShape(m.ChunkShape)
	putShape(m.ElemBounds)
	put32(m.Layout.Servers)
	put64(m.Layout.StripeSize)
	put32(m.Layout.Parity)
	initial, entries := history(m.Space)
	putShape(initial)
	put32(len(entries))
	for _, e := range entries {
		put32(e.dim)
		put64(int64(e.bound))
	}

	out := make([]byte, 0, 4+4+8+len(payload)+4)
	out = append(out, Magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return out
}

// Decode parses and validates an .xmd blob. It builds the chunk space
// only through core.NewSpace and Space.Extend, replaying the stored
// history.
func Decode(b []byte) (*Meta, error) {
	if len(b) < 20 {
		return nil, fmt.Errorf("%w: short blob (%d bytes)", ErrCorrupt, len(b))
	}
	if string(b[:4]) != string(Magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	if ver := binary.LittleEndian.Uint32(b[4:]); ver != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	plen := binary.LittleEndian.Uint64(b[8:])
	if plen != uint64(len(b))-20 {
		return nil, fmt.Errorf("%w: payload of %d bytes declared, %d present", ErrCorrupt, plen, len(b)-20)
	}
	payload := b[16 : 16+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[16+plen:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	m, err := decodePayload(&reader{b: payload})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, nil
}

// decodePayload reads and checks the fields in order; Decode wraps its
// error in ErrCorrupt.
func decodePayload(r *reader) (*Meta, error) {
	m := &Meta{DType: dtype.T(r.u8()), MemOrder: grid.Order(r.u8())}
	k := r.count()
	if r.err != nil {
		return nil, r.err
	}
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("rank %d", k)
	}
	if !m.DType.Valid() {
		return nil, fmt.Errorf("dtype %d", uint8(m.DType))
	}
	if m.MemOrder != grid.RowMajor && m.MemOrder != grid.ColMajor {
		return nil, fmt.Errorf("memory order %d", uint8(m.MemOrder))
	}
	readShape := func() grid.Shape { // every extent is positive
		s := make(grid.Shape, k)
		for i := range s {
			v := r.i64()
			if v < 1 || v > math.MaxInt32 {
				r.fail(fmt.Errorf("shape extent %d", v))
			}
			s[i] = int(v)
		}
		return s
	}
	m.ChunkShape = readShape()
	m.ElemBounds = readShape()
	m.Layout = Layout{Servers: r.count(), StripeSize: r.i64(), Parity: r.count()}
	initial := readShape()
	n := r.count()
	if r.err != nil {
		return nil, r.err
	}
	if l := m.Layout; l.Servers < 1 || l.Servers > maxServers || l.StripeSize < 1 || l.Parity < 0 || l.Parity >= l.Servers {
		return nil, fmt.Errorf("layout of %d servers, %d B stripe, %d parity", l.Servers, l.StripeSize, l.Parity)
	}
	if n > len(r.b)/12 { // 12 bytes an entry: bound n before building anything
		return nil, fmt.Errorf("%d history entries in %d bytes", n, len(r.b))
	}
	space, err := core.NewSpace(initial)
	if err != nil {
		return nil, err
	}
	prev := 0 // the initial allocation is dimension 0's first record
	for i := 0; i < n; i++ {
		d, bound := r.count(), r.i64()
		switch {
		case r.err != nil:
			return nil, r.err
		case d >= k:
			return nil, fmt.Errorf("history entry %d: dimension %d of rank %d", i, d, k)
		case d == prev:
			return nil, fmt.Errorf("history entry %d repeats dimension %d", i, d)
		case bound <= int64(space.Bound(d)) || bound > math.MaxInt32:
			return nil, fmt.Errorf("history entry %d: dimension %d from %d to %d chunks", i, d, space.Bound(d), bound)
		}
		if err := space.Extend(d, int(bound)-space.Bound(d)); err != nil {
			return nil, fmt.Errorf("history entry %d: %v", i, err)
		}
		prev = d
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%d trailing payload bytes", len(r.b))
	}
	if g := grid.ChunkGrid(m.ElemBounds, m.ChunkShape); !g.Equal(space.Bounds()) {
		return nil, fmt.Errorf("element bounds %v make a %v chunk grid, the history a %v one", m.ElemBounds, g, space.Bounds())
	}
	m.Space = space
	return m, nil
}

// reader is a tiny cursor with sticky errors; past the end it reads
// zeros.
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
	if len(r.b) < n {
		r.fail(fmt.Errorf("truncated (need %d, have %d)", n, len(r.b)))
		return make([]byte, n)
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8   { return r.take(1)[0] }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *reader) i64() int64  { return int64(binary.LittleEndian.Uint64(r.take(8))) }

// count reads a uint32 count or index, failing past math.MaxInt32 so
// the result is non-negative on every platform.
func (r *reader) count() int {
	if v := r.u32(); v <= math.MaxInt32 {
		return int(v)
	}
	r.fail(errors.New("count past math.MaxInt32"))
	return 0
}

// jsonMeta is the debug rendering schema.
type jsonMeta struct {
	DType       string         `json:"dtype"`
	MemOrder    string         `json:"mem_order"`
	ChunkShape  []int          `json:"chunk_shape"`
	ElemBounds  []int          `json:"elem_bounds"`
	Layout      jsonLayout     `json:"layout"`
	ChunkBounds []int          `json:"chunk_bounds"`
	TotalChunks int64          `json:"total_chunks"`
	ChunkBytes  int64          `json:"chunk_bytes"`
	FileBytes   int64          `json:"file_bytes"`
	Axial       [][]jsonRecord `json:"axial_vectors"`
	LastDim     int            `json:"last_extended_dim"`
}

type jsonLayout struct {
	Servers int   `json:"servers"`
	Data    int   `json:"data_servers"`
	Parity  int   `json:"parity_servers"`
	Stripe  int64 `json:"stripe_bytes"`
}

type jsonRecord struct {
	Start int     `json:"start_index"`
	Base  int64   `json:"start_address"`
	Coef  []int64 `json:"coefficients"`
}

// MarshalJSON renders the metadata for human inspection (cmd/drxdump).
func (m *Meta) MarshalJSON() ([]byte, error) {
	l := m.Layout
	jm := jsonMeta{
		DType:       m.DType.String(),
		MemOrder:    m.MemOrder.String(),
		ChunkShape:  m.ChunkShape,
		ElemBounds:  m.ElemBounds,
		Layout:      jsonLayout{l.Servers, l.Servers - l.Parity, l.Parity, l.StripeSize},
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
