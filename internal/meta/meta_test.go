package meta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"testing/quick"

	"drxmp/internal/dtype"
	"drxmp/internal/grid"
)

func newMeta(t *testing.T) *Meta {
	t.Helper()
	m, err := New(dtype.Float64, grid.RowMajor, grid.Shape{2, 3}, grid.Shape{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewBasics(t *testing.T) {
	m := newMeta(t)
	if m.Rank() != 2 {
		t.Fatalf("rank = %d", m.Rank())
	}
	// Fig. 1 geometry: 10x10 elements, 2x3 chunks -> 5x4 chunk grid.
	if got := m.Space.Bounds(); got[0] != 5 || got[1] != 4 {
		t.Fatalf("chunk bounds = %v", got)
	}
	if m.ChunkElems() != 6 || m.ChunkBytes() != 48 {
		t.Fatalf("chunk elems %d bytes %d", m.ChunkElems(), m.ChunkBytes())
	}
	if m.FileBytes() != 20*48 {
		t.Fatalf("file bytes = %d", m.FileBytes())
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		dt     dtype.T
		cs, eb grid.Shape
	}{
		{dtype.Invalid, grid.Shape{2}, grid.Shape{4}},
		{dtype.Float64, grid.Shape{}, grid.Shape{}},
		{dtype.Float64, grid.Shape{0}, grid.Shape{4}},
		{dtype.Float64, grid.Shape{2, 2}, grid.Shape{4}},
		{dtype.Float64, grid.Shape{2}, grid.Shape{0}},
		{dtype.Float64, grid.Shape{2}, grid.Shape{-1}},
	}
	for i, c := range cases {
		if _, err := New(c.dt, grid.RowMajor, c.cs, c.eb); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestExtendElems(t *testing.T) {
	m := newMeta(t)
	// Growing within the last partial chunk must not add chunks.
	if err := m.ExtendElems(1, 12); err != nil {
		t.Fatal(err)
	}
	if got := m.Space.Bounds(); got[1] != 4 {
		t.Fatalf("bounds after in-chunk growth = %v", got)
	}
	if m.ElemBounds[1] != 12 {
		t.Fatalf("elem bound = %d", m.ElemBounds[1])
	}
	// Growing past it adds chunk indices.
	if err := m.ExtendElems(1, 13); err != nil {
		t.Fatal(err)
	}
	if got := m.Space.Bounds(); got[1] != 5 {
		t.Fatalf("bounds after chunk growth = %v", got)
	}
	// Shrink requests are no-ops.
	if err := m.ExtendElems(1, 5); err != nil {
		t.Fatal(err)
	}
	if m.ElemBounds[1] != 13 {
		t.Fatalf("elem bound shrank to %d", m.ElemBounds[1])
	}
	if err := m.ExtendElems(7, 10); err == nil {
		t.Error("bad dimension accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := newMeta(t)
	// Give it a non-trivial history.
	if err := m.ExtendElems(1, 20); err != nil {
		t.Fatal(err)
	}
	if err := m.ExtendElems(0, 17); err != nil {
		t.Fatal(err)
	}
	if err := m.ExtendElems(1, 23); err != nil {
		t.Fatal(err)
	}
	blob := m.Encode()
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) {
		t.Fatal("decoded metadata differs")
	}
	// The restored space maps identically.
	for q := int64(0); q < m.Space.Total(); q++ {
		a, _ := m.Space.Inverse(q, nil)
		b, _ := got.Space.Inverse(q, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("inverse diverges at %d: %v vs %v", q, a, b)
			}
		}
	}
	// And continues extending identically (lastDim preserved).
	if err := m.ExtendElems(1, 29); err != nil {
		t.Fatal(err)
	}
	if err := got.ExtendElems(1, 29); err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) {
		t.Fatal("post-decode extension diverged")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	m := newMeta(t)
	blob := m.Encode()

	cases := map[string]func([]byte) []byte{
		"short":        func(b []byte) []byte { return b[:8] },
		"magic":        func(b []byte) []byte { b[0] = 'X'; return b },
		"version":      func(b []byte) []byte { b[4] = 99; return b },
		"length":       func(b []byte) []byte { b[8] = 0xFF; return b },
		"crc":          func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
		"payload-bits": func(b []byte) []byte { b[20] ^= 0x55; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-12] },
	}
	for name, corrupt := range cases {
		b := corrupt(append([]byte(nil), blob...))
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: corruption accepted", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDecodeRejectsBadSemantics(t *testing.T) {
	// Valid CRC but semantically broken payloads must be rejected via
	// core.Restore / cross-field checks. Build by re-encoding a mutated
	// copy (Encode always writes a valid CRC).
	m := newMeta(t)
	m.ElemBounds[0] = 1000 // exceeds chunk space 5*2=10
	if _, err := Decode(m.Encode()); err == nil {
		t.Error("elem bound overflow accepted")
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(c1, c2, n1, n2 uint8, growSeq []uint8) bool {
		cs := grid.Shape{int(c1%4) + 1, int(c2%4) + 1}
		eb := grid.Shape{int(n1%20) + 1, int(n2%20) + 1}
		m, err := New(dtype.Int32, grid.ColMajor, cs, eb)
		if err != nil {
			return false
		}
		if len(growSeq) > 8 {
			growSeq = growSeq[:8]
		}
		for _, g := range growSeq {
			dim := int(g) % 2
			if err := m.ExtendElems(dim, m.ElemBounds[dim]+int(g%5)+1); err != nil {
				return false
			}
		}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		return m.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := newMeta(t)
	c := m.Clone()
	if err := c.ExtendElems(0, 50); err != nil {
		t.Fatal(err)
	}
	if m.ElemBounds[0] != 10 {
		t.Fatal("clone extension leaked")
	}
	if m.Equal(c) {
		t.Fatal("diverged copies compare equal")
	}
}

func TestMarshalJSON(t *testing.T) {
	m := newMeta(t)
	if err := m.ExtendElems(1, 20); err != nil {
		t.Fatal(err)
	}
	b, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, frag := range []string{`"dtype": "float64"`, `"chunk_shape"`, `"axial_vectors"`, `"start_address"`, `"total_chunks"`} {
		if !strings.Contains(s, frag) {
			t.Errorf("JSON missing %s:\n%s", frag, s)
		}
	}
}

func TestDecodeRandomGarbage(t *testing.T) {
	f := func(b []byte) bool {
		m, err := Decode(b)
		// Either a clean error, or (astronomically unlikely) a valid meta.
		return err != nil || m != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// reseal rewrites a blob's declared payload length and CRC to match
// the bytes between the header and the last four, so a mutation of the
// payload reaches the field checks instead of stopping at the CRC.
func reseal(b []byte) []byte {
	if len(b) < 20 {
		return b
	}
	out := append([]byte(nil), b...)
	payload := out[16 : len(out)-4]
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(payload))
	return out
}

// FuzzMetaDecode feeds Decode hostile blobs, each as given and resealed
// with a valid length and CRC: it must never panic, and either reject
// the blob with an ErrCorrupt-wrapped error or return metadata that
// encodes back to exactly the blob.
func FuzzMetaDecode(f *testing.F) {
	geometries := []struct {
		cs, eb grid.Shape
		grow   []int // dimensions extended by one chunk and a bit, in turn
	}{
		{grid.Shape{4}, grid.Shape{10}, []int{0}},
		{grid.Shape{2, 3}, grid.Shape{10, 10}, []int{1, 0, 1, 1}},
		{grid.Shape{8, 8, 8}, grid.Shape{64, 64, 64}, []int{0, 1, 2, 0, 2}},
		{grid.Shape{1, 2, 1, 3}, grid.Shape{3, 3, 3, 3}, []int{3, 3, 0}},
	}
	for _, g := range geometries {
		m, err := New(dtype.Float64, grid.RowMajor, g.cs, g.eb)
		if err != nil {
			f.Fatal(err)
		}
		for _, d := range g.grow {
			if err := m.ExtendElems(d, m.ElemBounds[d]+g.cs[d]+1); err != nil {
				f.Fatal(err)
			}
		}
		blob := m.Encode()
		f.Add(blob)
		for _, n := range []int{0, 15, 16, 19, len(blob) / 2, len(blob) - 4, len(blob) - 1} {
			f.Add(blob[:n])
		}
		for _, bit := range []int{0, 8 * 8, 8 * 16, 8 * 18, 8*len(blob) - 1} {
			b := append([]byte(nil), blob...)
			b[bit/8] ^= 1 << (bit % 8)
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, b := range [][]byte{blob, reseal(blob)} {
			m, err := Decode(b)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
				}
				continue
			}
			if again := m.Encode(); !bytes.Equal(again, b) {
				t.Fatalf("decoded metadata encodes to %d bytes unlike the %d decoded", len(again), len(b))
			}
		}
	})
}

func BenchmarkEncode(b *testing.B) {
	m, _ := New(dtype.Float64, grid.RowMajor, grid.Shape{8, 8, 8}, grid.Shape{64, 64, 64})
	for i := 0; i < 30; i++ {
		_ = m.ExtendElems(i%3, m.ElemBounds[i%3]+9)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Encode()
	}
}

func BenchmarkDecode(b *testing.B) {
	m, _ := New(dtype.Float64, grid.RowMajor, grid.Shape{8, 8, 8}, grid.Shape{64, 64, 64})
	for i := 0; i < 30; i++ {
		_ = m.ExtendElems(i%3, m.ElemBounds[i%3]+9)
	}
	blob := m.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}
