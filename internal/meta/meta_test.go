package meta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"drxmp/internal/dtype"
	"drxmp/internal/grid"
)

// testLayout is a usable stripe layout; New leaves Layout zero, which
// Decode rejects.
var testLayout = Layout{Servers: 5, StripeSize: 512, Parity: 1}

func newMeta(t *testing.T) *Meta {
	t.Helper()
	m, err := New(dtype.Float64, grid.RowMajor, grid.Shape{2, 3}, grid.Shape{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	m.Layout = testLayout
	return m
}

// checkMapping is drxdump -check's loop: F* maps every chunk of m's
// grid to a distinct address in [0, Total), and F*⁻¹ returns the chunk.
func checkMapping(t *testing.T, m *Meta) {
	t.Helper()
	seen := make(map[int64]bool, m.Space.Total())
	grid.BoxOf(grid.Shape(m.Space.Bounds())).Iterate(grid.RowMajor, func(ci []int) bool {
		q, err := m.Space.Map(ci)
		if err != nil || q < 0 || q >= m.Space.Total() || seen[q] {
			t.Fatalf("chunk %v maps to %d of %d chunks (err %v, reused %v)", ci, q, m.Space.Total(), err, seen[q])
		}
		seen[q] = true
		if back, err := m.Space.Inverse(q, nil); err != nil || !grid.Shape(back).Equal(ci) {
			t.Fatalf("inverse(%d) = %v, %v; want %v", q, back, err, ci)
		}
		return true
	})
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

// TestDecodeRefusesFixedParityLayout: a version 2 blob of an array with
// parity put its coded units on the last servers, where version 3 rotates
// them. Decode refuses it as corrupt, the blob otherwise intact, so such
// a file is never opened under the rotated layout.
func TestDecodeRefusesFixedParityLayout(t *testing.T) {
	m := newMeta(t)
	m.Layout = Layout{Servers: 8, StripeSize: 16 << 10, Parity: 2}
	blob := m.Encode()
	if _, err := Decode(blob); err != nil {
		t.Fatalf("the version %d blob fails: %v", Version, err)
	}
	binary.LittleEndian.PutUint32(blob[4:], 2)
	if _, err := Decode(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a version 2 blob with parity decodes with err = %v, want ErrCorrupt", err)
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
		"v1":           func(b []byte) []byte { b[4] = 1; return b },
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

// withHistory re-encodes m's header with the given chunk-space history
// (initial grid, then (dimension, bound) entries), resealed, so each
// case reaches the replay instead of stopping at the CRC.
func withHistory(m *Meta, initial []int, entries ...[2]int) []byte {
	b := m.Encode()
	head := 16 + 22 + 16*m.Rank() // header, then the payload up to the history
	b = b[:head]
	for _, n := range initial {
		b = binary.LittleEndian.AppendUint64(b, uint64(n))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint32(b, uint32(e[0]))
		b = binary.LittleEndian.AppendUint64(b, uint64(e[1]))
	}
	return reseal(append(b, 0, 0, 0, 0))
}

// TestDecodeRejectsBadSemantics: blobs with a valid CRC whose fields
// contradict each other fail Decode with ErrCorrupt. Element bounds of
// 10x10 in 2x3 chunks are a 5x4 grid.
func TestDecodeRejectsBadSemantics(t *testing.T) {
	m := newMeta(t)
	if _, err := Decode(withHistory(m, []int{5, 4})); err != nil {
		t.Fatalf("the unextended history fails: %v", err)
	}
	if _, err := Decode(withHistory(m, []int{3, 2}, [2]int{1, 3}, [2]int{0, 5}, [2]int{1, 4})); err != nil {
		t.Fatalf("a three-run history fails: %v", err)
	}
	cases := map[string][]byte{
		"entry does not grow":     withHistory(m, []int{5, 4}, [2]int{1, 4}),
		"entry shrinks":           withHistory(m, []int{5, 4}, [2]int{1, 2}),
		"entry repeats dimension": withHistory(m, []int{5, 2}, [2]int{1, 3}, [2]int{1, 4}),
		"first entry on dim 0":    withHistory(m, []int{3, 4}, [2]int{0, 5}),
		"entry dimension":         withHistory(m, []int{5, 2}, [2]int{2, 4}),
		"grid past elem bounds":   withHistory(m, []int{5, 4}, [2]int{1, 5}),
		"grid short of elem":      withHistory(m, []int{5, 3}),
		"initial grid zero":       withHistory(m, []int{0, 4}),
	}
	// Rank 3, where a chunk count can pass 2^63.
	m3, err := New(dtype.Int32, grid.RowMajor, grid.Shape{1, 1, 1}, grid.Shape{1 << 30, 1 << 30, 1})
	if err != nil {
		t.Fatal(err)
	}
	m3.Layout = testLayout
	cases["initial grid overflows"] = withHistory(m3, []int{1 << 30, 1 << 30, 1 << 30})
	cases["extend overflows"] = withHistory(m3, []int{1 << 30, 1 << 30, 1}, [2]int{2, 1 << 30})
	more := withHistory(m, []int{5, 4})
	more[16+22+16*2+8*2] = 1 // one entry declared, none stored
	cases["entry count past payload"] = reseal(more)
	for _, l := range []Layout{{0, 512, 0}, {5, 0, 0}, {5, 512, 5}, {5, 512, -1}, {maxServers + 1, 512, 0}} {
		bad := m.Clone()
		bad.Layout = l
		cases[fmt.Sprintf("layout %+v", l)] = bad.Encode()
	}
	for _, eb := range []grid.Shape{{1000, 10}, {1, 10}} {
		bad := m.Clone()
		bad.ElemBounds = eb
		cases[fmt.Sprintf("elem bounds %v", eb)] = bad.Encode()
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestResealedBlobMapsEveryChunkOnce: a blob whose every byte may be
// flipped, then resealed with a valid CRC, either fails Decode or maps
// each chunk to its own address. A stored coefficient could send a
// chunk past the end of the file; a replayed history cannot.
func TestResealedBlobMapsEveryChunkOnce(t *testing.T) {
	m := newMeta(t)
	for _, g := range [][2]int{{1, 20}, {0, 17}, {1, 23}} {
		if err := m.ExtendElems(g[0], g[1]); err != nil {
			t.Fatal(err)
		}
	}
	blob := m.Encode()
	decoded := 0
	for i := 16; i < len(blob)-4; i++ {
		for _, mask := range []byte{0x01, 0x02, 0x04, 0x80, 0xFF} {
			b := append([]byte(nil), blob...)
			b[i] ^= mask
			got, err := Decode(reseal(b))
			if err != nil {
				continue
			}
			decoded++
			if got.Space.Total() <= 4096 {
				checkMapping(t, got)
			}
		}
	}
	if decoded == 0 {
		t.Fatal("no flipped blob decoded; the layout bytes should")
	}
}

// TestHistoryRoundTrip is the property the format rests on: for random
// histories over ranks 1–4, with runs of one dimension and growth that
// stays inside a chunk, Decode(Encode(m)) equals m and maps every chunk
// to the same address.
func TestHistoryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		k := 1 + rng.Intn(4)
		cs, eb := make(grid.Shape, k), make(grid.Shape, k)
		for d := range cs {
			cs[d], eb[d] = 1+rng.Intn(4), 1+rng.Intn(9)
		}
		m, err := New(dtype.Int32, grid.Order(rng.Intn(2)), cs, eb)
		if err != nil {
			t.Fatal(err)
		}
		servers := 1 + rng.Intn(8)
		m.Layout = Layout{Servers: servers, StripeSize: int64(1 + rng.Intn(1<<16)), Parity: rng.Intn(servers)}
		dim := rng.Intn(k)
		for step := rng.Intn(12); step > 0; step-- {
			if rng.Intn(3) == 0 { // otherwise the same dimension again
				dim = rng.Intn(k)
			}
			if err := m.ExtendElems(dim, m.ElemBounds[dim]+1+rng.Intn(2*cs[dim])); err != nil {
				t.Fatal(err)
			}
		}
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, m.Space.Dump())
		}
		if !m.Equal(got) || got.Layout != m.Layout || got.Space.NumRecords() != m.Space.NumRecords() {
			t.Fatalf("iter %d: decoded metadata differs:\n%s\n%s", iter, m.Space.Dump(), got.Space.Dump())
		}
		grid.BoxOf(grid.Shape(m.Space.Bounds())).Iterate(grid.RowMajor, func(ci []int) bool {
			if a, b := m.Space.MustMap(ci), got.Space.MustMap(ci); a != b {
				t.Fatalf("iter %d: chunk %v at %d, decoded at %d", iter, ci, a, b)
			}
			return true
		})
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
		m.Layout = testLayout
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
	for _, frag := range []string{`"dtype": "float64"`, `"chunk_shape"`, `"axial_vectors"`, `"start_address"`, `"total_chunks"`,
		`"servers": 5`, `"data_servers": 4`, `"parity_servers": 1`, `"stripe_bytes": 512`} {
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
// encodes back to exactly the blob and, when it has at most 4,096
// chunks, maps each chunk to its own address (checkMapping).
func FuzzMetaDecode(f *testing.F) {
	geometries := []struct {
		cs, eb grid.Shape
		grow   []int // dimensions extended by one chunk and a bit, in turn
		layout Layout
	}{
		{grid.Shape{4}, grid.Shape{10}, []int{0}, Layout{1, 64 << 10, 0}},
		{grid.Shape{2, 3}, grid.Shape{10, 10}, []int{1, 0, 1, 1}, Layout{5, 512, 1}},
		{grid.Shape{8, 8, 8}, grid.Shape{64, 64, 64}, []int{0, 1, 2, 0, 2}, Layout{8, 16 << 10, 2}},
		{grid.Shape{1, 2, 1, 3}, grid.Shape{3, 3, 3, 3}, []int{3, 3, 0}, Layout{4, 1 << 10, 0}},
		{grid.Shape{3, 5}, grid.Shape{7, 4}, nil, Layout{2, 120, 0}},
	}
	for _, g := range geometries {
		m, err := New(dtype.Float64, grid.RowMajor, g.cs, g.eb)
		if err != nil {
			f.Fatal(err)
		}
		m.Layout = g.layout
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
			if m.Space.Total() <= 4096 {
				checkMapping(t, m)
			}
		}
	})
}

func BenchmarkEncode(b *testing.B) {
	m, _ := New(dtype.Float64, grid.RowMajor, grid.Shape{8, 8, 8}, grid.Shape{64, 64, 64})
	m.Layout = testLayout
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
	m.Layout = testLayout
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
