package drx

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
)

func memArray(t *testing.T, opts Options) *Array {
	t.Helper()
	a, err := Create("test", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func defaultOpts() Options {
	return Options{
		DType:      Float64,
		ChunkShape: []int{2, 3},
		Bounds:     []int{10, 10},
	}
}

func TestCreateValidation(t *testing.T) {
	bad := []Options{
		{},
		{DType: Float64},
		{DType: Float64, ChunkShape: []int{2}, Bounds: []int{0}},
		{DType: Float64, ChunkShape: []int{0}, Bounds: []int{4}},
		{DType: Float64, ChunkShape: []int{2, 2}, Bounds: []int{4}},
		{DType: Float64, ChunkShape: []int{2}, Bounds: []int{4}, Order: Order(9)},
	}
	for i, o := range bad {
		if _, err := Create("x", o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	a := memArray(t, defaultOpts())
	if err := a.Set([]int{3, 7}, 42.5); err != nil {
		t.Fatal(err)
	}
	got, err := a.At([]int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42.5 {
		t.Fatalf("At = %v", got)
	}
	// Unwritten cells read as zero.
	if v, err := a.At([]int{9, 9}); err != nil || v != 0 {
		t.Fatalf("unwritten cell = %v, %v", v, err)
	}
	// Out of bounds.
	if _, err := a.At([]int{10, 0}); err == nil {
		t.Error("out-of-bounds At accepted")
	}
	if err := a.Set([]int{0, 10}, 1); err == nil {
		t.Error("out-of-bounds Set accepted")
	}
	if _, err := a.At([]int{1}); err == nil {
		t.Error("rank-mismatched At accepted")
	}
}

func TestWriteReadBox(t *testing.T) {
	a := memArray(t, defaultOpts())
	box := NewBox([]int{2, 3}, []int{7, 9})
	vals := make([]float64, box.Volume())
	for i := range vals {
		vals[i] = float64(i) + 0.25
	}
	if err := a.WriteFloat64s(box, vals, RowMajor); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadFloat64s(box, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatal("row-major round trip mismatch")
	}
	// Element spot check across chunk boundaries.
	if v, _ := a.At([]int{2, 3}); v != 0.25 {
		t.Fatalf("corner = %v", v)
	}
	if v, _ := a.At([]int{6, 8}); v != float64(4*6+5)+0.25 {
		t.Fatalf("far corner = %v", v)
	}
}

// TestOnTheFlyTransposition is the paper's headline usability claim:
// write in C order, read the same box in Fortran order (and vice versa)
// with no out-of-core transposition step.
func TestOnTheFlyTransposition(t *testing.T) {
	a := memArray(t, defaultOpts())
	box := NewBox([]int{0, 0}, []int{4, 5})
	vals := make([]float64, box.Volume())
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := a.WriteFloat64s(box, vals, RowMajor); err != nil {
		t.Fatal(err)
	}
	colVals, err := a.ReadFloat64s(box, ColMajor)
	if err != nil {
		t.Fatal(err)
	}
	// colVals[(i,j) in col-major] == vals[(i,j) in row-major].
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if colVals[j*4+i] != vals[i*5+j] {
				t.Fatalf("transpose mismatch at (%d,%d): %v vs %v", i, j, colVals[j*4+i], vals[i*5+j])
			}
		}
	}
	// Write in Fortran order, read back in C order.
	box2 := NewBox([]int{5, 0}, []int{9, 4})
	if err := a.WriteFloat64s(box2, colVals[:box2.Volume()], ColMajor); err != nil {
		t.Fatal(err)
	}
	rowBack, err := a.ReadFloat64s(box2, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if rowBack[i*4+j] != colVals[j*4+i] {
				t.Fatalf("F-write/C-read mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestExtendPreservesData is the no-reorganization property end to end:
// grow every dimension repeatedly and verify old content never changes.
func TestExtendPreservesData(t *testing.T) {
	a := memArray(t, Options{
		DType:      Float64,
		ChunkShape: []int{2, 3, 2},
		Bounds:     []int{3, 4, 2},
	})
	rng := rand.New(rand.NewSource(1))
	type kv struct {
		idx []int
		v   float64
	}
	var written []kv
	writeSome := func() {
		b := a.Bounds()
		for i := 0; i < 20; i++ {
			idx := []int{rng.Intn(b[0]), rng.Intn(b[1]), rng.Intn(b[2])}
			v := rng.Float64()
			if err := a.Set(idx, v); err != nil {
				t.Fatal(err)
			}
			written = append(written, kv{idx, v})
		}
	}
	checkAll := func() {
		seen := map[string]float64{}
		for _, w := range written {
			seen[grid.Shape(w.idx).String()] = w.v
		}
		for _, w := range written {
			got, err := a.At(w.idx)
			if err != nil {
				t.Fatal(err)
			}
			if got != seen[grid.Shape(w.idx).String()] {
				t.Fatalf("value at %v changed after extension: %v", w.idx, got)
			}
		}
	}
	writeSome()
	for step := 0; step < 6; step++ {
		if err := a.Extend(step%3, 1+rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
		checkAll()
		writeSome()
	}
	// New region reads zero.
	b := a.Bounds()
	if v, err := a.At([]int{b[0] - 1, b[1] - 1, b[2] - 1}); err != nil || v != 0 {
		t.Fatalf("new corner = %v, %v", v, err)
	}
}

func TestExtendValidation(t *testing.T) {
	a := memArray(t, defaultOpts())
	if err := a.Extend(-1, 1); err == nil {
		t.Error("bad dim accepted")
	}
	if err := a.Extend(0, 0); err == nil {
		t.Error("zero extension accepted")
	}
	if err := a.ExtendTo(0, 5); err != nil { // shrink request: no-op
		t.Fatal(err)
	}
	if got := a.Bounds(); got[0] != 10 {
		t.Fatalf("bounds shrank: %v", got)
	}
}

func TestReadWriteValidation(t *testing.T) {
	a := memArray(t, defaultOpts())
	if err := a.Read(NewBox([]int{0}, []int{1}), make([]byte, 8), RowMajor); err == nil {
		t.Error("rank mismatch accepted")
	}
	if err := a.Read(NewBox([]int{0, 0}, []int{11, 1}), make([]byte, 11*8), RowMajor); err == nil {
		t.Error("out-of-bounds box accepted")
	}
	if err := a.Read(NewBox([]int{0, 0}, []int{2, 2}), make([]byte, 8), RowMajor); err == nil {
		t.Error("short buffer accepted")
	}
	if err := a.WriteFloat64s(NewBox([]int{0, 0}, []int{2, 2}), []float64{1}, RowMajor); err == nil {
		t.Error("short values accepted")
	}
	// Empty box is a no-op.
	if err := a.Read(NewBox([]int{1, 1}, []int{1, 5}), nil, RowMajor); err != nil {
		t.Fatal(err)
	}
}

func TestPartialChunksAtEdge(t *testing.T) {
	// 10x10 with 3x4 chunks: both dimensions end mid-chunk.
	a := memArray(t, Options{DType: Float64, ChunkShape: []int{3, 4}, Bounds: []int{10, 10}})
	box := NewBox([]int{8, 7}, []int{10, 10})
	vals := []float64{1, 2, 3, 4, 5, 6}
	if err := a.WriteFloat64s(box, vals, RowMajor); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadFloat64s(box, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("edge box = %v", got)
	}
}

func TestInt32Array(t *testing.T) {
	a := memArray(t, Options{DType: Int32, ChunkShape: []int{4}, Bounds: []int{10}})
	if err := a.Set([]int{3}, -7); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.At([]int{3}); v != -7 {
		t.Fatalf("int32 round trip = %v", v)
	}
	if a.Meta().ChunkBytes() != 16 {
		t.Fatalf("chunk bytes = %d", a.Meta().ChunkBytes())
	}
}

func TestComplexArray(t *testing.T) {
	a := memArray(t, Options{DType: Complex128, ChunkShape: []int{2, 2}, Bounds: []int{4, 4}})
	if err := a.Set([]int{1, 1}, 3.5); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.At([]int{1, 1}); v != 3.5 {
		t.Fatalf("complex real part = %v", v)
	}
}

func TestColMajorChunkStorage(t *testing.T) {
	o := defaultOpts()
	o.Order = ColMajor
	a := memArray(t, o)
	box := NewBox([]int{0, 0}, []int{10, 10})
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := a.WriteFloat64s(box, vals, RowMajor); err != nil {
		t.Fatal(err)
	}
	back, err := a.ReadFloat64s(box, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, vals) {
		t.Fatal("col-major-chunk round trip mismatch")
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arr")
	opts := defaultOpts()
	opts.FS = pfs.Options{Backend: pfs.Disk, Servers: 2, StripeSize: 64}
	a, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	box := NewBox([]int{0, 0}, []int{10, 10})
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	if err := a.WriteFloat64s(box, vals, RowMajor); err != nil {
		t.Fatal(err)
	}
	if err := a.Extend(1, 7); err != nil { // leave a non-trivial history
		t.Fatal(err)
	}
	if err := a.Set([]int{0, 16}, 99); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, pfs.Options{}, drxmp.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Bounds(); got[0] != 10 || got[1] != 17 {
		t.Fatalf("reopened bounds = %v", got)
	}
	back, err := re.ReadFloat64s(box, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, vals) {
		t.Fatal("persisted data mismatch")
	}
	if v, _ := re.At([]int{0, 16}); v != 99 {
		t.Fatalf("extended cell = %v", v)
	}
	if err := Remove(path); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(path + ".*"); len(left) != 0 {
		t.Fatalf("Remove left %v", left)
	}
	if _, err := Open(path, pfs.Options{}, drxmp.Tuning{}); err == nil {
		t.Fatal("open after remove succeeded")
	}
}

// TestOneFileFormat: an array drx writes, extends and closes is a drxmp
// file — the parallel library opens it on two ranks and reads the same
// bytes.
func TestOneFileFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared")
	opts := defaultOpts()
	opts.FS = pfs.Options{Backend: pfs.Disk, Servers: 2}
	a, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Extend(0, 5); err != nil {
		t.Fatal(err)
	}
	full := NewBox([]int{0, 0}, a.Bounds())
	vals := make([]float64, full.Volume())
	for i := range vals {
		vals[i] = float64(i) - 0.5
	}
	if err := a.WriteFloat64s(full, vals, RowMajor); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	err = cluster.Run(2, func(c *cluster.Comm) error {
		f, err := drxmp.OpenWith(c, path, drxmp.OpenOptions{})
		if err != nil {
			return err
		}
		defer f.Close()
		got, err := f.ReadSectionFloat64s(full, RowMajor)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, vals) {
			return fmt.Errorf("drxmp read of a drx file differs")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStripeDefaultsToOneChunk: a zero StripeSize is the chunk's bytes,
// so the cache's sieve block is one chunk; an explicit stripe is kept.
func TestStripeDefaultsToOneChunk(t *testing.T) {
	a := memArray(t, defaultOpts())
	if got, want := a.FS().StripeSize(), a.Meta().ChunkBytes(); got != want {
		t.Fatalf("default stripe = %d, want the chunk's %d bytes", got, want)
	}
	o := defaultOpts()
	o.FS.StripeSize = 4096
	if got := memArray(t, o).FS().StripeSize(); got != 4096 {
		t.Fatalf("explicit stripe = %d, want 4096", got)
	}
}

func TestOpenMissingArray(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "nope"), pfs.Options{}, drxmp.Tuning{}); err == nil {
		t.Fatal("open of missing array succeeded")
	}
}

// TestCacheEffectiveness: under write-behind the Set is absorbed into
// the cache, so the first At hits it; the second reads the chunk in
// (the one miss) and every later At of that chunk hits.
func TestCacheEffectiveness(t *testing.T) {
	o := defaultOpts()
	o.Tuning = drxmp.Tuning{CacheBytes: 1 << 10, WriteBehindBytes: -1}
	a := memArray(t, o)
	if err := a.Set([]int{0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := a.At([]int{0, i % 3}); err != nil { // same chunk
			t.Fatal(err)
		}
	}
	st := a.CacheStats()
	if st.Misses != 1 || st.Hits < 9 {
		t.Fatalf("cache stats %+v", st)
	}
}

// TestQuickBoxRoundTrip: random boxes, random orders, random chunking.
func TestQuickBoxRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := []int{rng.Intn(3) + 1, rng.Intn(4) + 1}
		nb := []int{rng.Intn(12) + 2, rng.Intn(12) + 2}
		a, err := Create("q", Options{DType: Float64, ChunkShape: cs, Bounds: nb})
		if err != nil {
			return false
		}
		defer a.Close()
		lo := []int{rng.Intn(nb[0]), rng.Intn(nb[1])}
		hi := []int{lo[0] + 1 + rng.Intn(nb[0]-lo[0]), lo[1] + 1 + rng.Intn(nb[1]-lo[1])}
		box := NewBox(lo, hi)
		vals := make([]float64, box.Volume())
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		wo := Order(rng.Intn(2))
		ro := Order(rng.Intn(2))
		if err := a.WriteFloat64s(box, vals, wo); err != nil {
			return false
		}
		got, err := a.ReadFloat64s(box, wo)
		if err != nil || !reflect.DeepEqual(got, vals) {
			return false
		}
		// Cross-order read must be the exact permutation.
		cross, err := a.ReadFloat64s(box, ro)
		if err != nil {
			return false
		}
		sh := box.Shape()
		ok := true
		grid.BoxOf(sh).Iterate(grid.RowMajor, func(idx []int) bool {
			vw := vals[grid.Offset(sh, idx, wo)]
			vr := cross[grid.Offset(sh, idx, ro)]
			if vw != vr {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestParallelColMajorTranspose exercises the transposing (element-
// wise) path over chunks that divide neither bound.
func TestParallelColMajorTranspose(t *testing.T) {
	const n = 24
	a := memArray(t, Options{DType: Float64, ChunkShape: []int{5, 3}, Bounds: []int{n, n}})
	full := NewBox([]int{0, 0}, []int{n, n})
	vals := make([]float64, n*n)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := a.WriteFloat64s(full, vals, RowMajor); err != nil {
		t.Fatal(err)
	}
	colVals, err := a.ReadFloat64s(full, ColMajor)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := colVals[j*n+i], vals[i*n+j]; got != want {
				t.Fatalf("transposed (%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// --- MemArray ---

func TestMemArrayBasics(t *testing.T) {
	m, err := NewMemArray(Float64, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set([]int{1, 2}, 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.At([]int{1, 2}); v != 7 {
		t.Fatalf("At = %v", v)
	}
	if m.Rank() != 2 || m.Elems() != 6 {
		t.Fatalf("rank %d elems %d", m.Rank(), m.Elems())
	}
	if _, err := NewMemArray(Float64, []int{0}); err == nil {
		t.Error("zero bound accepted")
	}
	if _, err := NewMemArray(DType(0), []int{2}); err == nil {
		t.Error("invalid dtype accepted")
	}
}

// TestMemArrayStableOffsets: the defining property of the memory
// resident extendible array — element offsets never change on Extend.
func TestMemArrayStableOffsets(t *testing.T) {
	m, _ := NewMemArray(Float64, []int{2, 2})
	type rec struct {
		idx []int
		off int64
	}
	var recs []rec
	snapshot := func() {
		b := m.Bounds()
		for i := 0; i < b[0]; i++ {
			for j := 0; j < b[1]; j++ {
				off, err := m.Offset([]int{i, j})
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, rec{[]int{i, j}, off})
			}
		}
	}
	snapshot()
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 8; step++ {
		if err := m.Extend(rng.Intn(2), 1+rng.Intn(2)); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			off, err := m.Offset(r.idx)
			if err != nil {
				t.Fatal(err)
			}
			if off != r.off {
				t.Fatalf("offset of %v moved %d -> %d", r.idx, r.off, off)
			}
		}
		recs = recs[:0]
		snapshot()
	}
}

func TestMemArrayValuesSurviveExtend(t *testing.T) {
	m, _ := NewMemArray(Float64, []int{2, 2})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if err := m.Set([]int{i, j}, float64(10*i+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Extend(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Extend(0, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if v, _ := m.At([]int{i, j}); v != float64(10*i+j) {
				t.Fatalf("(%d,%d) = %v", i, j, v)
			}
		}
	}
	// New cells are zero.
	if v, _ := m.At([]int{3, 4}); v != 0 {
		t.Fatalf("new cell = %v", v)
	}
}

func TestMemArrayToDense(t *testing.T) {
	m, _ := NewMemArray(Float64, []int{2, 2})
	_ = m.Extend(1, 1) // bounds 2x3, non-trivial layout
	want := map[[2]int]float64{}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			v := float64(i*3 + j + 1)
			if err := m.Set([]int{i, j}, v); err != nil {
				t.Fatal(err)
			}
			want[[2]int{i, j}] = v
		}
	}
	dense := m.ToDense(RowMajor)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if dense[i*3+j] != want[[2]int{i, j}] {
				t.Fatalf("dense C (%d,%d) = %v", i, j, dense[i*3+j])
			}
		}
	}
	denseF := m.ToDense(ColMajor)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if denseF[j*2+i] != want[[2]int{i, j}] {
				t.Fatalf("dense F (%d,%d) = %v", i, j, denseF[j*2+i])
			}
		}
	}
}

func BenchmarkSetGet(b *testing.B) {
	a, _ := Create("b", Options{DType: Float64, ChunkShape: []int{8, 8}, Bounds: []int{64, 64}})
	defer a.Close()
	idx := []int{13, 57}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Set(idx, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := a.At(idx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBoxAligned(b *testing.B) {
	a, _ := Create("b", Options{DType: Float64, ChunkShape: []int{16, 16}, Bounds: []int{128, 128}})
	defer a.Close()
	box := NewBox([]int{16, 16}, []int{112, 112})
	buf := make([]byte, box.Volume()*8)
	b.SetBytes(box.Volume() * 8)
	for i := 0; i < b.N; i++ {
		if err := a.Read(box, buf, RowMajor); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBoxTransposed(b *testing.B) {
	a, _ := Create("b", Options{DType: Float64, ChunkShape: []int{16, 16}, Bounds: []int{128, 128}})
	defer a.Close()
	box := NewBox([]int{16, 16}, []int{112, 112})
	buf := make([]byte, box.Volume()*8)
	b.SetBytes(box.Volume() * 8)
	for i := 0; i < b.N; i++ {
		if err := a.Read(box, buf, ColMajor); err != nil {
			b.Fatal(err)
		}
	}
}
