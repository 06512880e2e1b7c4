package mpiio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
)

// --- datatype construction ---

func TestBytes(t *testing.T) {
	d, err := Bytes(10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 10 || d.Extent() != 10 || d.NumBlocks() != 1 {
		t.Fatalf("bytes(10): size %d extent %d blocks %d", d.Size(), d.Extent(), d.NumBlocks())
	}
	if _, err := Bytes(0); err == nil {
		t.Error("Bytes(0) accepted")
	}
	if !(Datatype{}).IsZero() || d.IsZero() {
		t.Error("IsZero misbehaves")
	}
}

func TestContiguous(t *testing.T) {
	base := MustBytes(6)
	d, err := Contiguous(5, base)
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent repetitions merge into one block.
	if d.Size() != 30 || d.Extent() != 30 || d.NumBlocks() != 1 {
		t.Fatalf("contiguous: size %d extent %d blocks %d", d.Size(), d.Extent(), d.NumBlocks())
	}
	if _, err := Contiguous(0, base); err == nil {
		t.Error("count 0 accepted")
	}
}

func TestVector(t *testing.T) {
	base := MustBytes(4)
	d, err := Vector(3, 2, 5, base) // 3 blocks of 2 elems, stride 5 elems
	if err != nil {
		t.Fatal(err)
	}
	want := []Block{{0, 8}, {20, 8}, {40, 8}}
	if !reflect.DeepEqual(d.Blocks(), want) {
		t.Fatalf("vector blocks = %v", d.Blocks())
	}
	if d.Size() != 24 || d.Extent() != 48 {
		t.Fatalf("size %d extent %d", d.Size(), d.Extent())
	}
	if _, err := Vector(2, 3, 2, base); err == nil {
		t.Error("overlapping stride accepted")
	}
	if _, err := Vector(0, 1, 1, base); err == nil {
		t.Error("count 0 accepted")
	}
}

func TestIndexed(t *testing.T) {
	chunk := MustBytes(6) // the paper's listing: ChunkSize doubles, here bytes
	d, err := Indexed([]int{1, 1, 1}, []int{9, 10, 16}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 9 and 10 are adjacent -> merged.
	want := []Block{{54, 12}, {96, 6}}
	if !reflect.DeepEqual(d.Blocks(), want) {
		t.Fatalf("indexed blocks = %v", d.Blocks())
	}
	if d.Size() != 18 {
		t.Fatalf("size = %d", d.Size())
	}
	if _, err := Indexed([]int{1}, []int{0, 1}, chunk); err == nil {
		t.Error("mismatched lens accepted")
	}
	if _, err := Indexed(nil, nil, chunk); err == nil {
		t.Error("empty indexed accepted")
	}
	if _, err := Indexed([]int{1, 1}, []int{0, 0}, chunk); err == nil {
		t.Error("overlapping blocks accepted")
	}
	if _, err := Indexed([]int{-1}, []int{0}, chunk); err == nil {
		t.Error("negative blocklen accepted")
	}
}

func TestSubarray(t *testing.T) {
	// 4x6 row-major array of 2-byte elements; take rows 1..3, cols 2..5.
	d, err := Subarray(grid.Shape{4, 6}, grid.NewBox([]int{1, 2}, []int{3, 5}), 2, grid.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	want := []Block{{16, 6}, {28, 6}}
	if !reflect.DeepEqual(d.Blocks(), want) {
		t.Fatalf("subarray blocks = %v", d.Blocks())
	}
	if d.Extent() != 48 {
		t.Fatalf("extent = %d", d.Extent())
	}
	// Column-major flattening of the same box.
	dc, err := Subarray(grid.Shape{4, 6}, grid.NewBox([]int{1, 2}, []int{3, 5}), 2, grid.ColMajor)
	if err != nil {
		t.Fatal(err)
	}
	if dc.NumBlocks() != 3 { // three columns of 2 rows each
		t.Fatalf("col-major subarray blocks = %v", dc.Blocks())
	}
	if _, err := Subarray(grid.Shape{4, 6}, grid.NewBox([]int{0, 0}, []int{5, 5}), 2, grid.RowMajor); err == nil {
		t.Error("out-of-shape box accepted")
	}
	if _, err := Subarray(grid.Shape{4, 6}, grid.NewBox([]int{1, 1}, []int{1, 1}), 2, grid.RowMajor); err == nil {
		t.Error("empty box accepted")
	}
	if _, err := Subarray(grid.Shape{4}, grid.NewBox([]int{0, 0}, []int{1, 1}), 2, grid.RowMajor); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := Subarray(grid.Shape{4, 6}, grid.NewBox([]int{0, 0}, []int{1, 1}), 0, grid.RowMajor); err == nil {
		t.Error("zero element size accepted")
	}
}

// --- view translation ---

func singleRankFile(t *testing.T, servers int, stripe int64) (*File, *pfs.FS) {
	t.Helper()
	fs, err := pfs.Create("t", pfs.Options{Servers: servers, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	var file *File
	err = cluster.Run(1, func(c *cluster.Comm) error {
		file = Open(c, fs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return file, fs
}

func TestViewTranslation(t *testing.T) {
	f, fs := singleRankFile(t, 1, 64)
	// Ground truth file: 0..255.
	base := make([]byte, 256)
	for i := range base {
		base[i] = byte(i)
	}
	if _, err := fs.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	// View: disp 10, vector of 3-byte blocks every 8 bytes.
	ft, err := Vector(4, 3, 8, MustBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetView(10, ft); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12) // one full tile = 4 blocks x 3 bytes
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := []byte{10, 11, 12, 18, 19, 20, 26, 27, 28, 34, 35, 36}
	if !bytes.Equal(got, want) {
		t.Fatalf("view read = %v, want %v", got, want)
	}
	// Second tile starts at disp + extent (extent = 3*8+3 = 27).
	got2 := make([]byte, 3)
	if err := f.ReadAt(got2, 12); err != nil {
		t.Fatal(err)
	}
	want2 := []byte{37, 38, 39}
	if !bytes.Equal(got2, want2) {
		t.Fatalf("tile-2 read = %v, want %v", got2, want2)
	}
}

func TestViewWriteThenRawRead(t *testing.T) {
	f, fs := singleRankFile(t, 2, 16)
	ft, _ := Indexed([]int{1, 1}, []int{2, 5}, MustBytes(4))
	if err := f.SetView(100, ft); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 32)
	if _, err := fs.ReadAt(raw, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw[8:12], []byte{1, 2, 3, 4}) || !bytes.Equal(raw[20:24], []byte{5, 6, 7, 8}) {
		t.Fatalf("raw after view write = %v", raw)
	}
	for i, b := range raw {
		if (i < 8 || (i >= 12 && i < 20) || i >= 24) && b != 0 {
			t.Fatalf("byte %d spuriously written: %d", i, b)
		}
	}
}

func TestSetViewValidation(t *testing.T) {
	f, _ := singleRankFile(t, 1, 64)
	if err := f.SetView(-1, MustBytes(4)); err == nil {
		t.Error("negative disp accepted")
	}
	if err := f.SetView(0, Datatype{}); err == nil {
		t.Error("zero filetype accepted")
	}
	if err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative read offset accepted")
	}
	if err := f.WriteAt(make([]byte, 1), -1); err == nil {
		t.Error("negative write offset accepted")
	}
	if err := f.SeekSet(-1); err == nil {
		t.Error("negative seek accepted")
	}
}

func TestFilePointer(t *testing.T) {
	f, fs := singleRankFile(t, 1, 64)
	base := make([]byte, 64)
	for i := range base {
		base[i] = byte(i)
	}
	if _, err := fs.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.SetView(0, MustBytes(64)); err != nil {
		t.Fatal(err)
	}
	a := make([]byte, 4)
	if err := f.Read(a); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 4)
	if err := f.Read(b); err != nil {
		t.Fatal(err)
	}
	if a[0] != 0 || b[0] != 4 || f.Tell() != 8 {
		t.Fatalf("sequential reads: %v %v pos %d", a, b, f.Tell())
	}
	if err := f.SeekSet(60); err != nil {
		t.Fatal(err)
	}
	if err := f.Write([]byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	if f.Tell() != 62 {
		t.Fatalf("pos = %d", f.Tell())
	}
	got := make([]byte, 2)
	if _, err := fs.ReadAt(got, 60); err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 || got[1] != 9 {
		t.Fatalf("write-through = %v", got)
	}
}

// TestQuickViewRoundTrip: writing through an arbitrary indexed view and
// reading back through the same view is the identity.
func TestQuickViewRoundTrip(t *testing.T) {
	f, _ := singleRankFile(t, 3, 16)
	rng := rand.New(rand.NewSource(11))
	prop := func(nBlocks8 uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nBlocks8)%6 + 1
		displs := make([]int, n)
		lens := make([]int, n)
		at := 0
		for i := range displs {
			at += r.Intn(5)
			displs[i] = at
			lens[i] = r.Intn(3) + 1
			at += lens[i]
		}
		ft, err := Indexed(lens, displs, MustBytes(3))
		if err != nil {
			return false
		}
		if err := f.SetView(int64(r.Intn(100)), ft); err != nil {
			return false
		}
		payload := make([]byte, ft.Size()*2) // two tiles
		rng.Read(payload)
		off := int64(r.Intn(10))
		if err := f.WriteAt(payload, off); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := f.ReadAt(got, off); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- collective I/O ---

// TestPaperListingCollectiveRead re-enacts the paper's Section IV code:
// 4 processes, 20 chunks of 6 doubles, globalMap/inMemoryMap as given,
// collective read into per-process buffers.
func TestPaperListingCollectiveRead(t *testing.T) {
	const chunkElems = 6
	const elemSize = 8
	const nChunks = 20
	fs, err := pfs.Create("t", pfs.Options{Servers: 4, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The principal array file: chunk q holds values q*chunkElems..+5.
	raw := make([]byte, nChunks*chunkElems*elemSize)
	for i := 0; i < nChunks*chunkElems; i++ {
		putF64(raw[i*8:], float64(i))
	}
	if _, err := fs.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}

	globalMap := [][]int{
		{0, 1, 2, 3, 4, 5},
		{6, 7, 8, 12, 13, 14},
		{9, 10, 16, 17},
		{11, 15, 18, 19},
	}
	inMemoryMap := [][]int{
		{0, 1, 2, 3, 4, 5},
		{0, 2, 4, 1, 3, 5},
		{0, 1, 2, 3},
		{0, 1, 2, 3},
	}

	results := make([][]float64, 4)
	err = cluster.Run(4, func(c *cluster.Comm) error {
		me := c.Rank()
		f := Open(c, fs)
		chunk := MustBytes(chunkElems * elemSize)
		ones := make([]int, len(globalMap[me]))
		for i := range ones {
			ones[i] = 1
		}
		ft, err := Indexed(ones, globalMap[me], chunk)
		if err != nil {
			return err
		}
		if err := f.SetView(0, ft); err != nil {
			return err
		}
		// Read all my chunks collectively, then place them per the
		// in-memory map (the "memtype" of the listing).
		flat := make([]byte, len(globalMap[me])*chunkElems*elemSize)
		if err := f.ReadAllAt(flat, 0); err != nil {
			return err
		}
		mem := make([]float64, len(flat)/8)
		for i, slot := range inMemoryMap[me] {
			for e := 0; e < chunkElems; e++ {
				mem[slot*chunkElems+e] = f64At(flat[(i*chunkElems+e)*8:])
			}
		}
		results[me] = mem
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify: rank 1, memory slot 2 must hold chunk 7 (inMemoryMap[1]
	// places file-order chunk #1 (global 7) at memory slot 2).
	for e := 0; e < chunkElems; e++ {
		if got, want := results[1][2*chunkElems+e], float64(7*chunkElems+e); got != want {
			t.Fatalf("rank 1 slot 2 elem %d = %v, want %v", e, got, want)
		}
	}
	// Full check: every rank's memory holds exactly its chunks.
	for r := range globalMap {
		for i, q := range globalMap[r] {
			slot := inMemoryMap[r][i]
			for e := 0; e < chunkElems; e++ {
				want := float64(q*chunkElems + e)
				if got := results[r][slot*chunkElems+e]; got != want {
					t.Fatalf("rank %d chunk %d elem %d = %v, want %v", r, q, e, got, want)
				}
			}
		}
	}
}

// TestCollectiveEqualsIndependent: for random irregular chunk maps, the
// collective read returns byte-identical data to independent reads.
func TestCollectiveEqualsIndependent(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("P%d", ranks), func(t *testing.T) {
			fs, err := pfs.Create("t", pfs.Options{Servers: 3, StripeSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			raw := make([]byte, 4096)
			rng := rand.New(rand.NewSource(5))
			rng.Read(raw)
			if _, err := fs.WriteAt(raw, 0); err != nil {
				t.Fatal(err)
			}
			indep := make([][]byte, ranks)
			coll := make([][]byte, ranks)
			mkView := func(r int) (Datatype, int) {
				// Rank r takes every ranks-th 16-byte chunk, 10 chunks.
				displs := make([]int, 10)
				ones := make([]int, 10)
				for i := range displs {
					displs[i] = r + i*ranks
					ones[i] = 1
				}
				ft, err := Indexed(ones, displs, MustBytes(16))
				if err != nil {
					t.Fatal(err)
				}
				return ft, 160
			}
			err = cluster.Run(ranks, func(c *cluster.Comm) error {
				f := Open(c, fs)
				ft, n := mkView(c.Rank())
				if err := f.SetView(0, ft); err != nil {
					return err
				}
				buf := make([]byte, n)
				if err := f.ReadAt(buf, 0); err != nil {
					return err
				}
				indep[c.Rank()] = buf
				buf2 := make([]byte, n)
				if err := f.ReadAllAt(buf2, 0); err != nil {
					return err
				}
				coll[c.Rank()] = buf2
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := range indep {
				if !bytes.Equal(indep[r], coll[r]) {
					t.Fatalf("rank %d: collective != independent", r)
				}
			}
		})
	}
}

// TestCollectiveWriteRoundTrip: interleaved collective writes land every
// byte where independent reads expect it.
func TestCollectiveWriteRoundTrip(t *testing.T) {
	const ranks = 4
	fs, err := pfs.Create("t", pfs.Options{Servers: 2, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	err = cluster.Run(ranks, func(c *cluster.Comm) error {
		f := Open(c, fs)
		r := c.Rank()
		// Rank r owns every ranks-th 8-byte slot of 32 slots.
		displs := make([]int, 8)
		ones := make([]int, 8)
		for i := range displs {
			displs[i] = r + i*ranks
			ones[i] = 1
		}
		ft, err := Indexed(ones, displs, MustBytes(8))
		if err != nil {
			return err
		}
		if err := f.SetView(0, ft); err != nil {
			return err
		}
		payload := bytes.Repeat([]byte{byte(r + 1)}, 64)
		if err := f.WriteAllAt(payload, 0); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, ranks*8*8)
	if _, err := fs.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 32; slot++ {
		want := byte(slot%ranks + 1)
		for b := 0; b < 8; b++ {
			if raw[slot*8+b] != want {
				t.Fatalf("slot %d byte %d = %d, want %d", slot, b, raw[slot*8+b], want)
			}
		}
	}
}

// TestCollectiveWithIdleRanks: ranks with empty buffers must still
// participate without deadlock or corruption.
func TestCollectiveWithIdleRanks(t *testing.T) {
	fs, _ := pfs.Create("t", pfs.Options{Servers: 2, StripeSize: 32})
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i)
	}
	if _, err := fs.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f := Open(c, fs)
		if c.Rank()%2 == 1 {
			return f.ReadAllAt(nil, 0) // idle participant
		}
		if err := f.SetView(int64(c.Rank())*8, MustBytes(16)); err != nil {
			return err
		}
		buf := make([]byte, 16)
		if err := f.ReadAllAt(buf, 0); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(c.Rank()*8+i) {
				return fmt.Errorf("rank %d byte %d = %d", c.Rank(), i, buf[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveAllIdle: a collective call where nobody moves data.
func TestCollectiveAllIdle(t *testing.T) {
	fs, _ := pfs.Create("t", pfs.Options{})
	err := cluster.Run(3, func(c *cluster.Comm) error {
		f := Open(c, fs)
		if err := f.ReadAllAt(nil, 0); err != nil {
			return err
		}
		return f.WriteAllAt(nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveAggregationReducesRequests is the structural E5 check:
// an interleaved access pattern costs far fewer server requests (and
// seeks) collectively than independently.
func TestCollectiveAggregationReducesRequests(t *testing.T) {
	const ranks = 4
	mk := func() *pfs.FS {
		fs, _ := pfs.Create("t", pfs.Options{Servers: 2, StripeSize: 256})
		seed := make([]byte, 16384)
		if _, err := fs.WriteAt(seed, 0); err != nil {
			t.Fatal(err)
		}
		fs.ResetStats()
		return fs
	}
	run := func(fs *pfs.FS, collective bool) {
		err := cluster.Run(ranks, func(c *cluster.Comm) error {
			f := Open(c, fs)
			displs := make([]int, 64)
			ones := make([]int, 64)
			for i := range displs {
				displs[i] = c.Rank() + i*ranks
				ones[i] = 1
			}
			ft, err := Indexed(ones, displs, MustBytes(16))
			if err != nil {
				return err
			}
			if err := f.SetView(0, ft); err != nil {
				return err
			}
			buf := make([]byte, 64*16)
			if collective {
				return f.ReadAllAt(buf, 0)
			}
			return f.ReadAt(buf, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fsInd := mk()
	run(fsInd, false)
	fsColl := mk()
	run(fsColl, true)
	indReqs, collReqs := fsInd.Stats().Requests(), fsColl.Stats().Requests()
	if collReqs*4 > indReqs {
		t.Fatalf("collective requests %d not ≪ independent %d", collReqs, indReqs)
	}
}

func TestDecodeRunsErrors(t *testing.T) {
	if _, err := decodeRuns(make([]byte, 15)); err == nil {
		t.Error("odd-length run list accepted")
	}
	bad := encodeRuns([]pfs.Run{{Off: 0, Len: 0}})
	if _, err := decodeRuns(bad); err == nil {
		t.Error("zero-length run accepted")
	}
}

func putF64(p []byte, v float64) {
	u := math.Float64bits(v)
	p[0], p[1], p[2], p[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
	p[4], p[5], p[6], p[7] = byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56)
}

func f64At(p []byte) float64 {
	u := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
	return math.Float64frombits(u)
}

func BenchmarkIndependentIrregularRead(b *testing.B) {
	fs, _ := pfs.Create("b", pfs.Options{Servers: 4, StripeSize: 64 << 10})
	seed := make([]byte, 1<<20)
	if _, err := fs.WriteAt(seed, 0); err != nil {
		b.Fatal(err)
	}
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f := Open(c, fs)
		displs := make([]int, 256)
		ones := make([]int, 256)
		for i := range displs {
			displs[i] = c.Rank() + i*4
			ones[i] = 1
		}
		ft, _ := Indexed(ones, displs, MustBytes(1024))
		if err := f.SetView(0, ft); err != nil {
			return err
		}
		buf := make([]byte, 256*1024)
		for i := 0; i < b.N; i++ {
			if err := f.ReadAt(buf, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCollectiveIrregularRead(b *testing.B) {
	fs, _ := pfs.Create("b", pfs.Options{Servers: 4, StripeSize: 64 << 10})
	seed := make([]byte, 1<<20)
	if _, err := fs.WriteAt(seed, 0); err != nil {
		b.Fatal(err)
	}
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f := Open(c, fs)
		displs := make([]int, 256)
		ones := make([]int, 256)
		for i := range displs {
			displs[i] = c.Rank() + i*4
			ones[i] = 1
		}
		ft, _ := Indexed(ones, displs, MustBytes(1024))
		if err := f.SetView(0, ft); err != nil {
			return err
		}
		buf := make([]byte, 256*1024)
		for i := 0; i < b.N; i++ {
			if err := f.ReadAllAt(buf, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestCollectiveVectored: WriteAllV/ReadAllV move exactly the runs'
// bytes, in run order, through a memory vector whose segment borders
// fall anywhere — inside runs, on them, with empty segments between —
// for runs the caller did not sort, and leave the file view alone. A
// vector that does not hold the runs' bytes is rejected locally.
func TestCollectiveVectored(t *testing.T) {
	const ranks = 3
	fs, err := pfs.Create("t", pfs.Options{Servers: 3, StripeSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, ranks*100)
	err = cluster.Run(ranks, func(c *cluster.Comm) error {
		f := Open(c, fs)
		base := int64(c.Rank()) * 100
		// 70 bytes in three runs, the last one first in the file.
		runs := []pfs.Run{{Off: base + 40, Len: 30}, {Off: base + 75, Len: 25}, {Off: base + 3, Len: 15}}
		payload := make([]byte, 70)
		for i := range payload {
			payload[i] = byte(1 + c.Rank()*70 + i)
		}
		copy(want[base+40:], payload[:30])
		copy(want[base+75:], payload[30:55])
		copy(want[base+3:], payload[55:])
		cut := func(p []byte) pfs.Segs {
			return pfs.Segs{p[:7], nil, p[7:30], p[30:31], {}, p[31:]}
		}
		if err := f.WriteAllV(runs, cut(payload)); err != nil {
			return err
		}
		got := make([]byte, 70)
		if err := f.ReadAllV(runs, cut(got)); err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("rank %d: ReadAllV returned %v, wrote %v", c.Rank(), got, payload)
		}
		if f.ReadAllV(runs, Contig(got[:69])) == nil || f.WriteAllV([]pfs.Run{{Off: -1, Len: 70}}, Contig(got)) == nil {
			return fmt.Errorf("rank %d: a vector that does not match its runs was accepted", c.Rank())
		}
		// The default view is still in place: view byte v is file byte v.
		if err := f.ReadAt(got[:15], base+3); err != nil {
			return err
		}
		if !bytes.Equal(got[:15], payload[55:]) {
			return fmt.Errorf("rank %d: view moved by a vectored collective", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, len(want))
	if _, err := fs.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("file holds\n%v\nwant\n%v", raw, want)
	}
}
