package mpiio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// openPlain opens a handle without a cache, an Open that cannot fail.
func openPlain(c *cluster.Comm, fs *pfs.FS) *File {
	f, _ := Open(c, fs, Tuning{})
	return f
}

// strided is rank r's share of a round-robin chunk map: n blocks of
// size bytes, block i at (r + i*ranks)*size, as coalesced runs.
func strided(r, ranks, n int, size int64) []pfs.Run {
	runs := make([]pfs.Run, n)
	for i := range runs {
		runs[i] = pfs.Run{Off: int64(r+i*ranks) * size, Len: size}
	}
	return pfs.Coalesce(runs)
}

// --- collective I/O ---

// TestPaperListingCollectiveRead re-enacts the paper's Section IV code:
// 4 processes, 20 chunks of 6 doubles, globalMap/inMemoryMap as given,
// collective read into per-process buffers. The listing's indexed
// filetype of chunk addresses is the run list: chunk q is the run
// {q*48, 48}.
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
		f := openPlain(c, fs)
		const chunkBytes = chunkElems * elemSize
		runs := make([]pfs.Run, len(globalMap[me]))
		for i, q := range globalMap[me] {
			runs[i] = pfs.Run{Off: int64(q) * chunkBytes, Len: chunkBytes}
		}
		// Read all my chunks collectively, then place them per the
		// in-memory map (the "memtype" of the listing).
		flat := make([]byte, len(runs)*chunkBytes)
		if err := f.ReadAllV(runs, Contig(flat)); err != nil {
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
			err = cluster.Run(ranks, func(c *cluster.Comm) error {
				f := openPlain(c, fs)
				// Rank r takes every ranks-th 16-byte chunk, 10 chunks.
				runs := strided(c.Rank(), ranks, 10, 16)
				buf := make([]byte, 160)
				if err := f.ReadV(runs, Contig(buf)); err != nil {
					return err
				}
				indep[c.Rank()] = buf
				buf2 := make([]byte, 160)
				if err := f.ReadAllV(runs, Contig(buf2)); err != nil {
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
		f := openPlain(c, fs)
		r := c.Rank()
		// Rank r owns every ranks-th 8-byte slot of 32 slots.
		payload := bytes.Repeat([]byte{byte(r + 1)}, 64)
		if err := f.WriteAllV(strided(r, ranks, 8, 8), Contig(payload)); err != nil {
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
		f := openPlain(c, fs)
		if c.Rank()%2 == 1 {
			return f.ReadAllV(nil, Contig(nil)) // idle participant
		}
		buf := make([]byte, 16)
		if err := f.ReadAllV([]pfs.Run{{Off: int64(c.Rank()) * 8, Len: 16}}, Contig(buf)); err != nil {
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
		f := openPlain(c, fs)
		if err := f.ReadAllV(nil, Contig(nil)); err != nil {
			return err
		}
		return f.WriteAllV(nil, Contig(nil))
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
			f := openPlain(c, fs)
			runs := strided(c.Rank(), ranks, 64, 16)
			buf := make([]byte, 64*16)
			if collective {
				return f.ReadAllV(runs, Contig(buf))
			}
			return f.ReadV(runs, Contig(buf))
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
	wraps := encodeRuns([]pfs.Run{{Off: math.MaxInt64 - 1, Len: 2}})
	if _, err := decodeRuns(wraps); err == nil {
		t.Error("run whose end overflows int64 accepted")
	}
}

// FuzzDecodeRuns: whatever bytes a peer allgathers, decodeRuns returns
// an error or runs the collective can do arithmetic on — Off >= 0,
// Len > 0, Off+Len within int64 — that encode back to the same bytes.
func FuzzDecodeRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		runs, err := decodeRuns(b)
		if err != nil {
			return
		}
		for _, r := range runs {
			if r.Off < 0 || r.Len <= 0 || r.Off > math.MaxInt64-r.Len {
				t.Fatalf("decoded run %+v", r)
			}
		}
		if re := encodeRuns(runs); !bytes.Equal(re, b) {
			t.Fatalf("re-encode of %x = %x", b, re)
		}
	})
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
		f := openPlain(c, fs)
		runs := strided(c.Rank(), 4, 256, 1024)
		buf := make([]byte, 256*1024)
		for i := 0; i < b.N; i++ {
			if err := f.ReadV(runs, Contig(buf)); err != nil {
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
		f := openPlain(c, fs)
		runs := strided(c.Rank(), 4, 256, 1024)
		buf := make([]byte, 256*1024)
		for i := 0; i < b.N; i++ {
			if err := f.ReadAllV(runs, Contig(buf)); err != nil {
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
// for runs the caller did not sort. A vector that does not hold the
// runs' bytes is rejected locally.
func TestCollectiveVectored(t *testing.T) {
	const ranks = 3
	fs, err := pfs.Create("t", pfs.Options{Servers: 3, StripeSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, ranks*100)
	err = cluster.Run(ranks, func(c *cluster.Comm) error {
		f := openPlain(c, fs)
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
