package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func memFS(t *testing.T, servers int, stripe int64, cost CostModel) *FS {
	t.Helper()
	fs, err := Create("t", Options{Servers: servers, StripeSize: stripe, Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, servers := range []int{1, 2, 4, 7} {
		for _, stripe := range []int64{4, 16, 64} {
			t.Run(fmt.Sprintf("s%d_b%d", servers, stripe), func(t *testing.T) {
				fs := memFS(t, servers, stripe, CostModel{})
				data := make([]byte, 1000)
				for i := range data {
					data[i] = byte(i * 7)
				}
				if _, err := fs.WriteAt(data, 33); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, 1000)
				if _, err := fs.ReadAt(got, 33); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("round trip mismatch")
				}
				if fs.Size() != 1033 {
					t.Fatalf("size = %d", fs.Size())
				}
			})
		}
	}
}

func TestHolesReadZero(t *testing.T) {
	fs := memFS(t, 3, 8, CostModel{})
	if _, err := fs.WriteAt([]byte{1, 2, 3}, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 50)
	for i := range got {
		got[i] = 0xFF
	}
	if _, err := fs.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("hole byte %d = %d", i, b)
		}
	}
}

// TestMemPages: the Mem backend grows by memPage pages. A store far
// past a server's end allocates the page it lands in, not the gap
// before it; a page never stored, and the region past the last page,
// read as zeros. One server with a one-page stripe makes server offsets
// logical offsets.
func TestMemPages(t *testing.T) {
	t.Run("far-write-allocates-one-page", func(t *testing.T) {
		fs := memFS(t, 1, memPage, CostModel{})
		if _, err := fs.WriteAt([]byte{1}, 0); err != nil { // warms the dispatch
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := fs.WriteAt([]byte{7}, 64<<20); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*memPage {
			t.Fatalf("a 1-byte write at 64 MiB allocated %d bytes, want <= %d", got, 2*memPage)
		}
		got := make([]byte, 1)
		if _, err := fs.ReadAt(got, 64<<20); err != nil || got[0] != 7 {
			t.Fatalf("read back %v, %v", got, err)
		}
	})
	t.Run("hole-read-zeros", func(t *testing.T) {
		fs := memFS(t, 1, memPage, CostModel{})
		// Page 0 ends in a written run, page 1 is never stored, page 2
		// holds a run past a stored gap, and page 3 lies past the end.
		shadow := make([]byte, 4*memPage)
		for _, w := range []struct {
			off int64
			n   int
		}{{memPage - 100, 100}, {2*memPage + 10, 50}} {
			for i := range w.n {
				shadow[w.off+int64(i)] = byte(i + 1)
			}
			if _, err := fs.WriteAt(shadow[w.off:w.off+int64(w.n)], w.off); err != nil {
				t.Fatal(err)
			}
		}
		got := bytes.Repeat([]byte{0xFF}, 3*memPage+100)
		if _, err := fs.ReadAt(got, memPage-100); err != nil {
			t.Fatal(err)
		}
		if want := shadow[memPage-100 : 4*memPage]; !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("byte at %d = %#x, want %#x", memPage-100+i, got[i], want[i])
		}
	})
}

func TestNegativeOffsets(t *testing.T) {
	fs := memFS(t, 2, 8, CostModel{})
	if _, err := fs.WriteAt([]byte{1}, -1); err == nil {
		t.Error("negative write offset accepted")
	}
	if _, err := fs.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative read offset accepted")
	}
	if err := fs.Truncate(-5); err == nil {
		t.Error("negative truncate accepted")
	}
}

func TestTruncateGrowOnly(t *testing.T) {
	fs := memFS(t, 1, 8, CostModel{})
	if err := fs.Truncate(500); err != nil {
		t.Fatal(err)
	}
	if fs.Size() != 500 {
		t.Fatalf("size = %d", fs.Size())
	}
	if err := fs.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if fs.Size() != 500 {
		t.Fatalf("size shrank to %d", fs.Size())
	}
}

// TestStripingDistribution checks that a full-stripe-width write touches
// every server with the expected byte share.
func TestStripingDistribution(t *testing.T) {
	const servers, stripe = 4, 16
	fs := memFS(t, servers, stripe, CostModel{})
	data := make([]byte, servers*stripe*3) // three full rounds
	if _, err := fs.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	for i, ps := range st.PerServer {
		if ps.BytesWritten != stripe*3 {
			t.Errorf("server %d wrote %d bytes, want %d", i, ps.BytesWritten, stripe*3)
		}
	}
}

// TestStripeBoundarySplit checks that requests crossing stripe units are
// split into the right per-server segments and reassemble correctly.
func TestStripeBoundarySplit(t *testing.T) {
	fs := memFS(t, 3, 10, CostModel{})
	data := make([]byte, 95)
	for i := range data {
		data[i] = byte(i + 1)
	}
	if _, err := fs.WriteAt(data, 7); err != nil { // misaligned start
		t.Fatal(err)
	}
	got := make([]byte, 95)
	if _, err := fs.ReadAt(got, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("misaligned round trip mismatch")
	}
	// 95 bytes starting at 7 with unit 10 touches units 0..10 → 11
	// segments, whose server-local ranges lie back to back on each of the
	// 3 servers: one streamed request per server and direction.
	st := fs.Stats()
	if reqs := st.Requests(); reqs != 3+3 {
		t.Fatalf("requests = %d, want 6", reqs)
	}
}

func TestQuickRandomWritesReads(t *testing.T) {
	fs := memFS(t, 5, 13, CostModel{})
	shadow := make([]byte, 1<<14)
	rng := rand.New(rand.NewSource(3))
	f := func(off16 uint16, l8 uint8) bool {
		off := int64(off16) % int64(len(shadow)/2)
		l := int(l8)%200 + 1
		if int(off)+l > len(shadow) {
			l = len(shadow) - int(off)
		}
		p := make([]byte, l)
		rng.Read(p)
		copy(shadow[off:], p)
		if _, err := fs.WriteAt(p, off); err != nil {
			return false
		}
		// Read back a random window covering the write.
		lo := off - int64(rng.Intn(20))
		if lo < 0 {
			lo = 0
		}
		hi := off + int64(l) + int64(rng.Intn(20))
		if hi > int64(len(shadow)) {
			hi = int64(len(shadow))
		}
		got := make([]byte, hi-lo)
		if _, err := fs.ReadAt(got, lo); err != nil {
			return false
		}
		return bytes.Equal(got, shadow[lo:hi])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCostModelSequentialVsRandom(t *testing.T) {
	cost := DefaultCost()
	seq := memFS(t, 1, 1<<20, cost)
	buf := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		if _, err := seq.WriteAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	rnd := memFS(t, 1, 1<<20, cost)
	for i := 0; i < 64; i++ {
		// Jump around: every write seeks.
		off := int64((i*37)%64) * 8192
		if _, err := rnd.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	seqT, rndT := seq.Stats().Elapsed(), rnd.Stats().Elapsed()
	if seqT >= rndT {
		t.Fatalf("sequential (%v) should be cheaper than random (%v)", seqT, rndT)
	}
	// Sequential pays no seeks: the stream starts where the server's
	// position starts (offset 0) and never jumps.
	if got := seq.Stats().Seeks(); got != 0 {
		t.Fatalf("sequential seeks = %d, want 0", got)
	}
	if got := rnd.Stats().Seeks(); got < 60 {
		t.Fatalf("random seeks = %d, want ~63", got)
	}
}

// TestParallelElapsedIsMax: with perfect striping, simulated elapsed
// time approaches total service time / number of servers.
func TestParallelElapsedIsMax(t *testing.T) {
	cost := CostModel{ByteTime: time.Microsecond}
	one := memFS(t, 1, 64, cost)
	four := memFS(t, 4, 64, cost)
	data := make([]byte, 64*4*10)
	if _, err := one.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := four.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	e1, e4 := one.Stats().Elapsed(), four.Stats().Elapsed()
	if e4*4 != e1 {
		t.Fatalf("4-server elapsed %v, 1-server %v: want exactly 4x", e4, e1)
	}
	if one.Stats().BusySum() != four.Stats().BusySum() {
		t.Fatalf("total service time changed with striping: %v vs %v",
			one.Stats().BusySum(), four.Stats().BusySum())
	}
}

func TestStatsSubAndReset(t *testing.T) {
	fs := memFS(t, 2, 8, DefaultCost())
	buf := make([]byte, 64)
	if _, err := fs.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	before := fs.Stats()
	if _, err := fs.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	delta := fs.Stats().Sub(before)
	if delta.Bytes() != 64 {
		t.Fatalf("delta bytes = %d, want 64", delta.Bytes())
	}
	var wrote int64
	for _, ps := range delta.PerServer {
		wrote += ps.BytesWritten
	}
	if wrote != 0 {
		t.Fatalf("delta write bytes = %d", wrote)
	}
	fs.ResetStats()
	if got := fs.Stats(); got.Bytes() != 0 || got.Requests() != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestVectoredIO(t *testing.T) {
	fs := memFS(t, 3, 16, CostModel{})
	base := make([]byte, 256)
	for i := range base {
		base[i] = byte(i)
	}
	if _, err := fs.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	runs := []Run{{Off: 10, Len: 5}, {Off: 100, Len: 20}, {Off: 200, Len: 1}}
	buf := make([]byte, 26)
	n, err := fs.ReadV(runs, buf)
	if err != nil || n != 26 {
		t.Fatalf("ReadV = %d, %v", n, err)
	}
	want := append(append(append([]byte{}, base[10:15]...), base[100:120]...), base[200])
	if !bytes.Equal(buf, want) {
		t.Fatal("ReadV content mismatch")
	}
	// WriteV the reversed content back to a shifted location.
	for i := range buf {
		buf[i] = byte(255 - i)
	}
	wruns := []Run{{Off: 300, Len: 26}}
	if _, err := fs.WriteV(wruns, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 26)
	if _, err := fs.ReadAt(got, 300); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("WriteV content mismatch")
	}
	// Short buffers are rejected.
	if _, err := fs.ReadV(runs, make([]byte, 10)); err == nil {
		t.Error("short ReadV buffer accepted")
	}
	if _, err := fs.WriteV(runs, make([]byte, 10)); err == nil {
		t.Error("short WriteV buffer accepted")
	}
}

func TestDiskBackendRoundTrip(t *testing.T) {
	// Reopened, the size is the end of the last data unit a server
	// holds; with parity a server whose last unit is coded adds nothing.
	// The last byte is in row 4, where the rotation has moved every
	// shard by four servers.
	for _, parity := range []int{0, 2} {
		dir := t.TempDir()
		opts := Options{Servers: 3 + parity, Parity: parity, StripeSize: 32, Backend: Disk, Dir: dir}
		fs, err := Create("arr", opts)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 400)
		for i := range data {
			data[i] = byte(i % 251)
		}
		if _, err := fs.WriteAt(data, 17); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open("arr", opts)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 400)
		if _, err := re.ReadAt(got, 17); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("parity %d: disk round trip mismatch", parity)
		}
		if re.Size() != 417 {
			t.Fatalf("parity %d: reopened size = %d, want 417", parity, re.Size())
		}
		re.Close()
		if err := Remove("arr", opts); err != nil {
			t.Fatal(err)
		}
		if _, err := Open("arr", opts); err == nil {
			t.Fatal("open after remove succeeded")
		}
	}
}

func TestDiskBackendHoles(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Servers: 2, StripeSize: 16, Backend: Disk, Dir: dir}
	fs, err := Create("h", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.WriteAt([]byte{9}, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 101)
	if _, err := fs.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, got[i])
		}
	}
	if got[100] != 9 {
		t.Fatalf("payload byte = %d", got[100])
	}
}

func TestOpenRequiresDisk(t *testing.T) {
	if _, err := Open("x", Options{}); err == nil {
		t.Fatal("mem Open accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := memFS(t, 4, 64, DefaultCost())
	const g = 8
	done := make(chan error, g)
	for w := 0; w < g; w++ {
		go func(w int) {
			buf := make([]byte, 128)
			for i := range buf {
				buf[i] = byte(w)
			}
			for i := 0; i < 50; i++ {
				// Disjoint per-writer ranges: 50 writes of 128 bytes
				// fit in an 8 KiB stride.
				off := int64(w)*8192 + int64(i)*128
				if _, err := fs.WriteAt(buf, off); err != nil {
					done <- err
					return
				}
				got := make([]byte, 128)
				if _, err := fs.ReadAt(got, off); err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, buf) {
					done <- fmt.Errorf("writer %d: corruption at %d", w, off)
					return
				}
			}
			done <- nil
		}(w)
	}
	for i := 0; i < g; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Stats().Bytes(); got != g*50*128*2 {
		t.Fatalf("stats bytes = %d, want %d", got, g*50*128*2)
	}
}

func BenchmarkWriteStriped(b *testing.B) {
	fs, _ := Create("b", Options{Servers: 4, StripeSize: 64 << 10})
	buf := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fs.WriteAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadStriped(b *testing.B) {
	fs, _ := Create("b", Options{Servers: 4, StripeSize: 64 << 10})
	buf := make([]byte, 1<<20)
	if _, err := fs.WriteAt(buf, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fs.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}
