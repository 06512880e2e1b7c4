package mpiio

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"drxmp/internal/pfs"
)

// midFetch is a store hook: it runs fn once, inside the first read
// request the store serves — that is, while a ReadThrough has its sieve
// fetch out and holds no lock.
type midFetch struct {
	once sync.Once
	fn   func()
}

func (h *midFetch) Fail(server int, write bool, off, n int64) error {
	if !write {
		h.once.Do(h.fn)
	}
	return nil
}

// TestSieveGuardKeepsPunchedRangeOut: a write whose BeginWrite and
// EndWrite both fall while a fetch of the same block is out. The
// fetched bytes of that range may predate the write and must not enter
// the cache — but the rest of the block, which no write touched, must.
func TestSieveGuardKeepsPunchedRangeOut(t *testing.T) {
	fs, w := fcForTest(t, 1<<20, 256, 0)
	wrote := []pfs.Run{{Off: 300, Len: 40}}
	fs.SetInjector(&midFetch{fn: func() {
		g := w.BeginWrite(wrote)
		w.EndWrite(g, wrote, Contig(bytes.Repeat([]byte{0xEE}, 40)), true)
	}})
	if err := w.ReadThrough([]pfs.Run{{Off: 256, Len: 256}}, make(Contig, 256)); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(nil)
	// The store write itself lands only now, after the fetch read the
	// store, so only the guard stands between the stale fetched bytes
	// and the cache: EndWrite found nothing cached to update.
	if _, err := fs.WriteAt(bytes.Repeat([]byte{0xEE}, 40), 300); err != nil {
		t.Fatal(err)
	}
	fetched := w.Stats().SieveFetched
	buf := make([]byte, 256)
	if err := w.ReadThrough([]pfs.Run{{Off: 256, Len: 256}}, Contig(buf)); err != nil {
		t.Fatal(err)
	}
	wantPattern(t, buf[:44], 256)
	if !bytes.Equal(buf[44:84], bytes.Repeat([]byte{0xEE}, 40)) {
		t.Fatal("bytes fetched before the write were cached as clean and served after it")
	}
	wantPattern(t, buf[84:], 340)
	if got := w.Stats().SieveFetched - fetched; got != 40 {
		t.Fatalf("second read fetched %d bytes, want exactly the 40 punched ones: the rest of the block should have been cached", got)
	}
}

// TestSieveGuardIgnoresDisjointPunch: another client's write to a range
// the fetch does not touch must not cost the fetch its insert.
func TestSieveGuardIgnoresDisjointPunch(t *testing.T) {
	fs, w := fcForTest(t, 1<<20, 256, 0)
	fs.SetInjector(&midFetch{fn: func() {
		runs := []pfs.Run{{Off: 2048, Len: 512}}
		w.EndWrite(w.BeginWrite(runs), runs, make(Contig, 512), true)
	}})
	if err := w.ReadThrough([]pfs.Run{{Off: 256, Len: 256}}, make(Contig, 256)); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(nil)
	before := w.Stats()
	buf := make([]byte, 256)
	if err := w.ReadThrough([]pfs.Run{{Off: 256, Len: 256}}, Contig(buf)); err != nil {
		t.Fatal(err)
	}
	wantPattern(t, buf, 256)
	after := w.Stats()
	if after.Hits != before.Hits+1 || after.SieveFetched != before.SieveFetched {
		t.Fatalf("a disjoint write discarded the fetch: hits %d -> %d, fetched %d -> %d",
			before.Hits, after.Hits, before.SieveFetched, after.SieveFetched)
	}
}

const benchExt = 512 // bytes per resident extent in the cost fixtures

// fragmentedCache returns a cache holding n clean extents of benchExt
// bytes at a stride of 2*benchExt (so nothing is adjacent and every
// extent can be split), over a store seeded to match, and the function
// that restores that state. budget 0 means "exactly what is resident".
func fragmentedCache(tb testing.TB, n int, budget, spillBytes int64) (*fileCache, func()) {
	tb.Helper()
	fs, err := pfs.Create("frag", pfs.Options{Servers: 4, StripeSize: benchExt})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fs.Close() })
	file := make([]byte, int64(n)*2*benchExt)
	for i := range file {
		file[i] = byte(i >> 9)
	}
	if _, err := fs.WriteAt(file, 0); err != nil {
		tb.Fatal(err)
	}
	if budget == 0 {
		budget = int64(n) * benchExt
	}
	w := cacheForTest(tb, fs, Tuning{CacheBytes: budget, SpillBytes: spillBytes, SpillPath: filepath.Join(tb.TempDir(), "spill.dat")})
	refill := func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.punchLocked([]pfs.Run{{Off: 0, Len: int64(len(file))}})
		for off := int64(0); off < int64(len(file)); off += 2 * benchExt {
			w.clock++
			b := w.getBuf(benchExt)
			w.insert(newExt(off, b.b[:copy(b.b, file[off:off+benchExt])], b, w.clock))
		}
	}
	refill()
	if err := checkInvariants(w); err != nil {
		tb.Fatal(err)
	}
	return w, refill
}

// splitRuns returns k sorted runs, each cutting the middle out of one of
// k consecutive extents starting at extent first.
func splitRuns(first, k int) []pfs.Run {
	runs := make([]pfs.Run, k)
	for i := range runs {
		runs[i] = pfs.Run{Off: int64(first+i)*2*benchExt + 128, Len: 128}
	}
	return runs
}

func allocated(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestPunchVCostIsItsVictims pins the vectored punch by counts, not
// wall time: 256 runs splitting 256 of 65 536 extents allocate the 512
// remainders and little else — not a rebuilt list per run — and the
// same punch again, which now overlaps nothing, allocates nothing at
// all.
func TestPunchVCostIsItsVictims(t *testing.T) {
	w, _ := fragmentedCache(t, 65536+1024, 0, 0)
	// A cache that has seen churn has slack in its slices; one that was
	// filled to exactly its capacity would pay a (doubling, amortized)
	// regrowth of the whole list on its first split.
	punch(w, []pfs.Run{{Off: 65536 * 2 * benchExt, Len: 1024 * 2 * benchExt}})
	runs := splitRuns(30000, 256)
	if got := allocated(func() { punch(w, runs) }); got >= 64<<10 {
		t.Fatalf("punching 256 runs out of 65536 extents allocated %d bytes, want < 64 KiB", got)
	}
	if len(w.ext) != 65536+256 {
		t.Fatalf("%d extents after 256 splits of 65536", len(w.ext))
	}
	if got := allocated(func() { punch(w, runs) }); got != 0 {
		t.Fatalf("a punch that overlaps nothing allocated %d bytes", got)
	}
	if err := checkInvariants(w); err != nil {
		t.Fatal(err)
	}
}

// TestFileCacheOwnsItsMemory pins the cache's memory ownership by
// counts: a warmed cache takes every byte it caches from the buffers it
// freed before, so its steady state allocates almost nothing per
// payload byte. "cycles" drives a cache with a budget and a spill tier
// through miss → evict → demote → promote → write; "fetch-over-budget" is an out-of-core scan whose every read
// fetches a sieve plan twice the budget, so each read frees more than
// the budget and takes it again on the next.
func TestFileCacheOwnsItsMemory(t *testing.T) {
	const block, blocks = 64 << 10, 128
	fs, err := pfs.Create("owns", pfs.Options{Servers: 4, StripeSize: block})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	if _, err := fs.WriteAt(make([]byte, blocks*block), 0); err != nil {
		t.Fatal(err)
	}
	// steady runs cycles [from, to) and fails unless they allocate under
	// limit bytes per payload byte.
	steady := func(t *testing.T, cycle func(i int) int64, from, to int, limit float64) {
		var payload int64
		got := allocated(func() {
			for i := from; i < to; i++ {
				payload += cycle(i)
			}
		})
		if raceEnabled {
			return // sync.Pool sheds buffers at random under the race detector
		}
		if perByte := float64(got) / float64(payload); perByte >= limit {
			t.Fatalf("%d bytes allocated for %d payload bytes: %.4f B/B, want < %g", got, payload, perByte, limit)
		}
	}

	t.Run("cycles", func(t *testing.T) {
		w := cacheForTest(t, fs, Tuning{CacheBytes: 8 * block, SpillBytes: 32 * block, SpillPath: filepath.Join(t.TempDir(), "spill.dat")})
		buf := make([]byte, 4*block)
		window := func(i int) pfs.Run { return pfs.Run{Off: int64(i*4%blocks) * block, Len: 4 * block} }
		cycle := func(i int) int64 {
			// Window i was last read 28 cycles ago and has left both
			// tiers: a store miss, whose inserts evict and demote. Window
			// i-4 was demoted 3 cycles ago and is in the spill tier: a
			// promotion. Then a direct write into window i+1.
			for _, r := range []pfs.Run{window(i), window(i - 4)} {
				if err := w.ReadThrough([]pfs.Run{r}, Contig(buf)); err != nil {
					t.Fatal(err)
				}
			}
			if err := writeThrough(fs, w, []pfs.Run{{Off: window(i+1).Off + block/2, Len: block}}, buf[:block]); err != nil {
				t.Fatal(err)
			}
			return 9 * block
		}
		for i := 4; i < 40; i++ {
			cycle(i)
		}
		before := w.Stats()
		steady(t, cycle, 40, 100, 0.1)
		st := w.Stats().Sub(before)
		if st.Misses == 0 || st.SpillDemoted == 0 || st.SpillPromoted == 0 {
			t.Fatalf("the cycles missed a path: %+v", st)
		}
		if err := checkInvariants(w); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("fetch-over-budget", func(t *testing.T) {
		const budget, window = 4 * block, 8 * block
		w := cacheForTest(t, fs, Tuning{CacheBytes: budget})
		buf := make([]byte, window)
		cycle := func(i int) int64 {
			r := pfs.Run{Off: int64(i) * window % (blocks * block), Len: window}
			if err := w.ReadThrough([]pfs.Run{r}, Contig(buf)); err != nil {
				t.Fatal(err)
			}
			return window
		}
		for i := 0; i < 16; i++ {
			cycle(i)
		}
		steady(t, cycle, 16, 80, 0.01)
		if st := w.Stats(); st.Hits != 0 || st.Evicted == 0 {
			t.Fatalf("want all misses and evictions, got %+v", st)
		}
		if err := checkInvariants(w); err != nil {
			t.Fatal(err)
		}
	})
}

var benchSizes = []int{1 << 10, 16 << 10, 128 << 10}

// BenchmarkFileCacheWrite: one independent write's cache side —
// BeginWrite and EndWrite of 64 sorted runs, each inside a resident
// clean extent, whose bytes EndWrite updates in place — against caches
// of growing fragment counts. The cost must follow the 64, not the N.
func BenchmarkFileCacheWrite(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w, _ := fragmentedCache(b, n, 0, 0)
			mem := make(Contig, 64*128)
			b.ReportAllocs()
			b.SetBytes(int64(len(mem)))
			b.ResetTimer()
			for i, first := 0, n/4; i < b.N; i, first = i+1, first+64 {
				if first+64 > n {
					first = n / 4
				}
				runs := splitRuns(first, 64)
				w.EndWrite(w.BeginWrite(runs), runs, mem, true)
			}
		})
	}
}

// BenchmarkFileCacheReadThroughWarm: a 16-run read served entirely from
// memory, moving through the cache.
func BenchmarkFileCacheReadThroughWarm(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w, _ := fragmentedCache(b, n, 0, 0)
			runs, buf := make([]pfs.Run, 16), make([]byte, 16*256)
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				first := (n/4 + i*16) % (n - 16)
				for k := range runs {
					runs[k] = pfs.Run{Off: int64(first+k)*2*benchExt + 64, Len: 256}
				}
				if err := w.ReadThrough(runs, Contig(buf)); err != nil {
					b.Fatal(err)
				}
			}
			if st := w.Stats(); st.Misses != 0 {
				b.Fatalf("%d misses in the warm benchmark", st.Misses)
			}
		})
	}
}

// BenchmarkFileCacheMissEvict: a one-block miss into a cache exactly at
// its budget — fetch, insert, evict the coldest block — with the
// victim dropped (spill off) or demoted to a spill file that is itself
// full (spill on). The scan cycles over twice what the cache holds (the
// resident blocks and the gaps between them), so it never hits.
func BenchmarkFileCacheMissEvict(b *testing.B) {
	for _, spillBytes := range []int64{0, 64 << 10} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("spill=%v/N=%d", spillBytes > 0, n), func(b *testing.B) {
				w, _ := fragmentedCache(b, n, 0, spillBytes)
				buf := make([]byte, benchExt)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// First the gaps, then the blocks they pushed out, and so on.
					hole := pfs.Run{Off: int64(i%n)*2*benchExt + benchExt*int64(1-i/n%2), Len: benchExt}
					if err := w.ReadThrough([]pfs.Run{hole}, Contig(buf)); err != nil {
						b.Fatal(err)
					}
				}
				if st := w.Stats(); st.Hits != 0 || st.Evicted == 0 {
					b.Fatalf("want all misses and evictions, got %+v", st)
				}
			})
		}
	}
}
