package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// fcForTest builds a store seeded with a position-dependent pattern
// and a caching-enabled cache on top of it. The sieve block is the
// store's stripe.
func fcForTest(t *testing.T, budget, sieve, ra int64) (*pfs.FS, *fileCache) {
	t.Helper()
	fs, err := pfs.Create("fc", pfs.Options{Servers: 2, StripeSize: sieve})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	seed := make([]byte, 4096)
	for i := range seed {
		seed[i] = byte(i%251) + 1
	}
	if _, err := fs.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()
	return fs, cacheForTest(t, fs, Tuning{CacheBytes: budget, ReadAheadBytes: ra})
}

// cacheForTest builds a cache on fs under t, as the store's first
// caching Open does, and releases its spill file when the test ends.
func cacheForTest(tb testing.TB, fs *pfs.FS, t Tuning) *fileCache {
	tb.Helper()
	w, err := newFileCache(fs, t)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.closeHook() })
	return w
}

// writeThrough is File.WriteV's protocol on w: BeginWrite, the store
// write of p (runs packed back-to-back), EndWrite.
func writeThrough(fs *pfs.FS, w *fileCache, runs []pfs.Run, p []byte) error {
	g := w.BeginWrite(runs)
	_, err := fs.WriteV(runs, p)
	w.EndWrite(g, runs, Contig(p), err == nil)
	return err
}

// punch removes runs from both tiers of w, as EndWrite does after a
// failed store write.
func punch(w *fileCache, runs []pfs.Run) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.punchLocked(runs)
}

// wantPattern checks buf against the seeded store pattern at off.
func wantPattern(t *testing.T, buf []byte, off int64) {
	t.Helper()
	for i := range buf {
		if want := byte((off+int64(i))%251) + 1; buf[i] != want {
			t.Fatalf("byte %d (file %d) = %d, want %d", i, off+int64(i), buf[i], want)
		}
	}
}

// TestFileCacheSieveFetchAndWarmHit: a cached read fetches the
// sieve-aligned covering block as sieve-attributed traffic, and the
// re-read (and any read inside the fetched block) is served from
// memory with no store requests.
func TestFileCacheSieveFetchAndWarmHit(t *testing.T) {
	fs, w := fcForTest(t, 1<<20, 256, 0)
	buf := make([]byte, 80)
	if err := w.ReadThrough([]pfs.Run{{Off: 300, Len: 80}}, Contig(buf)); err != nil {
		t.Fatal(err)
	}
	wantPattern(t, buf, 300)
	st := fs.Stats()
	// [300, 380) rounds to the sieve block [256, 512).
	if st.SieveBytes() != 256 {
		t.Fatalf("SieveBytes = %d, want 256 (one aligned block)", st.SieveBytes())
	}
	if st.BytesRead() != 256 {
		t.Fatalf("store read %d bytes, want 256", st.BytesRead())
	}
	// Re-read, and a different range inside the same block: both warm.
	for _, r := range []pfs.Run{{Off: 300, Len: 80}, {Off: 256, Len: 256}} {
		got := make([]byte, r.Len)
		if err := w.ReadThrough([]pfs.Run{r}, Contig(got)); err != nil {
			t.Fatal(err)
		}
		wantPattern(t, got, r.Off)
	}
	if after := fs.Stats(); after.Reads() != st.Reads() {
		t.Fatalf("warm reads issued %d extra store reads", after.Reads()-st.Reads())
	}
	cs := w.Stats()
	if cs.Hits != 2 || cs.Misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 2/1", cs.Hits, cs.Misses)
	}
	if cs.SieveFetched != 256 || cs.MissBytes != 80 {
		t.Fatalf("fetched %d / missed %d, want 256 / 80", cs.SieveFetched, cs.MissBytes)
	}
}

// TestFileCacheReadAhead: with read-ahead configured, the fetch
// extends past the requested block, so the NEXT sequential read is a
// pure hit.
func TestFileCacheReadAhead(t *testing.T) {
	fs, w := fcForTest(t, 1<<20, 256, 256)
	buf := make([]byte, 64)
	if err := w.ReadThrough([]pfs.Run{{Off: 0, Len: 64}}, Contig(buf)); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.SieveBytes() != 512 {
		t.Fatalf("SieveBytes = %d, want 512 (block + read-ahead block)", st.SieveBytes())
	}
	// The forward scan's next block: warm.
	if err := w.ReadThrough([]pfs.Run{{Off: 256, Len: 256}}, make(Contig, 256)); err != nil {
		t.Fatal(err)
	}
	if after := fs.Stats(); after.Reads() != st.Reads() {
		t.Fatal("read-ahead block was not cached")
	}
}

// TestFileCacheDirtyStraddleRead (the ID of the write-behind test it
// replaces): a read straddling a written range merges the bytes the
// write updated in memory with sieve-fetched store bytes around them,
// the written bytes the cache did not hold coming from the store.
func TestFileCacheDirtyStraddleRead(t *testing.T) {
	fs, w := fcForTest(t, 1<<20, 128, 0)
	if err := w.ReadThrough([]pfs.Run{{Off: 128, Len: 128}}, make(Contig, 128)); err != nil {
		t.Fatal(err)
	}
	if err := writeThrough(fs, w, []pfs.Run{{Off: 200, Len: 100}}, bytes.Repeat([]byte{7}, 100)); err != nil {
		t.Fatal(err)
	}
	if w.Cached() != 128 {
		t.Fatalf("cached = %d after the write, want 128 (uncached bytes stay uncached)", w.Cached())
	}
	buf := make([]byte, 256)
	if err := w.ReadThrough([]pfs.Run{{Off: 100, Len: 256}}, Contig(buf)); err != nil {
		t.Fatal(err)
	}
	wantPattern(t, buf[:100], 100) // [100, 200): store, then memory
	if !bytes.Equal(buf[100:200], bytes.Repeat([]byte{7}, 100)) {
		t.Fatal("written middle wrong")
	}
	wantPattern(t, buf[200:], 300) // [300, 356): store
}

// TestFileCacheFlushKeepsWarm (the ID of the write-behind test it
// replaces): a write over cached bytes reaches the store and leaves
// them cached with its bytes, so the re-read is a pure hit.
func TestFileCacheFlushKeepsWarm(t *testing.T) {
	fs, w := fcForTest(t, 1<<20, 128, 0)
	if err := w.ReadThrough([]pfs.Run{{Off: 0, Len: 256}}, make(Contig, 256)); err != nil {
		t.Fatal(err)
	}
	if err := writeThrough(fs, w, []pfs.Run{{Off: 0, Len: 256}}, bytes.Repeat([]byte{5}, 256)); err != nil {
		t.Fatal(err)
	}
	if w.Cached() != 256 {
		t.Fatalf("cached = %d after the write, want 256 (kept)", w.Cached())
	}
	back := make([]byte, 256)
	if _, err := fs.ReadAt(back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, bytes.Repeat([]byte{5}, 256)) {
		t.Fatal("the write did not reach the store")
	}
	fs.ResetStats()
	buf := make([]byte, 256)
	if err := w.ReadThrough([]pfs.Run{{Off: 0, Len: 256}}, Contig(buf)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, back) {
		t.Fatal("warm re-read wrong")
	}
	if fs.Stats().Reads() != 0 {
		t.Fatal("re-read after the write went to the store")
	}
}

// TestFileCacheLRUEviction: over budget, the least-recently-used clean
// extent goes first; touched extents survive.
func TestFileCacheLRUEviction(t *testing.T) {
	fs, w := fcForTest(t, 256, 128, 0)
	// Two blocks fill the budget exactly.
	if err := w.ReadThrough([]pfs.Run{{Off: 0, Len: 128}}, make(Contig, 128)); err != nil {
		t.Fatal(err)
	}
	if err := w.ReadThrough([]pfs.Run{{Off: 1024, Len: 128}}, make(Contig, 128)); err != nil {
		t.Fatal(err)
	}
	// Touch the first block so the second becomes LRU.
	if err := w.ReadThrough([]pfs.Run{{Off: 0, Len: 128}}, make(Contig, 128)); err != nil {
		t.Fatal(err)
	}
	// A third block forces an eviction.
	if err := w.ReadThrough([]pfs.Run{{Off: 2048, Len: 128}}, make(Contig, 128)); err != nil {
		t.Fatal(err)
	}
	if w.Cached() != 256 {
		t.Fatalf("cached = %d, want 256 (budget)", w.Cached())
	}
	base := fs.Stats().Reads()
	// First block still warm, second (LRU) evicted.
	if err := w.ReadThrough([]pfs.Run{{Off: 0, Len: 128}}, make(Contig, 128)); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().Reads(); got != base {
		t.Fatalf("recently-used block was evicted (%d extra reads)", got-base)
	}
	if err := w.ReadThrough([]pfs.Run{{Off: 1024, Len: 128}}, make(Contig, 128)); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().Reads(); got == base {
		t.Fatal("LRU block was not evicted")
	}
	if w.Stats().Evicted == 0 {
		t.Fatal("eviction not accounted")
	}
}

// TestFileCachePunchDropsClean: a direct write that fails punches the
// clean extents it overlaps, so the next read re-fetches whatever the
// store holds — here the bytes that landed before the failure was
// reported — instead of serving the cache's pre-write copy.
func TestFileCachePunchDropsClean(t *testing.T) {
	fs, w := fcForTest(t, 1<<20, 128, 0)
	if err := w.ReadThrough([]pfs.Run{{Off: 0, Len: 128}}, make(Contig, 128)); err != nil {
		t.Fatal(err)
	}
	runs := []pfs.Run{{Off: 0, Len: 128}}
	g := w.BeginWrite(runs)
	if _, err := fs.WriteAt(bytes.Repeat([]byte{42}, 128), 0); err != nil {
		t.Fatal(err)
	}
	w.EndWrite(g, runs, make(Contig, 128), false)
	buf := make([]byte, 128)
	if err := w.ReadThrough(runs, Contig(buf)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{42}, 128)) {
		t.Fatal("read served stale clean bytes after a failed write")
	}
}

// TestCollectiveReadCacheCoherent: the mpiio-level integration — after
// a 4-rank collective write, a collective re-read serves every rank
// coherently, and a second re-read issues no further store reads (warm
// across ranks: the cache is shared per store).
func TestCollectiveReadCacheCoherent(t *testing.T) {
	runShared(t, 4, -1, func(c *cluster.Comm, f *File) error {
		data := make([]byte, 512)
		for i := range data {
			data[i] = byte(c.Rank()*31 + i)
		}
		if err := f.WriteAllV(mine(c, 0, 512), Contig(data)); err != nil {
			return err
		}
		var warm int64
		for round := 0; round < 2; round++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			warm = f.FS().Stats().Reads()
			if err := c.Barrier(); err != nil {
				return err
			}
			buf := make([]byte, 512)
			if err := f.ReadAllV(mine(c, 0, 512), Contig(buf)); err != nil {
				return err
			}
			if !bytes.Equal(buf, data) {
				return fmt.Errorf("rank %d round %d: cached collective read incoherent", c.Rank(), round)
			}
		}
		if n := f.FS().Stats().Reads() - warm; c.Rank() == 0 && n != 0 {
			return fmt.Errorf("the warm re-read touched the store (%d reads)", n)
		}
		return nil
	})
}

// TestFileCacheReadThroughPoisonedPool: a miss's fetch lands in buffers
// from the cache's pools, with unspecified contents — here the
// 0xA5 the tests fill every freed buffer with. Out of that recycled
// memory the caller and the cache must still see store bytes only —
// zeros past EOF, where read-ahead reaches — and an extent cached by one
// miss must survive the next miss recycling the memory freed before it.
func TestFileCacheReadThroughPoisonedPool(t *testing.T) {
	_, w := fcForTest(t, 1<<20, 256, 512)
	// recycle caches [1024, 2048) and punches it (and its read-ahead)
	// out again: the freed buffers go back to the pools, poisoned,
	// for the next miss to take.
	recycle := func() {
		if err := w.ReadThrough([]pfs.Run{{Off: 1024, Len: 1024}}, make(Contig, 1024)); err != nil {
			t.Fatal(err)
		}
		punch(w, []pfs.Run{{Off: 1024, Len: 1536}})
	}
	// read recycles, then reads [off, off+n) and counts its misses.
	read := func(off, n int64) ([]byte, int64) {
		recycle()
		misses := w.Stats().Misses
		buf := make([]byte, n)
		if err := w.ReadThrough([]pfs.Run{{Off: off, Len: n}}, Contig(buf)); err != nil {
			t.Fatal(err)
		}
		return buf, w.Stats().Misses - misses
	}
	buf, _ := read(3900, 196) // miss; read-ahead runs past the 4096-byte store
	wantPattern(t, buf, 3900)
	buf, missed := read(4096, 300) // served from the read-ahead blocks
	if missed != 0 {
		t.Fatal("read past EOF missed the cache: read-ahead did not populate it")
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d past EOF = %#x, want 0 (poison leaked through recycled memory)", i, b)
		}
	}
	buf, _ = read(100, 50) // a second miss, into recycled memory
	wantPattern(t, buf, 100)
	buf, _ = read(3900, 196) // the first miss's extents kept their memory
	wantPattern(t, buf, 3900)
}
