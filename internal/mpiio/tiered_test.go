package mpiio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"drxmp/internal/pfs"
)

// tieredForTest builds a seeded store and a cache with both tiers on:
// a deliberately small memory budget so reads continuously evict (and
// therefore demote) and a spill file under the test's temp dir.
func tieredForTest(t *testing.T, budget, spillBytes int64) (*pfs.FS, *fileCache, string) {
	t.Helper()
	fs, err := pfs.Create("tiered", pfs.Options{Servers: 2, StripeSize: 256})
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
	path := filepath.Join(t.TempDir(), "spill.dat")
	return fs, cacheForTest(t, fs, Tuning{CacheBytes: budget, SpillBytes: spillBytes, SpillPath: path}), path
}

// readRange reads [off, off+n) through the cache and checks the seeded
// pattern.
func readRange(t *testing.T, w *fileCache, off, n int64) {
	t.Helper()
	buf := make([]byte, n)
	if err := w.ReadThrough([]pfs.Run{{Off: off, Len: n}}, Contig(buf)); err != nil {
		t.Fatal(err)
	}
	wantPattern(t, buf, off)
}

// TestTieredDemotePromoteRoundTrip: a scan 4x the memory budget
// demotes its evictions to the spill tier, and the re-reads are served
// back from local disk — correct bytes, zero further store reads.
func TestTieredDemotePromoteRoundTrip(t *testing.T) {
	fs, w, _ := tieredForTest(t, 1024, 8192)
	scan := func() {
		for off := int64(0); off < 4096; off += 256 {
			readRange(t, w, off, 256)
		}
	}
	scan()
	cold := fs.Stats().Reads()
	if cold == 0 {
		t.Fatal("cold scan issued no store reads")
	}
	cs := w.Stats()
	if cs.SpillDemoted == 0 {
		t.Fatalf("scan past the budget demoted nothing: %+v", cs)
	}
	// Warm wrap-arounds: everything is in memory or the spill tier.
	scan()
	scan()
	if got := fs.Stats().Reads(); got != cold {
		t.Fatalf("warm wraps issued %d extra store reads", got-cold)
	}
	cs = w.Stats()
	if cs.SpillPromoted == 0 || cs.SpillHits == 0 || cs.SpillHitBytes == 0 {
		t.Fatalf("warm wraps never promoted from the spill tier: %+v", cs)
	}
	if cs.Retunes != 0 || cs.SieveSize != 256 || cs.ReadAheadBytes != 0 {
		t.Fatalf("gauges moved off the configured sieve/read-ahead: %+v", cs)
	}
}

// TestTieredPunchInvalidatesSpill: a demoted extent must not survive a
// punch — after the store's copy is superseded, a read has to fetch
// the NEW bytes, not promote the stale spilled ones.
func TestTieredPunchInvalidatesSpill(t *testing.T) {
	fs, w, _ := tieredForTest(t, 1024, 8192)
	for off := int64(0); off < 4096; off += 256 {
		readRange(t, w, off, 256)
	}
	if w.Stats().SpillDemoted == 0 {
		t.Fatal("nothing demoted; the race under test never happens")
	}
	// Supersede [0, 512) with an independent write: the cache drops the
	// spilled copy rather than update it.
	if err := writeThrough(fs, w, []pfs.Run{{Off: 0, Len: 512}}, bytes.Repeat([]byte{0xEE}, 512)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := w.ReadThrough([]pfs.Run{{Off: 0, Len: 512}}, Contig(buf)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xEE}, 512)) {
		t.Fatal("read after the write returned stale spilled bytes")
	}
}

// TestTieredSpillCorruptionFallsBackToPFS: when the spill file loses
// its bytes (truncated under the store), a clean promotion degrades
// silently — the read falls through to the store, returns correct
// bytes, and caches nothing stale.
func TestTieredSpillCorruptionFallsBackToPFS(t *testing.T) {
	fs, w, path := tieredForTest(t, 1024, 8192)
	for off := int64(0); off < 4096; off += 256 {
		readRange(t, w, off, 256)
	}
	if w.Stats().SpillDemoted == 0 {
		t.Fatal("nothing demoted")
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	before := fs.Stats().Reads()
	readRange(t, w, 0, 512) // corrupt spill entry: silently refetched
	if got := fs.Stats().Reads(); got == before {
		t.Fatal("corrupt spill entry served without a store refetch")
	}
	// No pollution: the refetched block is now a sound memory extent.
	before = fs.Stats().Reads()
	readRange(t, w, 0, 512)
	if got := fs.Stats().Reads(); got != before {
		t.Fatalf("re-read after fallback issued %d extra store reads", got-before)
	}
}

// TestTieredDirtySpillLossSurfaces: dirty bytes are a different story —
// if the spill tier cannot read a demoted DIRTY extent back, the flush
// must fail loudly instead of silently dropping the write.
func TestTieredDirtySpillLossSurfaces(t *testing.T) {
	_, w, path := tieredForTest(t, 1024, 8192)
	w.Absorb(0, bytes.Repeat([]byte{7}, 2048))
	if err := w.EnforceBudget(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().SpillDirty == 0 {
		t.Fatal("dirty bytes were not demoted; the loss under test never happens")
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.FlushAll(); err == nil {
		t.Fatal("flush silently succeeded after the spill tier lost dirty bytes")
	}
}

// TestTieredDirtyLossKeepsNeighbours: a promotion that loses one dirty
// spilled extent still promotes the ones it read back. Both dirty
// extents demote; the spill file is cut so only the second is
// unreadable. The read reports that loss, and the first extent — out of
// the spill tier by then — must still reach the store.
func TestTieredDirtyLossKeepsNeighbours(t *testing.T) {
	fs, w, path := tieredForTest(t, 512, 8192)
	w.Absorb(0, bytes.Repeat([]byte{7}, 1024))
	w.Absorb(2048, bytes.Repeat([]byte{9}, 1024))
	if err := w.EnforceBudget(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().SpillDirty; got != 2048 {
		t.Fatalf("%d dirty bytes demoted, want both extents (2048)", got)
	}
	if err := os.Truncate(path, 1024); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3072)
	if err := w.ReadThrough([]pfs.Run{{Off: 0, Len: 3072}}, Contig(buf)); err == nil {
		t.Fatal("read across a lost dirty extent reported no error")
	}
	if err := w.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadAt(buf[:1024], 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:1024], bytes.Repeat([]byte{7}, 1024)) {
		t.Fatal("the readable dirty extent [0,1024) was lost along with its neighbour")
	}
}

// TestTieredBudgetAccountingUnderChurn hammers overlapping reads from
// many goroutines — promotions, demotions and evictions interleave —
// then checks the books: the extent list sums to the accounted total,
// nothing is dirty, and no byte is covered by both tiers at once.
func TestTieredBudgetAccountingUnderChurn(t *testing.T) {
	_, w, _ := tieredForTest(t, 1024, 8192)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, 256)
			for i := 0; i < 60; i++ {
				off := int64(rng.Intn(15)) * 256
				if err := w.ReadThrough([]pfs.Run{{Off: off, Len: 256}}, Contig(buf)); err != nil {
					t.Error(err)
					return
				}
				for j := range buf {
					if want := byte((off+int64(j))%251) + 1; buf[j] != want {
						t.Errorf("goroutine %d: byte %d of [%d,+256) = %d, want %d", g, j, off, buf[j], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	var sum, dirty int64
	for _, e := range w.ext {
		sum += int64(len(e.data))
		if e.dirty {
			dirty += int64(len(e.data))
		}
	}
	if sum != w.total || dirty != w.dirty {
		t.Fatalf("accounting drifted: extents sum to %d/%d dirty, books say %d/%d", sum, dirty, w.total, w.dirty)
	}
	if w.dirty != 0 || w.spill.Dirty() != 0 {
		t.Fatalf("read-only churn left dirty bytes: mem %d, spill %d", w.dirty, w.spill.Dirty())
	}
	// Tier disjointness: no memory extent overlaps a spilled range.
	for _, r := range w.spill.Coverage(nil) {
		for _, e := range w.ext {
			if e.off < r.Off+r.Len && r.Off < e.end() {
				t.Fatalf("extent [%d,%d) is in both tiers (spill run [%d,+%d))", e.off, e.end(), r.Off, r.Len)
			}
		}
	}
}

// TestTieredDifferentialAgainstRAMOnly drives an identical seeded
// workload of absorbs, reads, flushes and budget sweeps through two
// caches — spill off, spill on — over two identically seeded stores.
// Every read and the end state must be byte-identical: the tier is pure
// policy, never content. The spill-off cache must also finish with
// every spill counter at zero and its gauges at the configured values
// — with the tier off, the accounting is exactly the RAM-only stack's.
func TestTieredDifferentialAgainstRAMOnly(t *testing.T) {
	const fileN = 4096
	mk := func(name string, spillBytes int64) (*pfs.FS, *fileCache) {
		fs, err := pfs.Create(name, pfs.Options{Servers: 2, StripeSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		seed := make([]byte, fileN)
		for i := range seed {
			seed[i] = byte(i%251) + 1
		}
		if _, err := fs.WriteAt(seed, 0); err != nil {
			t.Fatal(err)
		}
		return fs, cacheForTest(t, fs, Tuning{CacheBytes: 1024, SpillBytes: spillBytes,
			SpillPath: filepath.Join(t.TempDir(), name+".dat")})
	}
	fsA, base := mk("diff-ram", 0)
	fsB, sp := mk("diff-spill", 8192)
	caches := []*fileCache{base, sp}

	rng := rand.New(rand.NewSource(23))
	for step := 0; step < 300; step++ {
		off := int64(rng.Intn(fileN/64-4)) * 64
		n := int64(1+rng.Intn(4)) * 64
		switch op := rng.Intn(10); {
		case op < 4:
			p := bytes.Repeat([]byte{byte(step) | 1}, int(n))
			for _, w := range caches {
				w.Absorb(off, p)
				if err := w.EnforceBudget(); err != nil {
					t.Fatal(err)
				}
			}
		case op < 8:
			var got [][]byte
			for _, w := range caches {
				buf := make([]byte, n)
				if err := w.ReadThrough([]pfs.Run{{Off: off, Len: n}}, Contig(buf)); err != nil {
					t.Fatal(err)
				}
				got = append(got, buf)
			}
			if !bytes.Equal(got[0], got[1]) {
				t.Fatalf("step %d: read [%d,+%d) diverged across tier configs", step, off, n)
			}
		default:
			for _, w := range caches {
				if err := w.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, w := range caches {
		if err := w.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]byte, fileN)
	if _, err := fsA.ReadAt(want, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, fileN)
	if _, err := fsB.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("spill-on end state differs from the spill-off baseline")
	}
	cs := base.Stats()
	if cs.SpillDemoted != 0 || cs.SpillPromoted != 0 || cs.SpillHits != 0 ||
		cs.SpillHitBytes != 0 || cs.SpillRejected != 0 || cs.SpillUsed != 0 ||
		cs.SpillDirty != 0 || cs.Retunes != 0 {
		t.Fatalf("spill-off cache shows tier activity: %+v", cs)
	}
	if cs.SieveSize != 256 || cs.ReadAheadBytes != 0 {
		t.Fatalf("spill-off gauges moved off the configured values: sieve=%d ra=%d", cs.SieveSize, cs.ReadAheadBytes)
	}
}
