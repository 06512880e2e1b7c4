package mpiio

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// wbCacheForTest builds a store and a cache on it whose budget no test
// here fills, so nothing flushes on evict.
func wbCacheForTest(t *testing.T) (*pfs.FS, *fileCache) {
	t.Helper()
	fs, err := pfs.Create("wb", pfs.Options{Servers: 2, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs, cacheForTest(t, fs, Tuning{CacheBytes: 1 << 20})
}

func fill(n int, v byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = v
	}
	return p
}

// TestWriteBehindAbsorbMerges: overlapping and adjacent absorbs merge
// into single extents, last writer winning on overlap.
func TestWriteBehindAbsorbMerges(t *testing.T) {
	_, w := wbCacheForTest(t)
	w.Absorb(100, fill(50, 1)) // [100,150)
	w.Absorb(200, fill(50, 2)) // [200,250)
	w.Absorb(150, fill(50, 3)) // adjacent to both: merges all three
	if len(w.ext) != 1 {
		t.Fatalf("extents = %d, want 1 (merged)", len(w.ext))
	}
	if w.ext[0].off != 100 || len(w.ext[0].data) != 150 {
		t.Fatalf("merged extent = [%d, +%d), want [100, +150)", w.ext[0].off, len(w.ext[0].data))
	}
	if w.Bytes() != 150 {
		t.Fatalf("dirty = %d, want 150", w.Bytes())
	}
	// Last writer wins on overlap.
	w.Absorb(120, fill(10, 9))
	if w.Bytes() != 150 {
		t.Fatalf("overlap changed dirty total: %d", w.Bytes())
	}
	// d[i] is byte 100+i: [100,120)=1, [120,130)=9, [130,150)=1,
	// [150,200)=3, [200,250)=2.
	d := w.ext[0].data
	for i, want := range map[int]byte{0: 1, 19: 1, 20: 9, 29: 9, 30: 1, 50: 3, 110: 2} {
		if d[i] != want {
			t.Errorf("byte %d = %d, want %d", i, d[i], want)
		}
	}
}

// TestWriteBehindPunch: a direct write punches the dirty bytes it
// covers and splits straddled dirty extents; it does not cache its own
// bytes where nothing was cached.
func TestWriteBehindPunch(t *testing.T) {
	fs, w := wbCacheForTest(t)
	w.Absorb(0, fill(100, 5))
	write := func(off, n int64) {
		t.Helper()
		if err := writeThrough(fs, w, []pfs.Run{{Off: off, Len: n}}, fill(int(n), 6)); err != nil {
			t.Fatal(err)
		}
	}
	write(40, 20) // split into [0,40) and [60,100)
	if len(w.ext) != 2 || w.Bytes() != 80 {
		t.Fatalf("after split: %d extents, %d dirty; want 2, 80", len(w.ext), w.Bytes())
	}
	if w.ext[0].off != 0 || len(w.ext[0].data) != 40 || w.ext[1].off != 60 || len(w.ext[1].data) != 40 {
		t.Fatalf("split extents = %+v", w.ext)
	}
	write(0, 1000) // drop everything
	if len(w.ext) != 0 || w.Bytes() != 0 {
		t.Fatalf("after full punch: %d extents, %d dirty", len(w.ext), w.Bytes())
	}
	write(0, 10) // empty cache: no-op
	if len(w.ext) != 0 {
		t.Fatalf("a write into an empty cache cached %d extents", len(w.ext))
	}
}

// gateWrites is an injector that holds the first write submission until
// release is closed, after signalling on held.
type gateWrites struct {
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (g *gateWrites) Fail(server int, write bool, off, n int64) error {
	if write {
		g.once.Do(func() {
			close(g.held)
			<-g.release
		})
	}
	return nil
}

// TestPunchWaitsOutSweepInFlight: a BeginWrite that discards dirty
// bytes a flush sweep is still writing must not return before the sweep
// has landed, or the caller's direct store write could land first and
// the sweep's older bytes would win on the store.
func TestPunchWaitsOutSweepInFlight(t *testing.T) {
	fs, w := wbCacheForTest(t)
	w.Absorb(0, fill(256, 1))
	gate := &gateWrites{held: make(chan struct{}), release: make(chan struct{})}
	fs.SetInjector(gate)
	swept := make(chan error, 1)
	go func() { swept <- w.FlushAll() }()
	<-gate.held // the sweep has picked up [0, 256) and is held before its FlushV
	punched := make(chan struct{})
	wrote := make(chan error, 1)
	go func() {
		runs := []pfs.Run{{Off: 64, Len: 64}}
		g := w.BeginWrite(runs)
		close(punched)
		_, err := fs.WriteAt(fill(64, 9), 64)
		w.EndWrite(g, runs, Contig(fill(64, 9)), err == nil)
		wrote <- err
	}()
	select {
	case <-punched:
		t.Error("BeginWrite returned while a sweep of the bytes it discarded was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.release)
	if err := <-swept; err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	got, want := make([]byte, 256), fill(256, 1)
	copy(want[64:], fill(64, 9))
	if _, err := fs.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the sweep's older bytes won on the store")
	}
}

// runWB runs fn on `ranks` ranks of one fresh store, each through a
// handle with write-behind wb over a 1 MiB cache, and returns the store.
// Rank r works in its own 512-byte region of the file (see mine).
func runWB(t *testing.T, ranks int, wb int64, fn func(c *cluster.Comm, f *File) error) *pfs.FS {
	t.Helper()
	fs, err := pfs.Create(t.Name(), pfs.Options{Servers: 2, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	err = cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := Open(c, fs, Tuning{WriteBehindBytes: wb, CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		return fn(c, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// mine is the run of n bytes at off within rank c's 512-byte region.
func mine(c *cluster.Comm, off, n int64) []pfs.Run {
	return []pfs.Run{{Off: int64(c.Rank())*512 + off, Len: n}}
}

// TestCollectiveWriteBehindDefersAndStaysCoherent: with close-only
// write-behind, a collective write leaves the store untouched (zero
// requests), collective reads are served the written bytes from the
// cache, and after Sync the store holds them.
func TestCollectiveWriteBehindDefersAndStaysCoherent(t *testing.T) {
	const ranks = 4
	want := make([]byte, ranks*512)
	fs := runWB(t, ranks, -1, func(c *cluster.Comm, f *File) error {
		data := make([]byte, 512)
		for i := range data {
			data[i] = byte(c.Rank()*31 + i)
			want[c.Rank()*512+i] = data[i]
		}
		if err := f.WriteAllV(mine(c, 0, 512), Contig(data)); err != nil {
			return err
		}
		if n := f.FS().Stats().Requests(); c.Rank() == 0 && n != 0 {
			return fmt.Errorf("collective write dispatched %d requests under write-behind", n)
		}
		// Collective read: every rank's deferred bytes, from the cache.
		buf := make([]byte, 512)
		if err := f.ReadAllV(mine(c, 0, 512), Contig(buf)); err != nil {
			return err
		}
		if !bytes.Equal(buf, data) {
			return fmt.Errorf("rank %d: collective read incoherent under write-behind", c.Rank())
		}
		return f.SyncAll()
	})
	got := make([]byte, len(want))
	if _, err := fs.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("store contents wrong after Sync")
	}
}

// TestWriteBehindWatermark: crossing the watermark flushes the whole
// cache in one sweep; below it nothing dispatches.
func TestWriteBehindWatermark(t *testing.T) {
	fs := runWB(t, 1, 1024, func(c *cluster.Comm, f *File) error {
		data := fill(512, 7)
		if err := f.WriteAllV(mine(c, 0, 512), Contig(data)); err != nil {
			return err
		}
		if f.Dirty() != 512 {
			return fmt.Errorf("dirty = %d, want 512 (below watermark)", f.Dirty())
		}
		if err := f.WriteAllV(mine(c, 512, 512), Contig(data)); err != nil {
			return err
		}
		if f.Dirty() != 0 {
			return fmt.Errorf("dirty = %d after watermark crossing, want 0", f.Dirty())
		}
		return nil
	})
	st := fs.Stats()
	if st.FlushBytes() != 1024 {
		t.Fatalf("FlushBytes = %d, want 1024", st.FlushBytes())
	}
	if st.Bytes() != 1024 {
		t.Fatalf("bytes moved = %d, want 1024", st.Bytes())
	}
}

// TestWriteBehindIndependentWritePunches: an independent write through
// the same handle overrides overlapping dirty bytes — the cache punch
// keeps a later flush from resurrecting stale data.
func TestWriteBehindIndependentWritePunches(t *testing.T) {
	runWB(t, 1, -1, func(c *cluster.Comm, f *File) error {
		if err := f.WriteAllV(mine(c, 0, 256), Contig(fill(256, 1))); err != nil { // buffered
			return err
		}
		if err := f.WriteV(mine(c, 64, 64), Contig(fill(64, 9))); err != nil { // direct, newer
			return err
		}
		if err := f.Sync(); err != nil { // stale flush must not clobber
			return err
		}
		got := make([]byte, 256)
		if err := f.ReadV(mine(c, 0, 256), Contig(got)); err != nil {
			return err
		}
		for i := 0; i < 256; i++ {
			want := byte(1)
			if i >= 64 && i < 128 {
				want = 9
			}
			if got[i] != want {
				return fmt.Errorf("byte %d = %d, want %d", i, got[i], want)
			}
		}
		return nil
	})
}

// TestWriteBehindCrossRankReadCoherence pins the shared-cache fix: a
// rank's INDEPENDENT read (no Sync anywhere) observes bytes another
// rank's aggregator absorbed — under the cyclic carving a rank's
// collective write usually lands in other ranks' domains, so local-only
// coherence would return stale zeros here.
func TestWriteBehindCrossRankReadCoherence(t *testing.T) {
	runWB(t, 4, -1, func(c *cluster.Comm, f *File) error {
		data := make([]byte, 512)
		for i := range data {
			data[i] = byte(c.Rank()*41 + i)
		}
		if err := f.WriteAllV(mine(c, 0, 512), Contig(data)); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Independent read of MY region, which was absorbed by OTHER
		// ranks' aggregators. No Sync: the shared cache must serve it.
		got := make([]byte, 512)
		if err := f.ReadV(mine(c, 0, 512), Contig(got)); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d: independent read missed deferred bytes", c.Rank())
		}
		return c.Barrier()
	})
}

// TestWriteBehindCrossRankLostUpdate pins the shared-cache punch: an
// independent write newer than a buffered collective write must
// survive a later flush even when the stale bytes sit in ANOTHER
// rank's absorbed extents.
func TestWriteBehindCrossRankLostUpdate(t *testing.T) {
	runWB(t, 2, -1, func(c *cluster.Comm, f *File) error {
		if err := f.WriteAllV(mine(c, 0, 512), Contig(fill(512, byte(1+c.Rank())))); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Rank 1 independently overwrites part of ITS region (whose
		// dirty bytes another rank absorbed), then everyone syncs: the
		// newer bytes must win.
		if c.Rank() == 1 {
			if err := f.WriteV(mine(c, 100, 64), Contig(fill(64, 99))); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		got := make([]byte, 512)
		if err := f.ReadV(mine(c, 0, 512), Contig(got)); err != nil {
			return err
		}
		for i := range got {
			want := byte(1 + c.Rank())
			if c.Rank() == 1 && i >= 100 && i < 164 {
				want = 99
			}
			if got[i] != want {
				return fmt.Errorf("rank %d: byte %d = %d, want %d (lost update)", c.Rank(), i, got[i], want)
			}
		}
		return nil
	})
}
