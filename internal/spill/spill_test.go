package spill

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"drxmp/internal/extent"
)

func mk(t *testing.T, budget int64) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "spill.dat"), budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func pat(off, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(off + int64(i))
	}
	return b
}

func takeAll(t *testing.T, s *Store, off, n int64) []Promoted {
	t.Helper()
	out, err := s.Take(off, n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSpillPutTakeRoundTrip(t *testing.T) {
	s := mk(t, 1<<20)
	if !s.Put(100, pat(100, 64), false) {
		t.Fatal("put rejected")
	}
	if !s.Put(300, pat(300, 32), true) {
		t.Fatal("put rejected")
	}
	if got := s.Used(); got != 96 {
		t.Fatalf("used = %d, want 96", got)
	}
	if got := s.Dirty(); got != 32 {
		t.Fatalf("dirty = %d, want 32", got)
	}
	out := takeAll(t, s, 0, 1000)
	if len(out) != 2 {
		t.Fatalf("take returned %d extents, want 2", len(out))
	}
	if out[0].Off != 100 || !bytes.Equal(out[0].Data, pat(100, 64)) || out[0].Dirty {
		t.Fatalf("bad first extent %+v", out[0])
	}
	if out[1].Off != 300 || !bytes.Equal(out[1].Data, pat(300, 32)) || !out[1].Dirty {
		t.Fatalf("bad second extent %+v", out[1])
	}
	if s.Used() != 0 || s.Dirty() != 0 || s.Len() != 0 {
		t.Fatalf("store not drained: used=%d dirty=%d len=%d", s.Used(), s.Dirty(), s.Len())
	}
}

func TestSpillTakeOverlapOnly(t *testing.T) {
	s := mk(t, 1<<20)
	s.Put(0, pat(0, 64), false)
	s.Put(128, pat(128, 64), false)
	out := takeAll(t, s, 130, 4)
	if len(out) != 1 || out[0].Off != 128 {
		t.Fatalf("take = %+v, want just the overlapping extent", out)
	}
	if s.Len() != 1 {
		t.Fatalf("store len = %d, want 1", s.Len())
	}
}

func TestSpillPunchSplit(t *testing.T) {
	s := mk(t, 1<<20)
	s.Put(0, pat(0, 100), false)
	s.PunchV([]extent.Run{{Off: 40, Len: 20}})
	if got := s.Used(); got != 80 {
		t.Fatalf("used after punch = %d, want 80", got)
	}
	out := takeAll(t, s, 0, 100)
	if len(out) != 2 {
		t.Fatalf("take returned %d extents, want 2 remainders", len(out))
	}
	if out[0].Off != 0 || !bytes.Equal(out[0].Data, pat(0, 40)) {
		t.Fatalf("bad left remainder off=%d", out[0].Off)
	}
	if out[1].Off != 60 || !bytes.Equal(out[1].Data, pat(60, 40)) {
		t.Fatalf("bad right remainder off=%d", out[1].Off)
	}
}

func TestSpillPutPunchesOverlap(t *testing.T) {
	s := mk(t, 1<<20)
	s.Put(0, pat(0, 100), false)
	newer := bytes.Repeat([]byte{0xEE}, 50)
	s.Put(25, newer, false)
	out := takeAll(t, s, 0, 100)
	want := pat(0, 100)
	copy(want[25:75], newer)
	got := make([]byte, 100)
	for _, p := range out {
		copy(got[p.Off:p.Off+int64(len(p.Data))], p.Data)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("overlapping put did not win")
	}
}

func TestSpillBudgetEvictsCleanLRU(t *testing.T) {
	s := mk(t, 256)
	s.Put(0, pat(0, 128), false)
	s.Put(1000, pat(1000, 128), false)
	takeAll(t, s, 0, 1) // promote-and-reinsert refreshes LRU order
	s.Put(0, pat(0, 128), false)
	// Third extent forces eviction of the LRU clean entry (1000).
	if !s.Put(2000, pat(2000, 128), false) {
		t.Fatal("put rejected despite evictable clean bytes")
	}
	if len(takeAll(t, s, 1000, 128)) != 0 {
		t.Fatal("LRU clean extent not evicted")
	}
	if len(takeAll(t, s, 2000, 128)) != 1 {
		t.Fatal("newly spilled extent missing")
	}
	if s.Stats().Evicted != 128 {
		t.Fatalf("evicted = %d, want 128", s.Stats().Evicted)
	}
}

func TestSpillDirtyNeverEvicted(t *testing.T) {
	s := mk(t, 256)
	s.Put(0, pat(0, 200), true)
	if s.Put(1000, pat(1000, 128), false) {
		t.Fatal("put accepted over an uneevictable dirty tier")
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Stats().Rejected)
	}
	out := takeAll(t, s, 0, 200)
	if len(out) != 1 || !out[0].Dirty {
		t.Fatal("dirty extent lost")
	}
}

func TestSpillFreeListReuse(t *testing.T) {
	s := mk(t, 1<<20)
	for round := 0; round < 8; round++ {
		for i := int64(0); i < 4; i++ {
			s.Put(i*100, pat(i*100, 64), false)
		}
		takeAll(t, s, 0, 1000)
	}
	// Churn equal-size extents: the file must not grow past one round's
	// worth (free slots are reused first-fit).
	if fs := s.FileSize(); fs > 4*64 {
		t.Fatalf("spill file grew to %d bytes over churn, want <= 256", fs)
	}
}

func TestSpillCorruptCleanDegrades(t *testing.T) {
	s := mk(t, 1<<20)
	s.Put(0, pat(0, 64), false)
	// Truncate the spill file under the store: read-back short-reads.
	if err := os.Truncate(s.Path(), 0); err != nil {
		t.Fatal(err)
	}
	out, err := s.Take(0, 64)
	if err != nil {
		t.Fatalf("clean corruption must degrade silently, got %v", err)
	}
	if len(out) != 0 {
		t.Fatal("corrupt extent returned")
	}
	if s.Stats().Failures == 0 {
		t.Fatal("failure not counted")
	}
	if s.Len() != 0 {
		t.Fatal("corrupt entry retained")
	}
}

func TestSpillCorruptDirtyErrors(t *testing.T) {
	s := mk(t, 1<<20)
	s.Put(0, pat(0, 64), true)
	if err := os.Truncate(s.Path(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Take(0, 64); err == nil {
		t.Fatal("lost dirty extent must surface an error")
	}
	if _, err := s.CollectDirty(nil); err != nil {
		// The lost entry was dropped by Take; nothing dirty remains.
		t.Fatalf("collect after drop: %v", err)
	}
}

func TestSpillCollectDirtyMarkClean(t *testing.T) {
	s := mk(t, 1<<20)
	s.Put(0, pat(0, 64), true)
	s.Put(100, pat(100, 32), true)
	s.Put(200, pat(200, 16), false)
	chunks, err := s.CollectDirty(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 {
		t.Fatalf("collected %d dirty chunks, want 2", len(chunks))
	}
	// A punch during the sweep invalidates that entry's id: MarkClean
	// must not resurrect it as clean.
	s.PunchV([]extent.Run{{Off: 100, Len: 8}})
	ids := []int64{chunks[0].ID, chunks[1].ID}
	s.MarkClean(ids)
	if got := s.Dirty(); got != 24 {
		// [0,64) clean; [108,132) remainder stays dirty (new id).
		t.Fatalf("dirty after mark-clean = %d, want 24", got)
	}
}

func TestSpillCoverage(t *testing.T) {
	s := mk(t, 1<<20)
	s.Put(50, pat(50, 10), false)
	s.Put(0, pat(0, 10), true)
	cov := s.Coverage(nil)
	want := []extent.Run{{Off: 0, Len: 10}, {Off: 50, Len: 10}}
	if len(cov) != 2 || cov[0] != want[0] || cov[1] != want[1] {
		t.Fatalf("coverage = %v, want %v", cov, want)
	}
}

func TestSpillCloseRemovesFile(t *testing.T) {
	s := mk(t, 1<<20)
	s.Put(0, pat(0, 64), false)
	path := s.Path()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill file survives Close: %v", err)
	}
	// Closed store degrades, never panics.
	if s.Put(0, pat(0, 8), false) {
		t.Fatal("put accepted after close")
	}
	if out := takeAll(t, s, 0, 64); len(out) != 0 {
		t.Fatal("take returned data after close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSpillTempFile(t *testing.T) {
	s, err := Open("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	path := s.Path()
	if path == "" {
		t.Fatal("temp spill has no path")
	}
	s.Put(0, pat(0, 32), false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("temp spill file leaked at %s", path)
	}
}

func TestSpillConcurrentChurn(t *testing.T) {
	s := mk(t, 64<<10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(g) * 4096
			for i := 0; i < 200; i++ {
				s.Put(base, pat(base, 512), false)
				s.Take(base, 512)
				s.PunchV([]extent.Run{{Off: base, Len: 256}})
			}
		}(g)
	}
	wg.Wait()
	// Accounting must still reconcile with the live index.
	var live int64
	for _, r := range s.Coverage(nil) {
		live += r.Len
	}
	if got := s.Used(); got != live {
		t.Fatalf("used = %d but live coverage = %d", got, live)
	}
	if err := checkStore(s); err != nil {
		t.Fatal(err)
	}
}

// FileSize returns the spill file's high-water mark — live bytes plus
// free-list fragmentation.
func (s *Store) FileSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Len returns the live entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ext)
}
