package mpiio

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"drxmp/internal/cluster"
	"drxmp/internal/extent"
	"drxmp/internal/pfs"
)

// The cache's side of write sieving: a direct write's guard lends its
// store write the clean bytes of the holes between its segments
// (Covers, Lend), and a write or absorb over a lent range waits for the
// lender's EndWrite.

// lendCost is the benchmark's service-time model, charged and never
// slept: with a seek to save, servers join holes.
var lendCost = pfs.CostModel{RequestOverhead: 100 * time.Microsecond, SeekLatency: time.Millisecond, ByteTime: 4 * time.Nanosecond}

// lendFile returns a one-server store of 4 KiB in 1 KiB stripe units
// under lendCost, filled with pattern(i) = byte(i*7), and a caching
// handle on it with tune's cache, whose first `warm` bytes it has read
// into the cache.
func lendFile(t *testing.T, tune Tuning, warm int64) (*File, []byte) {
	t.Helper()
	fs, err := pfs.Create("lend", pfs.Options{Servers: 1, StripeSize: 1 << 10, Cost: lendCost})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	flat := make([]byte, 4<<10)
	for i := range flat {
		flat[i] = byte(i * 7)
	}
	if _, err := fs.WriteAt(flat, 0); err != nil {
		t.Fatal(err)
	}
	f, err := Open(cluster.Self(), fs, tune)
	if err != nil {
		t.Fatal(err)
	}
	if warm > 0 {
		if err := f.ReadV([]pfs.Run{{Off: 0, Len: warm}}, Contig(make([]byte, warm))); err != nil {
			t.Fatal(err)
		}
	}
	return f, flat
}

// lends reports whether g would lend r and then whether it does, under
// the cache's lock, returning the lent bytes.
func lends(g *fetchGuard, r pfs.Run) (covers, lent bool, p []byte) {
	p = make([]byte, r.Len)
	g.Lock()
	defer g.Unlock()
	covers = g.Covers([]pfs.Run{r})
	lent = g.Lend([]pfs.Run{r}, p)
	return covers, lent, p
}

// TestLendRefusedOverInFlightWrite: a range that another direct write
// in flight writes, or has lent, is not lent, since its clean copy may
// not be what the store will hold; once that write ends, its EndWrite
// has put its bytes into the clean copy and the range lends them.
func TestLendRefusedOverInFlightWrite(t *testing.T) {
	f, flat := lendFile(t, Tuning{CacheBytes: 1 << 20}, 4<<10)
	w := f.fc
	bRuns := []pfs.Run{{Off: 1000, Len: 100}}
	bData := bytes.Repeat([]byte{0xB}, 100)
	gB := w.BeginWrite(bRuns)
	gA := w.BeginWrite([]pfs.Run{{Off: 0, Len: 500}, {Off: 2000, Len: 500}})
	for _, r := range []pfs.Run{{Off: 1000, Len: 100}, {Off: 1050, Len: 10}, {Off: 990, Len: 20}} {
		if covers, lent, _ := lends(gA, r); covers || lent {
			t.Errorf("%+v, which a write in flight writes: Covers %v, Lend %v; want neither", r, covers, lent)
		}
	}
	if covers, lent, p := lends(gA, pfs.Run{Off: 500, Len: 500}); !covers || !lent || !bytes.Equal(p, flat[500:1000]) {
		t.Errorf("[500, 1000), clean and written by no one: Covers %v, Lend %v, bytes equal %v; want all true",
			covers, lent, bytes.Equal(p, flat[500:1000]))
	}
	gC := w.BeginWrite([]pfs.Run{{Off: 3000, Len: 10}})
	if covers, lent, _ := lends(gC, pfs.Run{Off: 600, Len: 10}); covers || lent {
		t.Errorf("a range another write has lent: Covers %v, Lend %v; want neither", covers, lent)
	}
	w.EndWrite(gC, []pfs.Run{{Off: 3000, Len: 10}}, Contig(flat[3000:3010]), true)
	if _, err := f.fs.WriteVec(bRuns, Contig(bData)); err != nil {
		t.Fatal(err)
	}
	w.EndWrite(gB, bRuns, Contig(bData), true)
	if covers, lent, p := lends(gA, pfs.Run{Off: 1000, Len: 100}); !covers || !lent || !bytes.Equal(p, bData) {
		t.Errorf("[1000, 1100) after its write ended: Covers %v, Lend %v, bytes %x...; want the write's %x...",
			covers, lent, p[:4], bData[:4])
	}
	w.EndWrite(gA, nil, Contig(nil), true)
}

// TestLendRefusedOverDirtySpilledUncached: only clean memory bytes are
// lent. Dirty bytes are newer than the store's, spilled ones are not in
// memory, and uncached ones are not known at all: a hole over any of
// them, even in part, is not lent, and a refused Lend lends nothing.
func TestLendRefusedOverDirtySpilledUncached(t *testing.T) {
	f, flat := lendFile(t, Tuning{CacheBytes: 1 << 20, SpillBytes: 64 << 10}, 2<<10)
	w := f.fc
	w.Absorb(100, bytes.Repeat([]byte{0xD}, 100))
	demote(w, []pfs.Run{{Off: 1024, Len: 512}})
	g := w.BeginWrite([]pfs.Run{{Off: 3500, Len: 10}})
	for _, c := range []struct {
		what string
		r    pfs.Run
	}{
		{"dirty", pfs.Run{Off: 100, Len: 100}},
		{"partly dirty", pfs.Run{Off: 50, Len: 100}},
		{"spilled", pfs.Run{Off: 1100, Len: 10}},
		{"partly spilled", pfs.Run{Off: 1000, Len: 100}},
		{"uncached", pfs.Run{Off: 2500, Len: 10}},
		{"partly uncached", pfs.Run{Off: 2000, Len: 100}},
	} {
		if covers, lent, _ := lends(g, c.r); covers || lent {
			t.Errorf("%s %+v: Covers %v, Lend %v; want neither", c.what, c.r, covers, lent)
		}
	}
	if n := len(g.lent); n != 0 {
		t.Errorf("refused lends recorded %d lent ranges", n)
	}
	if covers, lent, p := lends(g, pfs.Run{Off: 300, Len: 10}); !covers || !lent || !bytes.Equal(p, flat[300:310]) {
		t.Errorf("clean [300, 310): Covers %v, Lend %v; want both, and its bytes", covers, lent)
	}
	w.EndWrite(g, []pfs.Run{{Off: 3500, Len: 10}}, Contig(flat[3500:3510]), true)
}

// heldVec is a write's memory that parks the store write: its second
// Seg call — the first a server makes to store a segment, once the
// dispatch has been built, priced and its holes lent — waits until
// release is closed, signalling held first.
type heldVec struct {
	Contig
	calls         atomic.Int32
	held, release chan struct{}
}

func (v *heldVec) Seg(i int) []byte {
	if v.calls.Add(1) == 2 {
		close(v.held)
		<-v.release
	}
	return v.Contig.Seg(i)
}

// reachedStore signals on reached when a write request of exactly n
// bytes at off reaches the store's injector.
type reachedStore struct {
	off, n  int64
	reached chan struct{}
}

func (r *reachedStore) Fail(_ int, write bool, off, n int64) error {
	if write && off == r.off && n == r.n {
		r.reached <- struct{}{}
	}
	return nil
}

// TestLentRangeHoldsWritesAndAbsorbs: a write through the cache whose
// store write is held lends the hole between its two runs. A direct
// write and an absorb that overlap the hole must wait until the lender
// has ended: the lender stores the hole's old bytes, which would
// otherwise land over theirs. They must be waiting while the lender is
// held — the write must not have reached the store — return once it
// has ended, and leave the store with their bytes.
func TestLentRangeHoldsWritesAndAbsorbs(t *testing.T) {
	f, flat := lendFile(t, Tuning{CacheBytes: 1 << 20}, 4<<10)
	w := f.fc
	waiting := make(chan struct{}, 2) // one per waiter; a wake-up that finds it full is dropped
	w.onWait = func() {
		select {
		case waiting <- struct{}{}:
		default:
		}
	}

	aRuns := []pfs.Run{{Off: 0, Len: 1000}, {Off: 1100, Len: 1000}}
	a := &heldVec{Contig: bytes.Repeat([]byte{0xA}, 2000), held: make(chan struct{}), release: make(chan struct{})}
	aDone := make(chan error, 1)
	go func() { aDone <- f.WriteV(aRuns, a) }()
	<-a.held
	w.mu.Lock()
	lent := len(w.guards) == 1 && slices.Equal(extent.Coalesce(w.guards[0].lent), []pfs.Run{{Off: 1000, Len: 100}})
	w.mu.Unlock()
	if !lent {
		close(a.release)
		<-aDone
		t.Fatal("the held write did not lend its hole [1000, 1100)")
	}

	// ended reports, as a waiter returns, whether the lender had ended:
	// no write in flight holds a lent range.
	ended := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return !slices.ContainsFunc(w.guards, func(g *fetchGuard) bool { return len(g.lent) > 0 })
	}
	xRuns := []pfs.Run{{Off: 1050, Len: 10}}
	xData := bytes.Repeat([]byte{0xE}, 10)
	xStore := &reachedStore{off: 1050, n: 10, reached: make(chan struct{}, 1)}
	f.fs.SetInjector(xStore)
	xDone, yDone := make(chan bool, 1), make(chan bool, 1)
	go func() {
		if err := f.WriteV(xRuns, Contig(xData)); err != nil {
			t.Error(err)
		}
		xDone <- ended()
	}()
	go func() {
		w.Absorb(1060, bytes.Repeat([]byte{0xF}, 10))
		yDone <- ended()
	}()
	for range 2 {
		var early string
		select {
		case <-waiting:
		case <-xStore.reached:
			early = "a write"
		case <-yDone:
			early = "an absorb"
		}
		if early != "" {
			close(a.release)
			<-aDone
			t.Fatalf("%s over a lent range went ahead while its lender was held", early)
		}
	}
	close(a.release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if !<-xDone || !<-yDone {
		t.Error("a waiter returned before the lender ended")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(flat)
	copy(want[0:1000], a.Contig)
	copy(want[1100:2100], a.Contig[1000:])
	copy(want[1050:1060], xData)
	copy(want[1060:1070], bytes.Repeat([]byte{0xF}, 10))
	got := make([]byte, len(want))
	if _, err := f.fs.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("the store differs at byte %d: %#x, want %#x", i, got[i], want[i])
	}
}
