package pfs

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestCloseRunsFlusherBeforeDrain pins the flush-ordering guarantee of
// FS.Close: a registered close-flusher must run while the per-server
// queues are still open, so its deferred dirty extents dispatch through
// the queues (under the configured scheduler) instead of racing the
// drain into the post-Close synchronous fallback.
func TestCloseRunsFlusherBeforeDrain(t *testing.T) {
	for _, sched := range []Scheduler{FIFO, Elevator} {
		fs, err := Create("closeflush", Options{
			Servers: 2, StripeSize: 128, Scheduler: sched, Cost: schedCost(),
		})
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 1024)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		ran := false
		fs.AddCloseFlusher(func() error {
			// The queues must not have drained yet.
			fs.qmu.RLock()
			closed := fs.qclosed
			fs.qmu.RUnlock()
			if closed {
				t.Errorf("sched %v: flusher ran after the queues drained", sched)
			}
			ran = true
			_, err := fs.FlushV([]Run{{Off: 0, Len: int64(len(payload))}}, Contig(payload))
			return err
		})
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatalf("sched %v: close flusher never ran", sched)
		}
		// The flushed bytes are durable and attributed as flush traffic.
		back := make([]byte, len(payload))
		if _, err := fs.ReadAt(back, 0); err != nil { // post-Close sync path
			t.Fatal(err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("sched %v: flushed bytes not durable", sched)
		}
		st := fs.Stats()
		if st.FlushBytes() != int64(len(payload)) {
			t.Errorf("sched %v: FlushBytes = %d, want %d", sched, st.FlushBytes(), len(payload))
		}
		if st.FlushWrites() == 0 {
			t.Errorf("sched %v: no flush writes attributed", sched)
		}
	}
}

// TestCloseFlusherWithQueuedReadsRace races Close (and its flusher)
// against in-flight queued reads: the flush must interleave with the
// queued traffic without deadlock or loss, and the flushed data must be
// durable after Close returns. Run with -race.
func TestCloseFlusherWithQueuedReadsRace(t *testing.T) {
	fs, err := Create("closerace", Options{
		Servers: 4, StripeSize: 64, Scheduler: Elevator,
		Cost: CostModel{RequestOverhead: 50 * time.Microsecond, RealTime: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, 4096)
	for i := range seed {
		seed[i] = byte(i)
	}
	if _, err := fs.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(200 - i)
	}
	fs.AddCloseFlusher(func() error {
		_, err := fs.FlushV([]Run{{Off: 8192, Len: int64(len(payload))}}, Contig(payload))
		return err
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := fs.ReadAt(buf, int64((g*777+i*64)%4096)); err != nil {
					return
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond) // let the readers queue up
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	back := make([]byte, len(payload))
	if _, err := fs.ReadAt(back, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatal("flush racing queued reads lost data")
	}
}

// TestWindowAutoScalesWithBacklog pins the auto window via the
// synchronous elevator path being unaffected (whole batch) and, on the
// queued path, that a deep pre-queued backlog is swept with fewer
// services than requests (the auto window froze more than one request).
func TestWindowAutoScalesWithBacklog(t *testing.T) {
	fs, err := Create("autowin", Options{
		Servers: 1, StripeSize: 64, Scheduler: Elevator,
		// A large per-request overhead with RealTime makes the first
		// service slow, so the remaining segments pile into the queue and
		// the second sweep freezes a deep backlog.
		Cost: CostModel{RequestOverhead: 2 * time.Millisecond, RealTime: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const segs = 40 // > the old hard-coded 32-request window
	data := make([]byte, segs*64)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := fs.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(data))
	if _, err := fs.ReadAt(back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("auto-window readback mismatch")
	}
	st := fs.Stats()
	if st.Requests() >= 2*segs {
		t.Fatalf("auto window never batched: %d services for %d segments", st.Requests(), 2*segs)
	}
}

// TestHistBuckets pins the power-of-two bucketing of Hist and the
// request-size/latency observation in charge.
func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 1024, 1025} {
		h.Observe(v)
	}
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 10: 1, 11: 1}
	for b, n := range want {
		if h.N[b] != n {
			t.Errorf("bucket %d = %d, want %d", b, h.N[b], n)
		}
	}
	if h.Total() != 8 {
		t.Errorf("total = %d, want 8", h.Total())
	}

	fs, err := Create("hist", Options{Servers: 1, StripeSize: 1 << 20, Cost: schedCost()})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(make([]byte, 4096), 4096); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	sizes := st.ReqSizes()
	if sizes.Total() != 2 {
		t.Fatalf("ReqSizes total = %d, want 2", sizes.Total())
	}
	if sizes.N[7] != 1 || sizes.N[12] != 1 { // 100 -> ≤128, 4096 -> ≤4096
		t.Errorf("ReqSizes buckets = %v", sizes.Counts())
	}
	if st.SvcTimes().Total() != 2 {
		t.Errorf("SvcTimes total = %d, want 2", st.SvcTimes().Total())
	}
	// Sub must cancel the histograms exactly.
	if d := fs.Stats().Sub(st); d.ReqSizes().Total() != 0 || d.SvcTimes().Total() != 0 {
		t.Error("Stats.Sub did not cancel histograms")
	}
}
