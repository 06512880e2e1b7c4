package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// requestsOf counts the requests a lone list of runs charges on a store
// with no seek to save: one per segment, but for a segment that starts
// where its server's previous one ended, which streams with it.
func requestsOf(fs *FS, runs []Run) (n int64) {
	end := make([]int64, len(fs.servers))
	for i := range end {
		end[i] = -1
	}
	for _, r := range runs {
		fs.forEachSegment(r.Off, r.Len, func(s int, so, l int64) {
			if end[s] != so {
				n++
			}
			end[s] = so + l
		})
	}
	return n
}

// TestCollectiveQueueRaceStress hammers the per-server request queues
// from many goroutines issuing mixed ReadV/WriteV vectors (run with
// -race). Each goroutine owns a disjoint logical region, so data can be
// verified exactly; the Stats counters must account every request:
// Requests equals the analytic request count, Bytes splits exactly into
// BytesRead/BytesWritten, and with a pure per-request cost model the
// accumulated Busy time is exactly Requests x overhead.
func TestCollectiveQueueRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size stress: skipped under -short")
	}
	const (
		servers = 5
		stripe  = int64(64)
		region  = int64(8 << 10)
		workers = 12
		iters   = 40
	)
	overhead := time.Microsecond
	fs, err := Create("qrace", Options{
		Servers: servers, StripeSize: stripe,
		Cost: CostModel{RequestOverhead: overhead},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	var wantReqs, wantRead, wantWritten atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			base := int64(g) * region
			for it := 0; it < iters; it++ {
				// Partition a random window of my region into 1..4
				// disjoint runs (ReadV/WriteV pack them back-to-back).
				nRuns := 1 + rng.Intn(4)
				var runs []Run
				at := base + int64(rng.Intn(64))
				var total int64
				for r := 0; r < nRuns; r++ {
					l := int64(1 + rng.Intn(300))
					if at+l > base+region {
						break
					}
					runs = append(runs, Run{Off: at, Len: l})
					total += l
					at += l + int64(rng.Intn(32)) // gap between runs
				}
				if len(runs) == 0 {
					continue
				}
				payload := make([]byte, total)
				rng.Read(payload)
				if _, err := fs.WriteV(runs, payload); err != nil {
					errs[g] = err
					return
				}
				back := make([]byte, total)
				if _, err := fs.ReadV(runs, back); err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(payload, back) {
					errs[g] = fmt.Errorf("iter %d: readback mismatch", it)
					return
				}
				wantReqs.Add(2 * requestsOf(fs, runs))
				for _, r := range runs {
					wantRead.Add(r.Len)
					wantWritten.Add(r.Len)
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	st := fs.Stats()
	if got, want := st.Requests(), wantReqs.Load(); got != want {
		t.Errorf("Requests() = %d, want %d", got, want)
	}
	var read, written int64
	for _, ps := range st.PerServer {
		read += ps.BytesRead
		written += ps.BytesWritten
	}
	if read != wantRead.Load() || written != wantWritten.Load() {
		t.Errorf("bytes read/written = %d/%d, want %d/%d",
			read, written, wantRead.Load(), wantWritten.Load())
	}
	if got, want := st.Bytes(), wantRead.Load()+wantWritten.Load(); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
	if st.Seeks() > st.Requests() {
		t.Errorf("Seeks() = %d exceeds Requests() = %d", st.Seeks(), st.Requests())
	}
	// Pure per-request cost: Busy must be exactly requests x overhead,
	// on every server (a lost or double-charged request would skew it).
	for i, ps := range st.PerServer {
		if want := time.Duration(ps.Reads+ps.Writes) * overhead; ps.Busy != want {
			t.Errorf("server %d Busy = %v, want %v", i, ps.Busy, want)
		}
	}
}

// TestCollectiveQueueOverlapWallClock pins the point of the queues:
// one logical read striped over S real-time servers costs ~max of the
// per-server service times, not their sum.
func TestCollectiveQueueOverlapWallClock(t *testing.T) {
	const servers = 4
	stripe := int64(1 << 10)
	perReq := 2 * time.Millisecond
	fs, err := Create("qoverlap", Options{
		Servers: servers, StripeSize: stripe,
		Cost: CostModel{RequestOverhead: perReq, RealTime: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	buf := make([]byte, int64(servers)*stripe) // one segment per server
	start := time.Now()
	if _, err := fs.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if sum := time.Duration(servers) * perReq; wall >= sum {
		t.Errorf("striped read took %v, want < serialized %v", wall, sum)
	}
}

// TestCollectiveQueueCloseFallback: I/O after Close is serviced
// synchronously with identical semantics (the mem backend outlives the
// queues), so late stragglers never hang or panic.
func TestCollectiveQueueCloseFallback(t *testing.T) {
	fs, err := Create("qclose", Options{Servers: 3, StripeSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("queue fallback after close")
	if _, err := fs.WriteAt(data, 5); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := fs.ReadAt(got, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-Close read mismatch")
	}
	if _, err := fs.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats(); got.Requests() == 0 {
		t.Fatal("post-Close I/O not accounted")
	}
}
