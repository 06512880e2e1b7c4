package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drxmp"
	"drxmp/internal/grid"
	"drxmp/internal/mpiio"
	"drxmp/internal/pfs"
)

// TestFaultAdmissionReleasedOnErroredRequests (bugfix regression): error N
// requests against a bounded admission budget and assert the budget
// returns to zero — a failed section read must not leak in-flight
// bytes and wedge the file.
func TestFaultAdmissionReleasedOnErroredRequests(t *testing.T) {
	cfg := Config{MaxInFlightRequests: 3, MaxInFlightBytes: 1 << 20}
	withServer(t, cfg, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		f.FS().SetInjector(&pfs.FaultPoint{
			Server: pfs.AnyServer, Op: pfs.FaultReads, Permanent: true,
		})
		const N = 12
		var wg sync.WaitGroup
		errors := make([]int, N)
		for i := 0; i < N; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Distinct chunks: every request is a distinct cold
				// fill, so each one exercises the error path itself
				// rather than sharing a failed flight.
				lo := (i % 4) * 8
				hi := lo + 8
				resp, _ := get(t, fmt.Sprintf("%s/v1/arrays/unit/section?lo=%d,%d&hi=%d,%d&tenant=c%d",
					url, lo, (i/4)*8, hi, (i/4)*8+8, i))
				errors[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
		for i, code := range errors {
			if code != http.StatusInternalServerError {
				t.Fatalf("request %d: status %d, want 500 behind a dead store", i, code)
			}
		}
		adm := s.array("unit").adm.snapshot()
		if adm.InFlight != 0 || adm.InFlightBytes != 0 || adm.Queued != 0 {
			t.Fatalf("admission budget leaked after %d errored requests: %+v", N, adm)
		}
		// The budget must still admit work once the fault clears.
		f.FS().SetInjector(nil)
		resp, body := get(t, url+"/v1/arrays/unit/section?lo=0,0&hi=8,8")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-fault read status %d: %s (budget wedged?)", resp.StatusCode, body)
		}
		want := make([]byte, 8*8*8)
		if err := f.ReadSection(drxmp.NewBox([]int{0, 0}, []int{8, 8}), want, drxmp.RowMajor); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatal("post-fault read bytes differ")
		}
	})
}

// TestFaultSingleFlightPanicSettlesWaiters (bugfix regression): a fill that
// panics must still remove its table entry and release its waiters
// with an error — not strand them on a never-closed channel.
func TestFaultSingleFlightPanicSettlesWaiters(t *testing.T) {
	tb := newFlightTable()
	armed := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		tb.do(context.Background(), "k", func() (*mpiio.Buf, error) {
			close(armed)
			<-release
			panic("fill exploded")
		})
	}()
	<-armed
	waiterDone := make(chan error, 1)
	go func() {
		_, shared, err := tb.do(context.Background(), "k", func() (*mpiio.Buf, error) {
			t.Error("waiter's fetch ran despite an in-flight fill")
			return nil, nil
		})
		if !shared {
			t.Error("waiter was not marked as a single-flight hit")
		}
		waiterDone <- err
	}()
	// Give the waiter time to park on the flight, then blow up the fill.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if r := <-leaderDone; r == nil {
		t.Fatal("leader's panic was swallowed")
	}
	select {
	case err := <-waiterDone:
		if err == nil || !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("waiter err = %v, want an aborted-fill error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded after the fill panicked")
	}
	// The entry is gone: the next request becomes a fresh leader.
	fl, shared, err := tb.do(context.Background(), "k", func() (*mpiio.Buf, error) { return &mpiio.Buf{B: []byte("ok")}, nil })
	if err != nil || shared || string(fl.buf.B) != "ok" {
		t.Fatalf("table did not recover: buf=%q shared=%v err=%v", fl.buf.B, shared, err)
	}
}

// TestFaultCoalescerPanicSettlesMembers (bugfix regression): a backing
// fetch that panics must release the queue behind it, a batch whose
// fetch panics must settle every member with an error, and the
// coalescer must be idle again afterwards — the next read proceeds.
func TestFaultCoalescerPanicSettlesMembers(t *testing.T) {
	var healthy atomic.Bool
	fetch, started, release := heldFetch(func(b grid.Box) (*mpiio.Buf, error) {
		if !healthy.Load() {
			panic("backing read exploded")
		}
		return &mpiio.Buf{B: sliceSrc(b)}, nil
	})
	defer release()
	co := newCoalescer(time.Hour, 1, fetch)
	read := func(box grid.Box, out chan<- any) {
		defer func() { out <- recover() }()
		co.read(context.Background(), box)
	}
	// The held fetch, then a queue of two behind it: its leader...
	heldDone, leaderDone := make(chan any, 1), make(chan any, 1)
	go read(farBox, heldDone)
	<-started
	go read(grid.NewBox([]int{0, 0}, []int{4, 4}), leaderDone)
	waitFor(t, "the leader to queue", func() bool { return co.snapshot().Batched == 1 })
	// ...and a member.
	memberDone := make(chan error, 1)
	go func() {
		_, _, err := co.read(context.Background(), grid.NewBox([]int{1, 1}, []int{3, 3}))
		memberDone <- err
	}()
	waitFor(t, "the member to queue", func() bool { return co.snapshot().Batched == 2 })
	release()
	if r := <-heldDone; r == nil {
		t.Fatal("the held fetch's panic was swallowed")
	}
	if r := <-leaderDone; r == nil {
		t.Fatal("leader's panic was swallowed")
	}
	select {
	case err := <-memberDone:
		if err == nil || !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("member err = %v, want an aborted-fetch error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("member stranded after the batch leader panicked")
	}
	// Nothing is left in flight or queued: the next read goes straight
	// to the (now healthy) file.
	healthy.Store(true)
	box := grid.NewBox([]int{0, 0}, []int{4, 4})
	buf, _, err := co.read(context.Background(), box)
	if err != nil || !bytes.Equal(buf.B, sliceSrc(box)) {
		t.Fatalf("read after the panics: err=%v", err)
	}
	co.mu.Lock()
	inflight, pending := co.inflight, len(co.pending)
	co.mu.Unlock()
	if inflight != 0 || pending != 0 {
		t.Fatalf("coalescer not idle after the panics: %d in flight, %d queued", inflight, pending)
	}
}
