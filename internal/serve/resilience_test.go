package serve

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"drxmp"
	"drxmp/internal/grid"
	"drxmp/internal/mpiio"
)

// TestAdmissionCancelQueuedReleasesSlot (regression for the queued-
// waiter leak): a waiter abandoned by its client while QUEUED must
// leave the queue immediately and never hold budget — previously a
// sync.Cond waiter blocked until service and its slot leaked to the
// abandoned request. After the holder releases, the budget must be
// exactly zero.
func TestAdmissionCancelQueuedReleasesSlot(t *testing.T) {
	a := newAdmission(1, 0, 0)
	if _, err := a.acquire(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, 10)
		queuedErr <- err
	}()
	deadline := time.After(5 * time.Second)
	for a.snapshot().Queued == 0 {
		select {
		case <-deadline:
			t.Fatal("second request never queued")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-queuedErr:
		if err == nil {
			t.Fatal("canceled waiter was admitted")
		}
	case <-deadline:
		t.Fatal("canceled waiter still blocked in acquire")
	}
	st := a.snapshot()
	if st.Queued != 0 || st.Canceled != 1 {
		t.Fatalf("after cancel: %+v, want 0 queued / 1 canceled", st)
	}
	a.release(10)
	st = a.snapshot()
	if st.InFlight != 0 || st.InFlightBytes != 0 || st.Queued != 0 {
		t.Fatalf("budget leaked to an abandoned waiter: %+v", st)
	}
	// The controller still admits fresh work.
	if _, err := a.acquire(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	a.release(10)
}

// TestAdmissionCancelRace hammers the grant-vs-cancel race: waiters
// whose context is canceled at the same instant release grants them
// must hand the budget back, leaving the controller exactly idle.
func TestAdmissionCancelRace(t *testing.T) {
	a := newAdmission(2, 0, 0)
	const K = 64
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*time.Millisecond)
			defer cancel()
			if _, err := a.acquire(ctx, 1); err == nil {
				time.Sleep(time.Duration(i%3) * time.Millisecond)
				a.release(1)
			}
		}(i)
	}
	wg.Wait()
	st := a.snapshot()
	if st.InFlight != 0 || st.InFlightBytes != 0 || st.Queued != 0 {
		t.Fatalf("controller not idle after racing cancels: %+v", st)
	}
}

// TestAdmissionShedsBeyondQueueBound: with maxQueued waiters already
// parked, the next arrival is rejected immediately instead of growing
// the backlog.
func TestAdmissionShedsBeyondQueueBound(t *testing.T) {
	a := newAdmission(1, 0, 2)
	if _, err := a.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			if _, err := a.acquire(context.Background(), 1); err == nil {
				admitted <- struct{}{}
			}
		}()
	}
	deadline := time.After(5 * time.Second)
	for a.snapshot().Queued < 2 {
		select {
		case <-deadline:
			t.Fatal("waiters never queued")
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := a.acquire(context.Background(), 1); err != errShed {
		t.Fatalf("overload acquire err = %v, want errShed", err)
	}
	if st := a.snapshot(); st.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", st.Shed)
	}
	a.release(1)
	<-admitted
	a.release(1)
	<-admitted
	a.release(1)
	if st := a.snapshot(); st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("controller not idle after drain: %+v", st)
	}
}

// holdFirstFetch parks the array's first backing fetch until release is
// called (started closes once it is parked), so a test decides how long
// the first request stays in flight. Call before any request is sent.
func holdFirstFetch(s *Server, name string) (started <-chan struct{}, release func()) {
	a := s.array(name)
	a.co.fetch, started, release = heldFetch(a.co.fetch)
	return started, release
}

// getAsync issues one GET and delivers its status code.
func getAsync(t *testing.T, url string) <-chan int {
	code := make(chan int, 1)
	go func() {
		resp, _ := get(t, url)
		code <- resp.StatusCode
	}()
	return code
}

// TestServeShedOverloadHTTP pins the HTTP mapping: queue-bound
// overflow returns 503 with Retry-After while the earlier requests
// complete, and the budget drains to zero.
func TestServeShedOverloadHTTP(t *testing.T) {
	cfg := Config{MaxInFlightRequests: 1, MaxQueuedRequests: 1}
	withServer(t, cfg, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		started, release := holdFirstFetch(s, "unit")
		defer release()
		adm := s.array("unit").adm
		// One request holds the only slot (its fetch is parked), one
		// waits in the queue; every later arrival finds the queue full.
		const K = 8
		section := url + "/v1/arrays/unit/section?lo=0,0&hi=32,32"
		admitted := []<-chan int{getAsync(t, section)}
		<-started
		admitted = append(admitted, getAsync(t, section))
		waitFor(t, "the second request to queue", func() bool { return adm.snapshot().Queued == 1 })
		for i := 2; i < K; i++ {
			resp, _ := get(t, section)
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("request %d past the queue bound: status %d, Retry-After %q; want 503 with Retry-After",
					i, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		}
		release()
		for i, c := range admitted {
			if code := <-c; code != http.StatusOK {
				t.Fatalf("admitted request %d: status %d", i, code)
			}
		}
		waitIdle(t, adm)
		if st := adm.snapshot(); st.Shed != K-2 {
			t.Fatalf("admission after the burst: %+v, want idle with %d shed", st, K-2)
		}
	})
}

// TestServeRequestTimeoutQueued: a request whose per-request timeout
// expires while queued gets 503 and releases nothing.
func TestServeRequestTimeoutQueued(t *testing.T) {
	cfg := Config{MaxInFlightRequests: 1, RequestTimeout: 30 * time.Millisecond}
	withServer(t, cfg, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		started, release := holdFirstFetch(s, "unit")
		defer release()
		adm := s.array("unit").adm
		// The first request's fetch is parked holding the only slot; the
		// second queues on admission until its deadline.
		first := getAsync(t, url+"/v1/arrays/unit/section?lo=0,0&hi=8,8")
		<-started
		if code := <-getAsync(t, url+"/v1/arrays/unit/section?lo=16,0&hi=24,8"); code != http.StatusServiceUnavailable {
			t.Fatalf("queued request: status %d, want 503 on its deadline", code)
		}
		if st := adm.snapshot(); st.InFlight != 1 || st.Queued != 0 || st.Canceled != 1 {
			t.Fatalf("admission after the queued timeout: %+v, want only the held request", st)
		}
		release()
		// The fetch outlived the first request's own deadline, but it is
		// the request's own fill: the bytes are good and it answers.
		if code := <-first; code != http.StatusOK {
			t.Fatalf("held request: status %d", code)
		}
		waitIdle(t, adm)
	})
}

// TestServeCoalescedMemberTimeoutReleasesSlot: a read queued in the
// coalescer (not its queue's leader) whose request deadline expires
// answers 503 and gives its admission slot back, while the fetch it
// queued behind and the queue's leader stay in flight.
func TestServeCoalescedMemberTimeoutReleasesSlot(t *testing.T) {
	cfg := Config{CoalesceWindow: time.Hour, RequestTimeout: 50 * time.Millisecond}
	withServer(t, cfg, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		started, release := holdFirstFetch(s, "unit")
		defer release()
		a := s.array("unit")
		// Three disjoint chunk covers, so no two share a single-flight key.
		held := getAsync(t, url+"/v1/arrays/unit/section?lo=0,0&hi=8,8")
		<-started
		leader := getAsync(t, url+"/v1/arrays/unit/section?lo=8,0&hi=16,8")
		waitFor(t, "the leader to queue", func() bool { return a.co.snapshot().Batched == 1 })
		if code := <-getAsync(t, url+"/v1/arrays/unit/section?lo=16,0&hi=24,8"); code != http.StatusServiceUnavailable {
			t.Fatalf("expired member: status %d, want 503", code)
		}
		// Its slot comes back (after its response is out) while the held
		// request and the leader keep theirs.
		waitFor(t, "the member's slot to come back", func() bool { return a.adm.snapshot().InFlight == 2 })
		release()
		if code := <-held; code != http.StatusOK {
			t.Fatalf("held request: status %d", code)
		}
		if code := <-leader; code != http.StatusOK {
			t.Fatalf("queue leader: status %d", code)
		}
		waitIdle(t, a.adm)
	})
}

// TestServeHealthReady: /healthz is always 200; /readyz flips to 503
// with Retry-After while draining and back.
func TestServeHealthReady(t *testing.T) {
	withServer(t, Config{}, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		if resp, body := get(t, url+"/healthz"); resp.StatusCode != 200 {
			t.Fatalf("healthz %d: %s", resp.StatusCode, body)
		}
		if resp, body := get(t, url+"/readyz"); resp.StatusCode != 200 {
			t.Fatalf("readyz %d: %s", resp.StatusCode, body)
		}
		s.SetDraining(true)
		resp, _ := get(t, url+"/readyz")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining readyz %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("draining readyz missing Retry-After")
		}
		if !s.Stats().Draining {
			t.Fatal("stats do not reflect draining")
		}
		// Health stays green while draining: the process is alive.
		if resp, _ := get(t, url+"/healthz"); resp.StatusCode != 200 {
			t.Fatalf("draining healthz %d, want 200", resp.StatusCode)
		}
		s.SetDraining(false)
		if resp, _ := get(t, url+"/readyz"); resp.StatusCode != 200 {
			t.Fatalf("undrained readyz %d, want 200", resp.StatusCode)
		}
	})
}

// TestServePanicMiddleware: a panicking fill settles the request with
// 500 (instead of a dropped connection) and is counted.
func TestServePanicMiddleware(t *testing.T) {
	withServer(t, Config{}, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		a := s.array("unit")
		orig := a.co.fetch
		a.co.fetch = func(b grid.Box) (*mpiio.Buf, error) { panic("fill exploded") }
		resp, body := get(t, url+"/v1/arrays/unit/section?lo=0,0&hi=8,8")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicked request status %d: %s", resp.StatusCode, body)
		}
		if s.Stats().Panics != 1 {
			t.Fatalf("panics = %d, want 1", s.Stats().Panics)
		}
		adm := a.adm.snapshot()
		if adm.InFlight != 0 || adm.Queued != 0 {
			t.Fatalf("admission leaked through a panic: %+v", adm)
		}
		// The server keeps serving.
		a.co.fetch = orig
		if resp, _ := get(t, url+"/v1/arrays/unit/section?lo=0,0&hi=8,8"); resp.StatusCode != 200 {
			t.Fatalf("post-panic read status %d", resp.StatusCode)
		}
	})
}

// TestSingleFlightWaiterDeadline: a waiter whose ctx expires unparks
// with the ctx error while the fill completes for everyone else.
func TestSingleFlightWaiterDeadline(t *testing.T) {
	tb := newFlightTable()
	armed := make(chan struct{})
	release := make(chan struct{})
	leaderOut := make(chan error, 1)
	go func() {
		_, _, err := tb.do(context.Background(), "k", func() (*mpiio.Buf, error) {
			close(armed)
			<-release
			return &mpiio.Buf{B: []byte("late")}, nil
		})
		leaderOut <- err
	}()
	<-armed
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, shared, err := tb.do(ctx, "k", func() (*mpiio.Buf, error) { return nil, nil })
	if !shared || err == nil || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("deadline waiter: shared=%v err=%v, want abandoned error", shared, err)
	}
	close(release)
	if err := <-leaderOut; err != nil {
		t.Fatalf("leader err = %v after waiter abandoned", err)
	}
}
