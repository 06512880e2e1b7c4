package serve

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drxmp/internal/grid"
	"drxmp/internal/mpiio"
)

// heldFetch wraps a backing fetch so that its FIRST call parks until
// release is called (started closes once it has parked); later calls go
// straight through. Tests hold a request in flight with it for exactly
// as long as they need, instead of guessing at a wall-clock window.
func heldFetch(inner func(grid.Box) (*mpiio.Buf, error)) (fetch func(grid.Box) (*mpiio.Buf, error), started <-chan struct{}, release func()) {
	var calls atomic.Int32
	parked, gate := make(chan struct{}), make(chan struct{})
	fetch = func(b grid.Box) (*mpiio.Buf, error) {
		if calls.Add(1) == 1 {
			close(parked)
			<-gate
		}
		return inner(b)
	}
	return fetch, parked, sync.OnceFunc(func() { close(gate) })
}

// countingFetch serves sliceSrc bytes and counts its calls.
func countingFetch(calls *atomic.Int32) func(grid.Box) (*mpiio.Buf, error) {
	return func(b grid.Box) (*mpiio.Buf, error) {
		calls.Add(1)
		return &mpiio.Buf{B: sliceSrc(b)}, nil
	}
}

// waitFor polls cond (a stats predicate) until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitIdle waits for the admission controller to drain. A sized body
// is complete on the client's side before the handler's deferred
// release has run, so "idle" right after the last response is a race.
func waitIdle(t *testing.T, adm *admission) {
	t.Helper()
	waitFor(t, "admission to drain", func() bool {
		st := adm.snapshot()
		return st.InFlight == 0 && st.InFlightBytes == 0 && st.Queued == 0
	})
}

// farBox is disjoint from every box the tests below queue.
var farBox = grid.NewBox([]int{500, 500}, []int{504, 504})

// queueReads starts one co.read per box and checks each result against
// sliceSrc; the returned wait reports the first failure.
func queueReads(co *coalescer, boxes []grid.Box) (wait func() error) {
	errs := make([]error, len(boxes))
	var wg sync.WaitGroup
	for i, box := range boxes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, _, err := co.read(context.Background(), box)
			if err == nil && !bytes.Equal(buf.B, sliceSrc(box)) {
				err = fmt.Errorf("box %v: bytes differ", box)
			}
			errs[i] = err
		}()
	}
	return func() error {
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// TestCoalescerMergesOverlappingWindow: K overlapping readers, the
// first of which finds the file idle and goes alone; the other K-1
// queue behind its (held) fetch and leave as ONE backing read the
// moment it settles — 2 backing reads for K readers, whatever the
// window says.
func TestCoalescerMergesOverlappingWindow(t *testing.T) {
	var fetches atomic.Int32
	fetch, started, release := heldFetch(countingFetch(&fetches))
	defer release()
	co := newCoalescer(time.Hour, 1, fetch)
	// 8 overlapping boxes along a diagonal: every neighbor intersects,
	// so the fix-point clustering collapses the queued ones into one read.
	const K = 8
	boxes := make([]grid.Box, K)
	for i := range boxes {
		boxes[i] = grid.NewBox([]int{i, i}, []int{i + 8, i + 8})
	}
	first := queueReads(co, boxes[:1])
	<-started
	rest := queueReads(co, boxes[1:])
	waitFor(t, "K-1 readers to queue", func() bool { return co.snapshot().Batched == K-1 })
	if n := co.snapshot().BackingReads; n != 1 {
		t.Fatalf("%d backing reads while the first is held, want 1", n)
	}
	release()
	if err := first(); err != nil {
		t.Fatal(err)
	}
	if err := rest(); err != nil {
		t.Fatal(err)
	}
	if n := fetches.Load(); n != 2 {
		t.Fatalf("%d backing reads for %d overlapping readers behind one fetch, want 2", n, K)
	}
	st := co.snapshot()
	if st.Merged != K-2 || st.BackingReads != 2 || st.Batched != K-1 || st.Batches != 1 {
		t.Fatalf("stats %+v, want %d merged / 2 backing / %d batched / 1 batch", st, K-2, K-1)
	}
}

func TestCoalescerDisjointClustersStaySeparate(t *testing.T) {
	var fetches atomic.Int32
	fetch, started, release := heldFetch(countingFetch(&fetches))
	defer release()
	co := newCoalescer(time.Hour, 1, fetch)
	held := queueReads(co, []grid.Box{farBox})
	<-started
	queued := queueReads(co, []grid.Box{
		grid.NewBox([]int{0, 0}, []int{4, 4}),
		grid.NewBox([]int{2, 2}, []int{6, 6}),     // overlaps the first
		grid.NewBox([]int{100, 0}, []int{104, 4}), // far away
	})
	waitFor(t, "3 readers to queue", func() bool { return co.snapshot().Batched == 3 })
	release()
	if err := held(); err != nil {
		t.Fatal(err)
	}
	if err := queued(); err != nil {
		t.Fatal(err)
	}
	if n := fetches.Load(); n != 3 {
		t.Fatalf("%d backing reads, want 3 (the held one + one merged cluster + one loner)", n)
	}
	if st := co.snapshot(); st.Merged != 1 {
		t.Fatalf("stats %+v, want 1 merged", st)
	}
}

// TestCoalescerZeroWindowPassthrough: with no window nothing ever
// queues, not even behind a fetch that is in flight.
func TestCoalescerZeroWindowPassthrough(t *testing.T) {
	var fetches atomic.Int32
	fetch, started, release := heldFetch(countingFetch(&fetches))
	defer release()
	co := newCoalescer(0, 1, fetch)
	held := queueReads(co, []grid.Box{farBox})
	<-started
	box := grid.NewBox([]int{0, 0}, []int{4, 4})
	buf, merged, err := co.read(context.Background(), box)
	if err != nil || merged || !bytes.Equal(buf.B, sliceSrc(box)) {
		t.Fatalf("passthrough read wrong: merged=%v err=%v", merged, err)
	}
	release()
	if err := held(); err != nil {
		t.Fatal(err)
	}
	if st := co.snapshot(); fetches.Load() != 2 || st.Batched != 0 || st.BackingReads != 2 {
		t.Fatalf("fetches = %d, stats %+v: want 2 direct reads, none queued", fetches.Load(), st)
	}
}

// TestCoalescerIdleReadNeverWaits: a read that finds no fetch in flight
// goes straight to the file — it does not sit out the window (the old
// coalescer slept it out to merge with nobody) and it never enters the
// queue, which is the only place a timer is armed.
func TestCoalescerIdleReadNeverWaits(t *testing.T) {
	var fetches atomic.Int32
	const window = time.Second
	co := newCoalescer(window, 1, countingFetch(&fetches))
	box := grid.NewBox([]int{0, 0}, []int{4, 4})
	start := time.Now()
	for i := 0; i < 3; i++ { // each one settles before the next arrives: idle every time
		buf, merged, err := co.read(context.Background(), box)
		if err != nil || merged || !bytes.Equal(buf.B, sliceSrc(box)) {
			t.Fatalf("idle read %d wrong: merged=%v err=%v", i, merged, err)
		}
	}
	if d := time.Since(start); d > window/4 {
		t.Fatalf("3 idle reads took %v under a %v window", d, window)
	}
	if st := co.snapshot(); st.Batched != 0 || st.Batches != 0 || st.BackingReads != 3 {
		t.Fatalf("stats %+v, want 3 direct backing reads and an untouched queue", st)
	}
}

// TestCoalescerQueuedReadLeavesOnWindow: the window caps what queueing
// may cost. A read queued behind a fetch that outlasts the window
// leaves alone when the window is up and runs beside it.
func TestCoalescerQueuedReadLeavesOnWindow(t *testing.T) {
	var fetches atomic.Int32
	fetch, started, release := heldFetch(countingFetch(&fetches))
	defer release()
	const window = 10 * time.Millisecond
	co := newCoalescer(window, 1, fetch)
	held := queueReads(co, []grid.Box{farBox})
	<-started
	start := time.Now()
	box := grid.NewBox([]int{0, 0}, []int{4, 4})
	buf, merged, err := co.read(context.Background(), box) // returns while the first is still held
	if err != nil || merged || !bytes.Equal(buf.B, sliceSrc(box)) {
		t.Fatalf("queued read wrong: merged=%v err=%v", merged, err)
	}
	if d := time.Since(start); d < window {
		t.Fatalf("queued read left after %v, before its %v window", d, window)
	}
	// Only the queued read's fetch has come back: the held one is still out.
	if st := co.snapshot(); st.Batched != 1 || st.Batches != 1 || st.BackingReads != 2 || fetches.Load() != 1 {
		t.Fatalf("fetches = %d, stats %+v: want the queued read fetched beside the held one", fetches.Load(), st)
	}
	release()
	if err := held(); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescerQueuedMemberCtxExpires: a queued non-leader whose
// context expires unparks with its error; the batch still serves the
// members that stayed.
func TestCoalescerQueuedMemberCtxExpires(t *testing.T) {
	var fetches atomic.Int32
	fetch, started, release := heldFetch(countingFetch(&fetches))
	defer release()
	co := newCoalescer(time.Hour, 1, fetch)
	held := queueReads(co, []grid.Box{farBox})
	<-started
	leader := queueReads(co, []grid.Box{grid.NewBox([]int{0, 0}, []int{4, 4})})
	waitFor(t, "the leader to queue", func() bool { return co.snapshot().Batched == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err := co.read(ctx, grid.NewBox([]int{2, 2}, []int{6, 6}))
	if err == nil || !strings.Contains(err.Error(), "abandoned") || ctx.Err() == nil {
		t.Fatalf("expired member err = %v, want an abandoned-read error", err)
	}
	release()
	if err := held(); err != nil {
		t.Fatal(err)
	}
	if err := leader(); err != nil {
		t.Fatal(err)
	}
}
