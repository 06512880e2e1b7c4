package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"drxmp/internal/grid"
	"drxmp/internal/mpiio"
)

// pendingFetch is one section fetch queued behind a backing fetch that
// is in flight.
type pendingFetch struct {
	box     grid.Box
	done    chan struct{}
	buf     *mpiio.Buf // dense over box, RowMajor; the member's to release
	err     error
	merged  bool // served as part of a multi-request cluster read
	settled bool // done has been closed (leader-only bookkeeping)

	// Leader only (the oldest member of its queue): lead is closed once
	// batch — the frozen queue this member must serve — has been set,
	// both under the coalescer's mu.
	lead  chan struct{}
	batch []*pendingFetch
}

// coalescer merges overlapping section reads that pile up behind a
// backing fetch into a single backing section read whose result is
// sliced back per client. It batches behind work that is actually in
// flight, never behind a clock:
//
//   - A read that arrives while no backing fetch of the array is
//     running goes straight to the file, alone. It arms no timer and
//     waits for nobody — an idle server (and every cache hit on one)
//     pays nothing for the coalescer.
//   - A read that arrives while a fetch is running queues. The queue is
//     frozen the moment ANY in-flight fetch settles, or when its oldest
//     member has waited window, whichever is first; the oldest member
//     (the leader) then clusters the frozen boxes by overlap, issues
//     one fetch per cluster (the cluster's bounding box) and
//     distributes the slices. A queue that leaves on the window runs
//     concurrently with the fetch that outlasted it.
//
// So window is a cap on the latency batching may add, not a delay every
// read pays: added latency is 0 when idle and at most window otherwise.
// Merging still happens exactly when it pays — a slow cold fetch holds
// the queue open and the readers that overlap behind it share one
// backing read. A zero window disables queueing: every read goes
// straight to the backing fetch.
type coalescer struct {
	window time.Duration
	es     int64
	fetch  func(grid.Box) (*mpiio.Buf, error) // backing read, RowMajor, into a pooled buffer

	mu       sync.Mutex
	inflight int             // backing fetches and frozen batches running
	pending  []*pendingFetch // the open queue; empty whenever inflight is 0

	// cumulative stats
	batches      int64 // queues that froze at least one request
	batched      int64 // requests that queued behind an in-flight fetch
	backingReads int64 // section reads issued against the file
	merged       int64 // requests absorbed into another request's read
	ampBytes     int64 // cluster-bound bytes beyond the members' union
}

func newCoalescer(window time.Duration, es int64, fetch func(grid.Box) (*mpiio.Buf, error)) *coalescer {
	return &coalescer{window: window, es: es, fetch: fetch}
}

// read fetches box (dense RowMajor), merging with the overlapping reads
// queued beside it when a backing fetch was in flight on arrival.
// merged reports that the result came out of a multi-request cluster
// read. The returned buffer is the caller's alone, to release.
//
// ctx bounds only a NON-leader member's wait: a member whose deadline
// expires leaves early with ctx's error (its slice is computed and
// discarded when the batch settles). The queue leader waits at most
// window and then serves the frozen batch — abandoning that duty would
// strand every member on a never-settled fetch.
func (co *coalescer) read(ctx context.Context, box grid.Box) (buf *mpiio.Buf, merged bool, err error) {
	co.mu.Lock()
	if co.window <= 0 || co.inflight == 0 {
		co.inflight++
		co.backingReads++
		co.mu.Unlock()
		defer co.settle()
		b, err := co.fetch(box)
		return b, false, err
	}
	p := &pendingFetch{box: box, done: make(chan struct{})}
	leader := len(co.pending) == 0
	if leader {
		p.lead = make(chan struct{})
	}
	co.pending = append(co.pending, p)
	co.batched++
	co.mu.Unlock()
	if !leader {
		select {
		case <-p.done:
			return p.buf, p.merged, p.err
		case <-ctx.Done():
			return nil, false, fmt.Errorf("serve: abandoned coalesced read of %v: %w", box, ctx.Err())
		}
	}
	t := time.NewTimer(co.window)
	select {
	case <-p.lead:
		t.Stop()
	case <-t.C:
		co.mu.Lock()
		if p.batch == nil { // no settle froze the queue in the same instant
			co.freeze()
		}
		co.mu.Unlock()
	}
	co.serve(p.batch)
	return p.buf, p.merged, p.err
}

// freeze closes the open queue and hands it to its leader as one more
// unit of in-flight work (co.mu held, queue non-empty).
func (co *coalescer) freeze() {
	batch := co.pending
	co.pending = nil
	co.inflight++
	co.batches++
	batch[0].batch = batch
	close(batch[0].lead)
}

// settle retires one unit of in-flight work and releases the queue that
// built up behind it. It runs on every exit of a fetch, a panic
// included, so the queue never waits on work that is gone.
func (co *coalescer) settle() {
	co.mu.Lock()
	co.inflight--
	if len(co.pending) > 0 {
		co.freeze()
	}
	co.mu.Unlock()
}

// serve clusters the frozen batch by box overlap and issues one
// backing read per cluster, slicing the result back to each member.
func (co *coalescer) serve(batch []*pendingFetch) {
	defer co.settle()
	// The leader settles every member no matter how the fetch exits: a
	// panic mid-batch that left members waiting on never-closed done
	// channels would strand their requests (each holding admission
	// budget) forever. Settle the stragglers with an error, then let
	// the panic propagate.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		for _, p := range batch {
			if !p.settled {
				p.settled = true
				p.err = fmt.Errorf("serve: coalesced fetch aborted: %v", r)
				close(p.done)
			}
		}
		panic(r)
	}()
	type cluster struct {
		bound   grid.Box
		members []*pendingFetch
	}
	var clusters []*cluster
	for _, p := range batch {
		clusters = append(clusters, &cluster{bound: p.box, members: []*pendingFetch{p}})
	}
	// Fix-point merge: any two clusters whose bounds overlap collapse
	// into one. Batches are small (they are what queued behind one
	// fetch), so the quadratic sweep is fine.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(clusters) && !changed; i++ {
			for j := i + 1; j < len(clusters); j++ {
				if clusters[i].bound.Intersect(clusters[j].bound).Empty() {
					continue
				}
				clusters[i].bound = boundingBox(clusters[i].bound, clusters[j].bound)
				clusters[i].members = append(clusters[i].members, clusters[j].members...)
				clusters = append(clusters[:j], clusters[j+1:]...)
				changed = true
				break
			}
		}
	}
	for _, cl := range clusters {
		buf, err := co.fetch(cl.bound)
		co.mu.Lock()
		co.backingReads++
		if len(cl.members) > 1 {
			co.merged += int64(len(cl.members) - 1)
			var union int64
			for _, m := range cl.members {
				union += m.box.Volume() // overcounts overlap; amplification is a lower bound of sharing
			}
			if amp := cl.bound.Volume() - union; amp > 0 {
				co.ampBytes += amp * co.es
			}
		}
		co.mu.Unlock()
		for _, m := range cl.members {
			if err != nil {
				m.err = err
			} else if len(cl.members) == 1 {
				m.buf = buf
			} else {
				m.buf = mpiio.GetBuf(m.box.Volume() * co.es)
				sliceSection(m.buf.B, buf.B, cl.bound, m.box, co.es, grid.RowMajor)
				m.merged = true
			}
			m.settled = true
			close(m.done)
		}
		if len(cl.members) > 1 {
			buf.Release() // sliced out to every member: the cluster's cover is done
		}
	}
}

// CoalesceStats is the coalescer's surfaced accounting.
type CoalesceStats struct {
	WindowMS     float64 `json:"window_ms"`
	Batches      int64   `json:"batches"`
	Batched      int64   `json:"batched"`
	BackingReads int64   `json:"backing_reads"`
	Merged       int64   `json:"merged"`
	AmpBytes     int64   `json:"amplified_bytes"`
}

func (co *coalescer) snapshot() CoalesceStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return CoalesceStats{
		WindowMS:     float64(co.window) / float64(time.Millisecond),
		Batches:      co.batches,
		Batched:      co.batched,
		BackingReads: co.backingReads,
		Merged:       co.merged,
		AmpBytes:     co.ampBytes,
	}
}
