// queue.go gives every simulated I/O server its own request queue: a
// dedicated service goroutine draining a channel, the way each PVFS2
// server daemon services its own request stream. A logical FS operation
// enqueues all of its per-server segments up front and then waits for
// the completions, so when a request vector spans several servers their
// service times overlap — the caller pays max-per-server instead of the
// sum — while each individual server still services one request at a
// time. CostModel.RealTime sleeps inside the server loop (the server is
// busy; its queue backs up), not in the caller, which is what makes the
// overlap measurable as wall-clock time by the collective-I/O
// benchmarks.
//
// The order a server services its queue in is the Options.Scheduler
// knob: FIFO takes requests strictly in arrival order; Elevator freezes
// the pending requests into a bounded reorder window and services the
// window as one ascending C-SCAN sweep, merging physically adjacent
// same-direction segments into single streamed services so a sweep
// charges one seek per discontinuity instead of one per request.
package pfs

import (
	"math"
	"sort"
	"time"
)

// queueDepth is the per-server channel buffer: deep enough that a
// dispatcher rarely blocks handing over a striped vector, small enough
// to bound memory for runaway producers.
const queueDepth = 64

// ioSeg is one per-server segment of a logical operation, pre-resolved
// to a server-local offset and a sub-slice of the caller's buffer.
// flush marks write segments that belong to a write-behind flush sweep
// (FlushV) and sieve marks read segments that belong to a data-sieving
// block fetch (SieveReadV), for stats attribution.
type ioSeg struct {
	server int
	off    int64 // server-local offset
	p      []byte
	write  bool
	flush  bool
	sieve  bool
}

// ioReq is an ioSeg in flight: submission index for deterministic
// error selection, completion channel back to the dispatcher.
type ioReq struct {
	seg  ioSeg
	idx  int
	err  error
	done chan *ioReq
}

// startQueues launches one service goroutine per server.
func (fs *FS) startQueues() {
	fs.queues = make([]chan *ioReq, len(fs.servers))
	for i, sv := range fs.servers {
		ch := make(chan *ioReq, queueDepth)
		fs.queues[i] = ch
		fs.qwg.Add(1)
		go func(sv *server, ch chan *ioReq) {
			defer fs.qwg.Done()
			sv.serve(ch)
		}(sv, ch)
	}
}

// stopQueues drains the queues and stops the workers. In-flight
// dispatchers still receive their completions: workers finish every
// queued request before exiting.
func (fs *FS) stopQueues() {
	fs.qmu.Lock()
	if fs.qclosed {
		fs.qmu.Unlock()
		return
	}
	fs.qclosed = true
	for _, ch := range fs.queues {
		close(ch)
	}
	fs.qmu.Unlock()
	fs.qwg.Wait()
}

// serve is one server's service loop, under the configured discipline.
func (sv *server) serve(ch chan *ioReq) {
	if sv.sched == Elevator {
		sv.serveElevator(ch)
		return
	}
	// FIFO: execute, sleep the charged service time when the cost model
	// is real-time (the server is busy — later requests on this queue
	// wait, other servers keep serving), then signal the dispatcher.
	for req := range ch {
		var d time.Duration
		if req.seg.write {
			d, req.err = sv.writeAt(req.seg.p, req.seg.off, req.seg.flush)
		} else {
			d, req.err = sv.readAt(req.seg.p, req.seg.off, req.seg.sieve)
		}
		if sv.cost.RealTime && d > 0 {
			time.Sleep(d)
		}
		req.done <- req
	}
}

// serveElevator is the batching C-SCAN loop: block for one request,
// opportunistically drain whatever else is already queued (up to the
// reorder window), freeze the batch, and service it as one ascending
// sweep. The window is Options.WindowSize when positive; when 0 (auto)
// each sweep freezes the backlog present at its start, so the window
// tracks queue depth. Either way requests arriving during a sweep wait
// for the next one — the frozen window is what bounds bypass (no
// starvation). A receive that reports the channel closed means the
// buffer is already empty, so the loop can exit right after servicing
// its last batch.
func (sv *server) serveElevator(ch chan *ioReq) {
	notify := func(req *ioReq) { req.done <- req }
	for {
		req, ok := <-ch
		if !ok {
			return
		}
		window := sv.reorderWindow(len(ch))
		batch := []*ioReq{req}
		open := true
	drain:
		for len(batch) < window {
			select {
			case r, ok := <-ch:
				if !ok {
					open = false
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		sv.serviceSweep(batch, notify)
		if !open {
			return
		}
	}
}

// reorderWindow resolves the elevator's effective reorder window for a
// sweep starting with `backlog` requests already queued behind the one
// just received. The base window is Options.WindowSize when positive,
// or 1+backlog (freeze the current backlog) when auto. A straggler
// server (CostModel.SlowFactor > 1) scales its window by that factor,
// rounded up: requests pile up at the slow server while its peers
// drain, and a wider frozen window lets each of its sweeps merge more
// adjacent segments, so the straggler pays its seek surcharge fewer
// times per byte. Nominal servers (factor <= 1) keep the base window,
// so the tuning never changes single-speed configurations.
func (sv *server) reorderWindow(backlog int) int {
	w := sv.window
	if w <= 0 {
		w = 1 + backlog // auto: freeze the current backlog
	}
	if sv.slow > 1 {
		w = int(math.Ceil(float64(w) * sv.slow))
	}
	return w
}

// serviceSweep services one frozen batch as a single ascending C-SCAN
// sweep: requests sort by server-local offset (stable, so requests at
// the same offset keep arrival order), and maximal groups of physically
// adjacent same-direction segments are serviced as one streamed request
// — one charge (at most one seek, one request overhead, byte time for
// the whole stream) covering every segment of the group. notify is
// called once per request, after its group has been serviced.
func (sv *server) serviceSweep(batch []*ioReq, notify func(*ioReq)) {
	sort.SliceStable(batch, func(i, j int) bool {
		return batch[i].seg.off < batch[j].seg.off
	})
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].seg.write == batch[i].seg.write &&
			batch[j].seg.off == batch[j-1].seg.off+int64(len(batch[j-1].seg.p)) {
			j++
		}
		d := sv.serviceRun(batch[i:j])
		if sv.cost.RealTime && d > 0 {
			time.Sleep(d)
		}
		for k := i; k < j; k++ {
			notify(batch[k])
		}
		i = j
	}
}

// serviceRun executes one merged group of physically contiguous
// same-direction segments: a single charge for the whole stream, then
// the per-segment data movement.
func (sv *server) serviceRun(reqs []*ioReq) time.Duration {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	var total int64
	for _, r := range reqs {
		total += int64(len(r.seg.p))
	}
	d := sv.charge(total, reqs[0].seg.off, reqs[0].seg.write)
	var flushed, sieved int64
	for _, r := range reqs {
		if r.seg.write {
			r.err = sv.storeLocked(r.seg.p, r.seg.off)
			if r.seg.flush {
				flushed += int64(len(r.seg.p))
			}
		} else {
			r.err = sv.loadLocked(r.seg.p, r.seg.off)
			if r.seg.sieve {
				sieved += int64(len(r.seg.p))
			}
		}
	}
	if flushed > 0 {
		sv.attrFlush(flushed)
	}
	if sieved > 0 {
		sv.attrSieve(sieved)
	}
	return d
}

// dispatch runs a segment list through the per-server queues and waits
// for all completions. Failure injection is consulted per segment, in
// submission order, exactly as the pre-queue code did: an injected
// fault stops submission (the request "never reached a server"),
// already-queued segments still complete. The returned count is the
// bytes of the segments that precede the earliest failure in submission
// order; the returned error is the earliest failure (injection or
// service), so serial callers observe the same error they always did.
func (fs *FS) dispatch(segs []ioSeg) (int64, error) {
	if len(segs) == 0 {
		return 0, nil
	}
	// With parity configured, reads take the degraded-capable path: a
	// segment that fails (injection or service error), exceeds the
	// straggler deadline, or targets an avoided slow server is
	// reconstructed from the other servers instead of failing the call.
	// A dispatch only ever carries one direction, so segs[0] decides.
	if fs.code != nil && !segs[0].write {
		return fs.dispatchDegraded(segs)
	}
	fs.qmu.RLock()
	if fs.qclosed || fs.queues == nil {
		fs.qmu.RUnlock()
		return fs.dispatchSync(segs)
	}
	done := make(chan *ioReq, len(segs))
	reqs := make([]ioReq, len(segs)) // one slab; the queues carry pointers into it
	sent := 0
	errIdx := len(segs)
	var firstErr error
	for i := range segs {
		s := &segs[i]
		if err := fs.inject(s.server, s.write, s.off, int64(len(s.p))); err != nil {
			errIdx, firstErr = i, err
			break
		}
		reqs[i] = ioReq{seg: *s, idx: i, done: done}
		fs.queues[s.server] <- &reqs[i]
		sent++
	}
	fs.qmu.RUnlock()
	for i := 0; i < sent; i++ {
		<-done
	}
	return settle(segs, reqs[:sent], errIdx, firstErr)
}

// settle folds the service results into the dispatch contract shared
// by the queued and synchronous paths: the earliest failure in
// submission order wins, and the returned count is the bytes of the
// segments preceding it.
func settle(segs []ioSeg, reqs []ioReq, errIdx int, firstErr error) (int64, error) {
	for i := range reqs {
		if r := &reqs[i]; r.err != nil && r.idx < errIdx {
			errIdx, firstErr = r.idx, r.err
		}
	}
	var n int64
	for i := 0; i < errIdx && i < len(segs); i++ {
		n += int64(len(segs[i].p))
	}
	return n, firstErr
}

// dispatchSync is the post-Close fallback: service the segments in the
// caller, under the same discipline the queues would have applied, and
// against the same per-server lastEnd state, so the seek detector sees
// one continuous request history across Close. For streams whose sweep
// partition cannot change the outcome — per-server ascending, or
// mutually discontiguous segments — the charged seeks are identical to
// the queued path's (pinned by TestSchedulerCloseSeekParity); for
// streams the elevator actually reorders, the queued path's counts
// additionally depend on how arrivals happened to fall into reorder
// windows. Injection is consulted in submission order and stops
// submission, as in dispatch; already-accepted segments are still
// serviced, and the returned error is the earliest failure in
// submission order.
func (fs *FS) dispatchSync(segs []ioSeg) (int64, error) {
	errIdx := len(segs)
	var firstErr error
	accepted := len(segs)
	for i := range segs {
		s := &segs[i]
		if err := fs.inject(s.server, s.write, s.off, int64(len(s.p))); err != nil {
			errIdx, firstErr, accepted = i, err, i
			break
		}
	}
	reqs := make([]ioReq, accepted)
	for i := range reqs {
		reqs[i] = ioReq{seg: segs[i], idx: i}
	}
	if fs.opts.Scheduler == Elevator {
		// Per server, the accepted segments form one frozen batch — the
		// same sort-and-merge sweep a queue worker applies.
		var batch []*ioReq
		for s, sv := range fs.servers {
			batch = batch[:0]
			for i := range reqs {
				if reqs[i].seg.server == s {
					batch = append(batch, &reqs[i])
				}
			}
			if len(batch) > 0 {
				sv.serviceSweep(batch, func(*ioReq) {})
			}
		}
	} else {
		for i := range reqs {
			r := &reqs[i]
			sv := fs.servers[r.seg.server]
			var d time.Duration
			if r.seg.write {
				d, r.err = sv.writeAt(r.seg.p, r.seg.off, r.seg.flush)
			} else {
				d, r.err = sv.readAt(r.seg.p, r.seg.off, r.seg.sieve)
			}
			if sv.cost.RealTime && d > 0 {
				time.Sleep(d)
			}
		}
	}
	return settle(segs, reqs, errIdx, firstErr)
}
