// queue.go gives every simulated I/O server its own request queue: a
// dedicated service goroutine draining a channel, the way each PVFS2
// server daemon services its own request stream — and, as in PVFS list
// I/O, what travels on the queue is a list. One logical FS operation
// splits into per-server segments (one per stripe unit it touches, each
// ONE charged request), and a queue entry is the operation's whole list
// for that server: submit hands every server it uses one batch and
// waits for one signal per batch, so the program pays a scheduler
// round-trip per (call, server), not per 260-byte piece, while the
// device model still sees — and charges — every request. Service times
// overlap across servers (the caller pays max-per-server, not the sum);
// each server services one request at a time. CostModel.RealTime
// sleeps inside the server loop (the server is busy; its queue backs
// up), not in the caller.
//
// The order a server services its requests in is the Options.Scheduler
// knob. FIFO walks each list in submission order, lists in arrival
// order. Elevator appends arriving lists to its pending requests,
// freezes everything queued when a sweep starts — so one call's list is
// swept whole — and services it as one ascending C-SCAN sweep, merging
// physically adjacent same-direction segments into single streamed
// services: a sweep charges one seek per discontinuity instead of one
// per request.
//
// Under either discipline a read list's dense runs are one request:
// when the next read segment lies a small hole past the previous one
// (readsThrough), the server reads through the hole instead of seeking
// over it — data sieving, done on the server. The run is charged as one
// request over its span, holes included (one overhead, at most one
// seek), while only the segments' own bytes move, so hole bytes never
// reach memory. Writes never read through. A hole is small by one of
// two rules. Per pair: at most half of each neighbour. Per operation:
// submit sees every server's list of a read dispatch and grants the
// holes no larger than either neighbour, smallest first, out of a
// budget of 1/8 of the dispatch's payload (holeBudgetShare) — so one
// server holding all of an operation's holes still reads through them,
// while an operation with holes everywhere moves at most 9/8 of its
// payload beyond the per-pair rule's holes.
//
// The state of one submission (segments, batches, outcomes) is a pooled
// dispatch, back on its store's idle list once every batch has
// signalled. A degraded read whose straggler deadline fired returns
// while a batch is still with its server: that dispatch is never
// recycled — the worker will yet read its segments and write into its
// private buffer — and is left to the garbage collector.
package pfs

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// queueDepth is the per-server channel buffer, in batches: deep enough
// that concurrent dispatchers rarely block handing over their lists,
// small enough to bound memory for runaway producers.
const queueDepth = 64

// ioSeg is one per-server segment of a logical operation: a server-local
// extent and a cursor into the operation's memory vector — the segment's
// bytes start at byte mo of Seg(mi) and run on through the following
// memory segments, n bytes in all. However many memory segments it
// spans, it is one request to its server.
type ioSeg struct {
	off    int64 // server-local offset
	n      int64
	mo     int64
	mi     int32
	server int32
}

// in returns the segment's bytes in buf, the contiguous memory (Contig)
// the segment list was built over.
func (s *ioSeg) in(buf []byte) []byte { return buf[s.mo : s.mo+s.n] }

// segErr is the failure of one segment, by submission index: a service
// error, or the raw error an injector refused the segment with, kept
// beside the segment (refused) and wrapped only where it is returned.
type segErr struct {
	idx     int
	err     error
	refused bool
	write   bool
	seg     ioSeg
}

// error returns the failure as the caller sees it: a refusal becomes an
// injectedFault naming its server, operation and range.
func (f *segErr) error() error {
	if !f.refused {
		return f.err
	}
	return &injectedFault{server: int(f.seg.server), write: f.write, off: f.seg.off, n: f.seg.n, err: f.err}
}

// batch is a dispatch's list for one server: the queue entry.
type batch struct {
	d    *dispatch
	idx  []int32 // the accepted segments bound for this server, in submission order
	left int     // not yet serviced; the worker's, once queued
}

// dispatch is one submission: the segments of a logical operation in
// submission order (which is the packed order of its memory vector),
// how they are to be submitted, and what became of them.
type dispatch struct {
	segs  []ioSeg
	mem   Vec
	write bool
	attr  bool // count the bytes as flush-sweep (write) or sieve-fetch (read) traffic
	// skip: a segment the injector refuses is skipped and submission goes
	// on (reads that can reconstruct); otherwise it ends the submission.
	skip bool

	batches []batch       // by server
	done    chan struct{} // one signal per queued batch; never blocks (cap = servers)
	// served marks the segments serviced without error, when the
	// submitter sized it (degraded reads): what a deadline may cut short.
	served []atomic.Bool
	mu     sync.Mutex // guards fails: workers of different servers append
	fails  []segErr
	stage  []byte // degraded reads: contiguous stand-in for a scattered vector
	// capture: a parity write. Each segment loads the bytes it is about
	// to overwrite into pre at its packed position at[i], under the same
	// server lock hold as its store (parity.go). pre and at keep their
	// capacity across submissions.
	capture bool
	pre     []byte
	at      []int64
	recon   *reconScratch // degraded reads' working memory, made on first use
	// grant[i], when grant is not empty and grant[i] > 0, is the hole
	// before segment i that its server may read through beyond the
	// per-pair rule, spent by submit out of the dispatch's hole budget.
	// A negative entry is a candidate hole that was not granted.
	grant []int64
}

// holeBudgetShare sets a read dispatch's hole budget: the holes granted
// beyond the per-pair rule sum to at most 1/holeBudgetShare of the
// dispatch's accepted payload. Time alone would grant nearly every
// candidate: under the benchmark's model a 64 KiB hole costs 0.26 ms
// of byte time against the 1.1 ms of seek and overhead it saves. What
// the share bounds is device bytes, as ROMIO bounds its sieve buffer
// per call. An eighth caps the worst case, holes on every server, at
// 9/8 of the payload. On the benchmark's unaligned section reads
// (section_mixed, seed 1: 54.4 simulated ms per op at 1.025 device
// bytes per payload byte without a budget) an eighth reads 46.2 ms at
// 1.077; granting every candidate, 45.4 ms at 1.242; a quarter, 45.5 ms
// at 1.152; a sixteenth, 49.4 ms at 1.045. An eighth buys nine tenths
// of the time for a quarter of the bytes.
const holeBudgetShare = 8

// maxIdle bounds a store's list of idle dispatches: enough for the
// callers a store sees at once, so a burst does not pin its slabs.
const maxIdle = 16

// newDispatch takes an idle dispatch, or makes one shaped for this
// store. The list is the store's own rather than a sync.Pool: a
// dispatch fits one server count, and its reuse is what the allocation
// pins in the tests count on, -race included.
func (fs *FS) newDispatch(mem Vec, write bool) *dispatch {
	var d *dispatch
	fs.idleMu.Lock()
	if n := len(fs.idle); n > 0 {
		d, fs.idle = fs.idle[n-1], fs.idle[:n-1]
	}
	fs.idleMu.Unlock()
	if d == nil {
		n := len(fs.servers)
		d = &dispatch{batches: make([]batch, n), done: make(chan struct{}, n)}
		for i := range d.batches {
			d.batches[i].d = d
		}
	}
	d.mem, d.write = mem, write
	return d
}

// release resets d and returns it to the idle list. Only for a dispatch
// whose batches have all signalled.
func (fs *FS) release(d *dispatch) {
	for i := range d.batches {
		d.batches[i].idx = d.batches[i].idx[:0]
	}
	clear(d.served)
	clear(d.fails)
	d.segs, d.served, d.fails = d.segs[:0], d.served[:0], d.fails[:0]
	d.grant = d.grant[:0]
	d.mem, d.write, d.attr, d.skip, d.capture = nil, false, false, false, false
	fs.idleMu.Lock()
	if len(fs.idle) < maxIdle {
		fs.idle = append(fs.idle, d)
	}
	fs.idleMu.Unlock()
}

// fail records the failure of segment i; refused marks an injector's
// refusal.
func (d *dispatch) fail(i int, err error, refused bool) {
	d.mu.Lock()
	d.fails = append(d.fails, segErr{idx: i, err: err, refused: refused, write: d.write, seg: d.segs[i]})
	d.mu.Unlock()
}

// settle records the outcome of segment i, once its service time has
// passed.
func (d *dispatch) settle(i int32, err error) {
	if err != nil {
		d.fail(int(i), err, false)
	} else if len(d.served) > 0 {
		d.served[i].Store(true)
	}
}

// finish takes n serviced requests of the batch off the server's
// count and, after the batch's last, signals the dispatcher — in that
// order, so a dispatcher that has all its signals reads settled counts.
// The worker must not touch the batch after that.
func (b *batch) finish(sv *server, n int) {
	sv.queued.Add(int64(-n))
	if b.left -= n; b.left == 0 {
		b.d.done <- struct{}{}
	}
}

// startQueues launches one service goroutine per server.
func (fs *FS) startQueues() {
	fs.queues = make([]chan *batch, len(fs.servers))
	for i, sv := range fs.servers {
		ch := make(chan *batch, queueDepth)
		fs.queues[i] = ch
		fs.qwg.Add(1)
		go func(sv *server, ch chan *batch) {
			defer fs.qwg.Done()
			sv.serve(ch)
		}(sv, ch)
	}
}

// stopQueues drains the queues and stops the workers. In-flight
// dispatchers still receive their completions: workers finish every
// queued batch before exiting.
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
func (sv *server) serve(ch chan *batch) {
	if sv.sched != Elevator {
		for b := range ch {
			sv.serveFIFO(b)
		}
		return
	}
	// Elevator: block for a batch only when nothing is pending, then
	// take in what was queued when the sweep starts — submit counts a
	// batch in queued before sending it, so the snapshot covers every
	// batch already on the channel — and sweep it all. Requests arriving
	// during a sweep wait for the next one: the frozen backlog is what
	// bounds bypass (no starvation). Once the channel is closed and
	// empty, what is pending is swept out and the loop ends.
	var pending []pend
	for open := true; open || len(pending) > 0; {
		if len(pending) == 0 {
			b, ok := <-ch
			if !ok {
				return
			}
			pending = admit(pending, b)
		}
		backlog := int(sv.queued.Load())
	drain:
		for open && len(pending) < backlog {
			select {
			case b, ok := <-ch:
				if open = ok; ok {
					pending = admit(pending, b)
				}
			default:
				break drain
			}
		}
		pending = sv.sweep(pending)
	}
}

// serveFIFO services a batch in submission order, one request at a
// time — a request being a segment, or a run of read segments the
// server reads through (readsThrough): execute, sleep the charged
// service time when the cost model is real-time (the server is busy —
// later requests wait, other servers keep serving), settle. The
// server's lock is held over the list, not taken per request — an
// atomic after every 260-byte copy waits for the copy's stores to
// drain — and only let go for a sleep.
func (sv *server) serveFIFO(b *batch) {
	d := b.d
	sv.mu.Lock()
	for k := 0; k < len(b.idx); {
		j := k + 1
		for j < len(b.idx) && sv.readsThrough(&d.segs[b.idx[j-1]], &d.segs[b.idx[j]], d.write, d.grantOf(b.idx[j])) {
			j++
		}
		run := b.idx[k:j]
		first, last := &d.segs[run[0]], &d.segs[run[len(run)-1]]
		dur := sv.charge(last.off+last.n-first.off, first.off, d.write)
		// A run that sleeps its service time settles after the sleep,
		// from the outcomes kept in errs.
		sleep := sv.cost.RealTime && dur > 0
		errs := sv.errs[:0]
		var moved int64
		for _, i := range run {
			if err := sv.moveLocked(d, i); sleep {
				errs = append(errs, err)
			} else {
				d.settle(i, err)
			}
			moved += d.segs[i].n
		}
		if d.attr {
			sv.attribute(moved, d.write)
		}
		if sleep {
			sv.errs = nil // errs stays this run's while the lock is let go
			sv.mu.Unlock()
			time.Sleep(dur)
			sv.mu.Lock()
			for g, i := range run {
				d.settle(i, errs[g])
			}
			clear(errs)
			sv.errs = errs[:0]
		}
		k = j
	}
	sv.mu.Unlock()
	b.finish(sv, len(b.idx))
}

// readsThrough reports whether segment s, served right after p on this
// server, joins p's request because the server reads through the hole
// of g = s.off − (p.off+p.n) > 0 bytes between them instead of seeking
// over it. Both must be reads. The hole is read through when it is at
// most grant, the hole submit granted s out of its dispatch's budget
// (≤ 0: none), or by the per-pair rule: there is a seek to save, the
// hole costs less than the seek and request overhead it saves, and it
// is at most half of each neighbour — so the per-pair holes of a read
// list never move more than 1.5× its payload off the device.
func (sv *server) readsThrough(p, s *ioSeg, write bool, grant int64) bool {
	g := s.off - (p.off + p.n)
	return !write && g > 0 && (g <= grant || 2*g <= min(p.n, s.n) && pays(sv.cost, g))
}

// pays reports whether reading through a g-byte hole costs less than
// the seek and request overhead it saves.
func pays(c CostModel, g int64) bool {
	return c.SeekLatency > 0 && time.Duration(g)*c.ByteTime < c.SeekLatency+c.RequestOverhead
}

// grantOf returns the hole granted segment i out of the budget, ≤ 0
// when none was.
func (d *dispatch) grantOf(i int32) int64 {
	if len(d.grant) == 0 {
		return 0
	}
	return d.grant[i]
}

// grantHoles spends budget on the candidate holes, each entered in
// d.grant as its size negated, which sum to want: smallest first, ties
// in submission order, while their sum stays within budget. A grant
// turns the entry positive. When the budget does not cover them all,
// each pass grants the candidates of the smallest size left, in
// submission order: an op's holes come in a handful of sizes (at most
// four per op on the benchmark's workloads), so a few linear passes
// cost less than a sort, and the first hole that does not fit ends
// them all.
func (d *dispatch) grantHoles(budget, want int64) {
	grant := d.grant
	if want <= budget {
		for i, g := range grant {
			if g < 0 {
				grant[i] = -g
			}
		}
		return
	}
	for {
		var m int64 // the smallest candidate left
		for _, g := range grant {
			if g < 0 && (m == 0 || -g < m) {
				m = -g
			}
		}
		if m == 0 {
			return
		}
		for i, g := range grant {
			if g == -m {
				if m > budget {
					return
				}
				budget -= m
				grant[i] = m
			}
		}
	}
}

// pend is one request pending at an elevator.
type pend struct {
	b   *batch
	i   int32
	err error
}

func (p *pend) seg() *ioSeg { return &p.b.d.segs[p.i] }

// admit appends a batch's requests to the pending list.
func admit(pending []pend, b *batch) []pend {
	for _, i := range b.idx {
		pending = append(pending, pend{b: b, i: i})
	}
	return pending
}

// moveLocked moves segment i of d between the backend and its memory,
// which may continue over several segments of the vector. Must be
// called with sv.mu held.
func (sv *server) moveLocked(d *dispatch, i int32) error {
	s := &d.segs[i]
	off, n, mo := s.off, s.n, s.mo
	if d.capture {
		if err := sv.loadLocked(d.pre[d.at[i]:d.at[i]+n], off); err != nil {
			return err
		}
	}
	for mi := int(s.mi); n > 0; mi, mo = mi+1, 0 {
		p := d.mem.Seg(mi)[mo:]
		if int64(len(p)) > n {
			p = p[:n]
		}
		var err error
		if d.write {
			err = sv.storeLocked(p, off)
		} else {
			err = sv.loadLocked(p, off)
		}
		if err != nil {
			return err
		}
		off, n = off+int64(len(p)), n-int64(len(p))
	}
	return nil
}

// sweep services the frozen requests as a single ascending C-SCAN sweep
// and returns the emptied list: requests sort by server-local offset
// (stable, so requests at the same offset keep arrival order), and each
// maximal group of same-direction segments that touch, or that the
// server reads through (readsThrough), is serviced as one streamed
// request — one charge over its span (at most one seek, one request
// overhead, byte time for the whole stream), then the per-segment data
// movement. Each request is settled after its group has been serviced.
func (sv *server) sweep(frozen []pend) []pend {
	slices.SortStableFunc(frozen, func(a, b pend) int { return cmp.Compare(a.seg().off, b.seg().off) })
	for i := 0; i < len(frozen); {
		j, write := i+1, frozen[i].b.d.write
		for j < len(frozen) && frozen[j].b.d.write == write {
			p, s := frozen[j-1].seg(), frozen[j].seg()
			// A grant is spent only behind a segment of its own
			// dispatch: however sweeps interleave callers, each
			// dispatch's holes stay within its own budget.
			var grant int64
			if frozen[j-1].b == frozen[j].b {
				grant = frozen[j].b.d.grantOf(frozen[j].i)
			}
			if s.off != p.off+p.n && !sv.readsThrough(p, s, write, grant) {
				break
			}
			j++
		}
		var attributed int64
		first, last := frozen[i].seg(), frozen[j-1].seg()
		sv.mu.Lock()
		dur := sv.charge(last.off+last.n-first.off, first.off, write)
		for k := i; k < j; k++ {
			r := &frozen[k]
			r.err = sv.moveLocked(r.b.d, r.i)
			if r.b.d.attr {
				attributed += r.seg().n
			}
		}
		if attributed > 0 {
			sv.attribute(attributed, write)
		}
		sv.mu.Unlock()
		if sv.cost.RealTime && dur > 0 {
			time.Sleep(dur)
		}
		for ; i < j; i++ {
			frozen[i].b.d.settle(frozen[i].i, frozen[i].err)
			frozen[i].b.finish(sv, 1)
		}
	}
	clear(frozen) // no batch stays reachable from the list's spare capacity
	return frozen[:0]
}

// submit is the one way requests reach a server. It sorts d's segments
// into per-server batches (accept); then every server used gets its
// batch — on its queue, or serviced right here once Close has stopped
// the workers — and submit waits for one signal per batch. It returns
// how many batches were still outstanding when the deadline (0: none)
// passed: until that many more signals arrive on d.done, d still
// belongs to the servers.
func (fs *FS) submit(d *dispatch, deadline time.Duration) int {
	fs.accept(d)
	used := 0
	fs.qmu.RLock()
	inline := fs.qclosed || fs.queues == nil
	for s := range d.batches {
		b := &d.batches[s]
		if b.left = len(b.idx); b.left == 0 {
			continue
		}
		used++
		fs.servers[s].queued.Add(int64(b.left))
		if !inline {
			fs.queues[s] <- b
		}
	}
	fs.qmu.RUnlock()
	for s := 0; inline && s < len(d.batches); s++ {
		if b := &d.batches[s]; b.left > 0 {
			// The post-Close fallback: the caller runs the server's own
			// loop over a queue holding just this batch, so discipline,
			// lastEnd state and accounting are the queued path's.
			ch := make(chan *batch, 1)
			ch <- b
			close(ch)
			fs.servers[s].serve(ch)
		}
	}
	var timeout <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timeout = t.C
	}
	for ; used > 0; used-- {
		select {
		case <-d.done:
		case <-timeout:
			// Whatever is still outstanding is a straggler's; its batch
			// completes into d eventually (done never blocks a worker).
			return used
		}
	}
	return 0
}

// accept consults the injector once per segment, in submission order,
// before anything is queued: a refused segment "never reached a server"
// and is recorded in d.fails; unless d.skip, it also ends the
// submission — the accepted prefix still goes out. The accepted
// segments are bucketed by server (submission order kept inside a
// server), and a read's holes between consecutive segments of one
// server's list are granted out of its budget (grantHoles).
func (fs *FS) accept(d *dispatch) {
	inj := fs.inj.Load()
	c := fs.opts.Cost
	sieve := !d.write && c.SeekLatency > 0
	var payload, want int64
	for i := range d.segs {
		s := &d.segs[i]
		if err := inj.fail(int(s.server), d.write, s.off, s.n); err != nil {
			d.fail(i, err, true)
			if d.skip {
				continue
			}
			break
		}
		b := &d.batches[s.server]
		if sieve {
			// A candidate for the budget: a hole the per-pair rule
			// refuses, no larger than either neighbour, that pays.
			payload += s.n
			if k := len(b.idx); k > 0 {
				p := &d.segs[b.idx[k-1]]
				g, m := s.off-(p.off+p.n), min(p.n, s.n)
				if g > 0 && 2*g > m && g <= m && pays(c, g) {
					if want == 0 {
						clear(grow(&d.grant, len(d.segs)))
					}
					d.grant[i] = -g
					want += g
				}
			}
		}
		b.idx = append(b.idx, int32(i))
	}
	if want > 0 {
		d.grantHoles(payload/holeBudgetShare, want)
	}
}

// dispatch runs d's segments through the servers, waits for them and
// recycles d. The returned error is the earliest failure in submission
// order (injection or service), so serial callers observe the same error
// they always did; with it comes the byte count of the segments that
// precede that failure.
func (fs *FS) dispatch(d *dispatch) (int64, error) {
	// With parity configured, reads take the degraded-capable path: a
	// segment that fails (injection or service error), exceeds the
	// straggler deadline, or targets an avoided slow server is
	// reconstructed from the other servers instead of failing the call.
	if fs.code != nil && !d.write {
		return fs.dispatchDegraded(d)
	}
	defer fs.release(d)
	fs.submit(d, 0)
	return d.outcome()
}

// outcome reports a submitted dispatch's earliest failure in submission
// order and the bytes of the segments ahead of it.
func (d *dispatch) outcome() (int64, error) {
	if len(d.fails) == 0 {
		return 0, nil
	}
	first := d.fails[0]
	for _, f := range d.fails[1:] {
		if f.idx < first.idx {
			first = f
		}
	}
	return d.bytesBefore(first.idx), first.error()
}

// bytesBefore returns the bytes of the segments preceding segment i.
func (d *dispatch) bytesBefore(i int) (n int64) {
	for _, s := range d.segs[:i] {
		n += s.n
	}
	return n
}
