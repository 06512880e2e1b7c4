// queue.go gives every simulated I/O server its own request queue: a
// dedicated service goroutine draining a channel, the way each PVFS2
// server daemon services its own request stream — and, as in PVFS
// list I/O, what travels on the queue is a list. One logical FS
// operation splits into per-server segments (one per stripe unit it
// touches, each a charged request unless its server joins it into a
// run), and a queue entry is the operation's whole list for that
// server: submit hands every server it uses one batch and waits for
// one signal per batch, so the program pays a scheduler round-trip
// per (call, server), not per 260-byte piece, while the device model
// still sees — and charges — every request. Service times overlap
// across servers (the caller pays max-per-server, not the sum); each
// server services one request at a time. CostModel.RealTime sleeps
// inside the server loop (the server is busy; its queue backs up),
// not in the caller.
//
// Each server has one service loop (serve): it takes what one sweep
// services and walks it in order, one request per run of segments.
// The Options.Scheduler knob decides only what a sweep takes. FIFO
// takes the next list alone, in submission order. Elevator freezes
// everything queued when a sweep starts — so one call's list is swept
// whole — and sorts it into one ascending C-SCAN sweep, so a sweep
// charges one seek per discontinuity instead of one per request.
//
// A run is a stretch of same-direction segments that touch, or that
// lie a hole apart that their operation granted (readsThrough): the
// server reads through the hole instead of seeking over it — data
// sieving, done on the server. A run of touching segments is one
// streamed request. A read run is charged as one request over its
// span, holes included (one overhead, at most one seek). A write run
// through holes is a read-modify-write, as ROMIO's write sieving, but
// with no file lock to take, since the server holds its own list
// under one lock: one read of the run's interior, from the end of its
// first segment to the start of its last, then one write of its whole
// span. Either way only the segments' bytes move, so hole bytes never
// reach memory and a write leaves its holes exactly as its read found
// them (a lent hole, below, is a segment). One rule grants holes in
// both directions: submit sees every server's list of a dispatch,
// takes every hole between consecutive segments of one server's list
// that pays (its byte time is less than the seek and request overhead
// it saves), and grants them cheapest first out of a budget of the
// dispatch's payload: 1/4 for reads (holeBudgetShare), 1/10 for writes
// (writeBudgetShare). A read hole costs its own bytes; a write hole
// costs them twice, read and written, plus the segment behind it,
// which the read leg passes over. A write run joins at least two
// holes, since a run of two saves no request, and its read leg is a
// read request the injector sees: a refused leg leaves the run as
// plain writes. No run reads through a segment the injector refused:
// the run stops there.
//
// A write with a hole source (WriteVecFrom: a write through a handle
// with a cache) has a cheaper way through a hole that the source
// covers: the source lends the hole's current bytes, which the write
// stores back with its own. Such a hole costs the budget its own
// bytes, as a read's does. Once granted it is put to the injector as a
// write and lent into the dispatch's slab, and it becomes a write
// segment of its own (lentSeg) between the two it joins, so segment,
// hole and segment touch and are one request, with no read leg. A hole
// the source does not cover keeps the read-modify-write.
//
// A degraded read (parity.go) takes a refused segment's reconstruction
// sources into its own dispatch the same way (foldSources): a source
// that a segment of the read holds is taken from its bytes, and each
// other becomes a read segment of its own, its bytes in the slab,
// merged into its server's list in offset order before the holes are
// priced. The read's segments then join it by the same rules, and a
// read segment overlapping another of its dispatch joins its request,
// charged to the furthest end.
//
// The state of one submission (segments, batches, outcomes) is a
// pooled dispatch, back on its store's idle list once every batch has
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

// segErr is the failure of segment seg, counted against the submitted
// segment idx, its owner: a service error, or the raw error an injector
// refused seg with, kept beside it (refused) and wrapped only where it
// is returned.
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
	end  int64   // where the last of them ends (accept's)
	left int     // not yet serviced; the worker's, once queued
	// refused: the injector refused a segment for this server since the
	// last one accepted (accept's): the hole before the next one it
	// accepts is no candidate, since a refused range never reaches its
	// server.
	refused bool
}

// dispatch is one submission: the segments of a logical operation in
// submission order (which is the packed order of its memory vector),
// how they are to be submitted, and what became of them.
type dispatch struct {
	segs  []ioSeg
	mem   Vec
	write bool
	sieve bool // count a read's bytes as sieve-fetch traffic
	// fold: a pass of a degraded read, the read itself or a rebuild's
	// fetches for it; accept skips a refused segment and goes on, and
	// plans the sources of the read's lost segments (foldSources).
	fold *dispatch

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
	// grant[i], when grant is not empty and grant[i] > 0, is what the
	// hole before segment i cost the dispatch's hole budget: the server
	// reads through that hole. A negative entry is a candidate that was
	// not granted. Empty when the store has no seek to save.
	grant []int64
	// src lends a write the bytes of its holes (WriteVecFrom); nil on
	// reads, parity stores and cacheless writes. lendable[i] marks the hole
	// before segment i as one src covered when accept priced it. A lent
	// hole becomes a write segment of its own, appended to segs with its
	// bytes in slab (lentSeg), as does a degraded read's source fetch.
	// lruns (holeRuns') and idxTmp (lendHoles', foldSources') are
	// scratch.
	src      HoleSource
	lendable []bool
	slab     []byte
	lruns    []Run
	idxTmp   []int32
}

// HoleSource lends a write the bytes that already lie in the holes
// between its segments on a server, so that the server stores segment,
// hole and segment as one write request, with no read leg. A write
// dispatch takes the source's lock once around its Covers calls and
// once around its Lend calls; a hole covered when priced may be
// refused when lent. Both methods take a hole as its logical runs,
// which they must not keep.
type HoleSource interface {
	sync.Locker
	// Covers reports whether Lend would lend the runs.
	Covers(runs []Run) bool
	// Lend copies the runs' current bytes, packed back-to-back, into p
	// and holds them for the write until it ends, so that the bytes the
	// write stores over the hole are the ones already there. It reports
	// false, and lends nothing, when it cannot.
	Lend(runs []Run, p []byte) bool
}

// lentSeg is the segment of a hole that d's source lent, its bytes at
// slab offset at; owner is the segment behind the hole, whose grant it
// took and against which its failure counts. On a degraded read's pass
// it is a reconstruction source fetched for the read's lost segment
// owner, its bytes read into the slab. A slab segment's mi is negative,
// which is how moveLocked and owner tell it apart.
func lentSeg(server int, off, n, at int64, owner int32) ioSeg {
	return ioSeg{server: int32(server), off: off, n: n, mo: at, mi: -1 - owner}
}

// owner returns the submitted segment a failure of segment i counts
// against: i itself, for a lent hole the segment behind it, and for a
// degraded read's source fetch the read's segment it rebuilds.
func (d *dispatch) owner(i int32) int {
	if mi := d.segs[i].mi; mi < 0 {
		return int(-1 - mi)
	}
	return int(i)
}

// holeBudgetShare sets a read dispatch's hole budget: the holes its
// servers read through sum to at most 1/holeBudgetShare of the
// dispatch's accepted payload. Time alone would grant nearly every
// candidate: under the benchmark's model a 64 KiB hole costs 0.26 ms
// of byte time against the 1.1 ms of seek and overhead it saves. What
// the share bounds is device bytes, as ROMIO bounds its sieve buffer
// per call. Every grant saves one request at the price of its own
// bytes, so cheapest first is the most requests for the bytes. On the
// benchmark's unaligned sections (section_mixed, seed 1, writes at
// writeBudgetShare) the share trades time for bytes as
//
//	share  sim ms/op  dev B/B
//	1/8    35.8       1.116
//	1/6    30.9       1.144
//	1/4    23.9       1.198
//	1/3    20.3       1.251
//
// A third moves 12.6 % more device bytes than an eighth, past the
// benchmark's 12 % bound on them; a quarter leaves room for writes.
const holeBudgetShare = 4

// writeBudgetShare sets a write dispatch's hole budget, 1/writeBudgetShare
// of its accepted payload. A write hole costs its bytes twice, read and
// written, plus the segment behind it, which the read leg passes over,
// and joins only in a run of at least two; one its source lends costs
// its own bytes and joins alone. A store that sees only writes is the
// worst case for the device bytes: serve_mixed's cache absorbs every
// read, so all of its device traffic is writes. Seed 1, reads at
// holeBudgetShare, read-modify-write only, and at 1/10 with the holes
// serve_mixed's cache covers lent (section_mixed has no cache):
//
//	share        section_mixed        serve_mixed
//	             sim ms/op  dev B/B   sim ms/op  dev B/B
//	none         26.7       1.171     9.88       0.161
//	1/16         24.9       1.188     9.66       0.169
//	1/10         23.9       1.198     9.48       0.175
//	1/8          23.2       1.205     9.36       0.179
//	1/10, lent   23.9       1.198     7.17       0.177
//
// A tenth keeps the write-only store's device bytes within 9 % of
// plain writes; an eighth takes them past 11 %. Lent holes spend the
// same tenth on more holes for less time: serve_mixed drops from 34.4
// to 26.0 requests per op for 0.9 % more device bytes.
const writeBudgetShare = 10

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
		d.batches[i].idx, d.batches[i].refused = d.batches[i].idx[:0], false
	}
	clear(d.served)
	clear(d.fails)
	d.segs, d.served, d.fails = d.segs[:0], d.served[:0], d.fails[:0]
	d.grant, d.lendable, d.slab = d.grant[:0], d.lendable[:0], d.slab[:0]
	d.mem, d.write, d.sieve, d.fold, d.capture, d.src = nil, false, false, nil, false, nil
	fs.idleMu.Lock()
	if len(fs.idle) < maxIdle {
		fs.idle = append(fs.idle, d)
	}
	fs.idleMu.Unlock()
}

// fail records the failure of segment i against its owner; refused
// marks an injector's refusal.
func (d *dispatch) fail(i int32, err error, refused bool) {
	d.mu.Lock()
	d.fails = append(d.fails, segErr{idx: d.owner(i), err: err, refused: refused, write: d.write, seg: d.segs[i]})
	d.mu.Unlock()
}

// finish takes n serviced requests off the batch and, after its last,
// takes the batch off the server's count and signals the dispatcher —
// in that order, so a dispatcher that has all its signals reads settled
// counts. The send never blocks (done has room for a signal per batch),
// so a sweep makes it under the server's lock. The worker must not
// touch the batch after that.
func (b *batch) finish(sv *server, n int) {
	if b.left -= n; b.left == 0 {
		sv.queued.Add(int64(-len(b.idx)))
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

// serve is one server's service loop, for both disciplines: block for a
// batch, take in what one sweep services, sweep it. FIFO sweeps that
// batch alone. The elevator takes in what was queued when the sweep
// starts — submit counts a batch in queued before sending it, so the
// snapshot covers every batch already on the channel — and sorts it by
// server-local offset (stable, so requests at the same offset keep
// arrival order). Requests arriving during a sweep wait for the next
// one: the frozen backlog is what bounds bypass (no starvation). Once
// the channel is closed and empty, the loop ends.
func (sv *server) serve(ch chan *batch) {
	var frozen []pend
	for b := range ch {
		frozen = admit(frozen, b)
		if sv.sched == Elevator {
		drain:
			for backlog := int(sv.queued.Load()); len(frozen) < backlog; {
				select {
				case b, ok := <-ch:
					if !ok {
						break drain
					}
					frozen = admit(frozen, b)
				default:
					break drain
				}
			}
			slices.SortStableFunc(frozen, byOffset)
		}
		frozen = sv.sweep(frozen)
	}
}

// chargeRun charges the request that serves the segments first through
// last of one server's list, reaching end, and returns its service
// time: one request over the span, holes included. A write run joined
// through holes (rmw) is a read-modify-write and two requests: a read of
// its interior, from the end of its first segment to the start of its
// last, then a write of its whole span. Must be called with sv.mu held.
func (sv *server) chargeRun(first, last *ioSeg, end int64, write, rmw bool) time.Duration {
	var dur time.Duration
	if rmw {
		at := first.off + first.n
		dur = sv.charge(last.off-at, at, false)
	}
	return dur + sv.charge(end-first.off, first.off, write)
}

// pays reports whether reading through a g-byte hole costs less than
// the seek and request overhead it saves.
func pays(c CostModel, g int64) bool {
	return c.SeekLatency > 0 && time.Duration(g)*c.ByteTime < c.SeekLatency+c.RequestOverhead
}

// grantHoles spends budget on the candidate holes, each entered in
// d.grant as its cost negated, which sum to want: cheapest first, ties
// in submission order, while their sum stays within budget. A grant
// turns the entry positive. It neither sorts nor allocates: when the
// budget does not cover them all, each pass grants the candidates of
// the lowest cost left, in submission order — an op's holes come in a
// handful of sizes, so a few linear passes cost less than a sort — and
// the first that does not fit ends them all.
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
		var m int64 // the cheapest candidate left
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

// pend is one request of a sweep: segment i of b's dispatch, s. failed
// marks one whose move failed, in the dispatch's fails already.
type pend struct {
	s      *ioSeg
	b      *batch
	i      int32
	failed bool
}

// byOffset orders an elevator's sweep: by server-local offset.
func byOffset(a, b pend) int { return cmp.Compare(a.s.off, b.s.off) }

// admit appends a batch's requests to the pending list.
func admit(pending []pend, b *batch) []pend {
	segs := b.d.segs
	for _, i := range b.idx {
		pending = append(pending, pend{s: &segs[i], b: b, i: i})
	}
	return pending
}

// moveLocked moves segment i of d between the backend and its memory,
// which may continue over several segments of the vector. Must be
// called with sv.mu held.
func (sv *server) moveLocked(d *dispatch, i int32) error {
	s := &d.segs[i]
	off, n, mo := s.off, s.n, s.mo
	if s.mi < 0 {
		if d.write {
			return sv.storeLocked(d.slab[mo:mo+n], off)
		}
		return sv.loadLocked(d.slab[mo:mo+n], off)
	}
	if d.capture {
		if err := sv.parityLoadLocked(d.pre[d.at[i]:d.at[i]+n], off); err != nil {
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

// sweep services the frozen requests in order and returns the emptied
// list. Each run of them that span joins is one request: execute — one
// charge over its span (chargeRun: at most one seek, one request
// overhead, byte time for the whole stream; a read first for a write
// run joined through holes), then the per-segment data movement — sleep
// the charged service time when the cost model is real-time (the server
// is busy: later requests wait, other servers keep serving), then mark
// the run's segments served. Each batch in the run is signalled once,
// as soon as the run settles its last request. The server's lock is
// held over the sweep, not taken per request, and only let go for a
// sleep.
func (sv *server) sweep(frozen []pend) []pend {
	sv.mu.Lock()
	for i := 0; i < len(frozen); {
		j, end, rmw := span(frozen, i)
		write := frozen[i].b.d.write
		dur := sv.chargeRun(frozen[i].s, frozen[j-1].s, end, write, rmw)
		var attributed int64
		for k := i; k < j; k++ {
			r, d := &frozen[k], frozen[k].b.d
			if err := sv.moveLocked(d, r.i); err != nil {
				d.fail(r.i, err, false)
				r.failed = true
			}
			if d.sieve && r.s.mi >= 0 { // a degraded read's source fetch is no sieve traffic
				attributed += r.s.n
			}
		}
		if attributed > 0 {
			sv.attribute(attributed)
		}
		if sv.cost.RealTime && dur > 0 {
			sv.mu.Unlock()
			time.Sleep(dur)
			sv.mu.Lock()
		}
		for i < j {
			b, n := frozen[i].b, 0
			for ; i < j && frozen[i].b == b; i, n = i+1, n+1 {
				if len(b.d.served) > 0 && !frozen[i].failed {
					b.d.served[frozen[i].i].Store(true)
				}
			}
			b.finish(sv, n)
		}
	}
	sv.mu.Unlock()
	clear(frozen) // no batch stays reachable from the list's spare capacity
	return frozen[:0]
}

// span returns the end j of the request of a sweep that starts at
// frozen[i], the server-local offset the request reaches, and whether it
// is a write run joined through holes (a read-modify-write). A read
// request takes every following read that joinsRead it, and reaches the
// furthest end of its segments. A write request is either a run through
// granted holes, two at least, or a stream of writes that touch, which
// stops short of a segment that opens such a run, so the run is served
// from its first segment, the one its grants were priced from.
func span(frozen []pend, i int) (j int, end int64, rmw bool) {
	j = i + 1
	first := frozen[i].s
	if !frozen[i].b.d.write {
		end = first.off + first.n
		for ; j < len(frozen) && joinsRead(frozen, j, first.off, end); j++ {
			end = max(end, frozen[j].s.off+frozen[j].s.n)
		}
		return j, end, false
	}
	for j < len(frozen) && readsThrough(frozen, j) {
		j++
	}
	if j-i > 2 {
		return j, frozen[j-1].s.off + frozen[j-1].s.n, true
	}
	j = i + 1
	for j < len(frozen) && touches(frozen, j) && (j+1 == len(frozen) || !readsThrough(frozen, j+1)) {
		j++
	}
	return j, frozen[j-1].s.off + frozen[j-1].s.n, false
}

// joinsRead reports whether the read frozen[k] joins the read request
// whose segments so far start at start and reach end: it starts at end,
// or it belongs to the same list as frozen[k-1] and either starts inside
// the request (the segments of one dispatch overlap: a degraded read's
// source fetch and a segment of its own) or lies a hole past end that
// its dispatch granted. Without overlaps, end is frozen[k-1]'s end, and
// this is touches or readsThrough.
func joinsRead(frozen []pend, k int, start, end int64) bool {
	r := &frozen[k]
	switch {
	case r.b.d.write:
		return false
	case r.s.off == end:
		return true
	case frozen[k-1].b != r.b:
		return false
	case r.s.off < end:
		return r.s.off >= start
	}
	grant := r.b.d.grant
	return len(grant) > 0 && r.s.off-end <= grant[r.i]
}

// touches reports whether frozen[k] starts where frozen[k-1] ends, in
// the same direction.
func touches(frozen []pend, k int) bool {
	p, s := frozen[k-1].s, frozen[k].s
	return frozen[k].b.d.write == frozen[k-1].b.d.write && s.off == p.off+p.n
}

// readsThrough reports whether the server reads through the hole of
// g = s.off − (p.off+p.n) > 0 bytes between p = frozen[k-1] and
// s = frozen[k] instead of seeking over it: s's dispatch granted that
// hole out of its budget (a grant covers its whole hole), and p belongs
// to the same dispatch — however sweeps interleave callers, each
// dispatch's holes stay within its own budget.
func readsThrough(frozen []pend, k int) bool {
	p, s, b := frozen[k-1].s, frozen[k].s, frozen[k].b
	g := s.off - (p.off + p.n)
	return frozen[k-1].b == b && g > 0 && len(b.d.grant) > 0 && g <= b.d.grant[frozen[k].i]
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
// and is recorded in d.fails; unless d is a degraded read's pass, it
// also ends the submission — the accepted prefix still goes out, and in
// such a pass the hole before the next segment its server accepts is no
// candidate. The accepted segments are bucketed by server (submission
// order kept inside a server). The read's lost segments then get their
// reconstruction sources as segments of their own (foldSources). Every
// hole between consecutive segments of one server's list that pays is a
// candidate for the dispatch's budget (priceWrites, grantHoles). A
// write's grants then become lent segments (lendHoles) or runs
// (joinWrites), whose holes and read legs the injector sees after the
// segments.
func (fs *FS) accept(d *dispatch) {
	inj := fs.inj.Load()
	c := fs.opts.Cost
	share := int64(holeBudgetShare)
	if d.write {
		share = writeBudgetShare
	}
	var grant []int64
	if c.SeekLatency > 0 {
		grant = grow(&d.grant, len(d.segs))
		clear(grant)
	}
	var payload, want int64
	for i := range d.segs {
		s := &d.segs[i]
		b := &d.batches[s.server]
		if err := inj.fail(int(s.server), d.write, s.off, s.n); err != nil {
			d.fail(int32(i), err, true)
			if d.fold != nil {
				b.refused = true
				continue
			}
			break
		}
		if grant != nil {
			payload += s.n
			if g := s.off - b.end; len(b.idx) > 0 && !b.refused && g > 0 && pays(c, g) {
				grant[i] = -g
				want += g
			}
		}
		b.refused = false
		b.idx = append(b.idx, int32(i))
		b.end = s.off + s.n
	}
	if d.fold != nil {
		payload, want = fs.foldSources(d, inj, payload, want)
	}
	if want == 0 {
		return
	}
	if d.write {
		want = fs.priceWrites(d)
	}
	d.grantHoles(payload/share, want)
	if d.src != nil {
		fs.lendHoles(d, inj)
	}
	if d.write {
		d.joinWrites(inj)
	}
}

// priceWrites sets the cost of each candidate hole of a write, entered
// in d.grant as its bytes g negated, and returns their sum. A hole the
// source covers is lendable and costs g. Any other is a read-modify-
// write's: 2g + the segment behind it, since the read leg passes over
// that segment and the hole is read and written. The source is locked
// once over all of its Covers calls.
func (fs *FS) priceWrites(d *dispatch) (want int64) {
	if d.src != nil {
		clear(grow(&d.lendable, len(d.segs)))
		d.src.Lock()
		defer d.src.Unlock()
	}
	for s := range d.batches {
		idx := d.batches[s].idx
		for k := 1; k < len(idx); k++ {
			i := idx[k]
			g := -d.grant[i]
			if g == 0 {
				continue
			}
			if p := &d.segs[idx[k-1]]; d.src != nil && d.src.Covers(fs.holeRuns(d, int32(s), p.off+p.n, g)) {
				d.lendable[i] = true
			} else {
				g = 2*g + d.segs[i].n
			}
			d.grant[i] = -g
			want += g
		}
	}
	return want
}

// holeRuns returns the logical runs of the g bytes at server-local
// offset off of server s, one per stripe unit: the inverse of locate.
// Only a store without parity takes a hole source, so every unit here
// is a data unit. They live in d's scratch until the next call.
func (fs *FS) holeRuns(d *dispatch, s int32, off, g int64) []Run {
	stripe, k := fs.opts.StripeSize, int64(fs.dataServers())
	runs := d.lruns[:0]
	for g > 0 {
		row, within := off/stripe, off%stripe
		take := min(stripe-within, g)
		runs = append(runs, Run{Off: (row*k+int64(fs.shardOf(row, int(s))))*stripe + within, Len: take})
		off, g = off+take, g-take
	}
	d.lruns = runs
	return runs
}

// lentHoles calls fn with each granted lendable hole of d, server by
// server in list order: its server, the segment i behind it, and its
// server-local offset and bytes.
func (d *dispatch) lentHoles(fn func(s int, i int32, off, g int64)) {
	for s := range d.batches {
		idx := d.batches[s].idx
		for k := 1; k < len(idx); k++ {
			if i := idx[k]; d.grant[i] > 0 && d.lendable[i] {
				p := &d.segs[idx[k-1]]
				fn(s, i, p.off+p.n, d.segs[i].off-p.off-p.n)
			}
		}
	}
}

// lendHoles turns each granted hole that the source covered into a
// write segment of its own. The injector sees the holes first, as
// writes; a hole it refuses stays a hole, its grant spent. Then, under
// one lock of the source, each hole's bytes are lent into d's slab and
// its segment goes into its server's list between the two it joins.
// The three touch, so the server stores them as one request. A hole
// the source has stopped covering since it was priced stays a hole.
func (fs *FS) lendHoles(d *dispatch, inj *injBox) {
	var lend int
	d.lentHoles(func(s int, i int32, off, g int64) {
		if inj.fail(s, true, off, g) != nil {
			d.grant[i] = 0
		} else {
			lend++
		}
	})
	if lend == 0 {
		return
	}
	n := len(d.segs)
	d.src.Lock()
	d.lentHoles(func(s int, i int32, off, g int64) {
		d.grant[i] = 0 // no hole is left to read through
		at := int64(len(d.slab))
		d.slab = slices.Grow(d.slab, int(g))[:at+g]
		if d.src.Lend(fs.holeRuns(d, int32(s), off, g), d.slab[at:]) {
			d.segs = append(d.segs, lentSeg(s, off, g, at, i))
		} else {
			d.slab = d.slab[:at]
		}
	})
	d.src.Unlock()
	for range len(d.segs) - n {
		d.grant = append(d.grant, 0)
	}
	// Each lent segment goes in front of its owner in its server's list.
	for j := n; j < len(d.segs); {
		b := &d.batches[d.segs[j].server]
		out := d.idxTmp[:0]
		for _, i := range b.idx {
			if j < len(d.segs) && d.owner(int32(j)) == int(i) {
				out = append(out, int32(j))
				j++
			}
			out = append(out, i)
		}
		b.idx, d.idxTmp = out, b.idx
	}
}

// joinWrites keeps the grants of a write dispatch that join runs worth
// serving as a read-modify-write. A run is a stretch of one server's
// list whose holes were all granted. One that joins a single hole keeps
// plain writes, since its read leg costs the request the join saves; a
// longer one has its read leg, a read of the run's interior, put to
// the injector. A refused leg leaves its run as plain writes and is no
// failure of the dispatch.
func (d *dispatch) joinWrites(inj *injBox) {
	for s := range d.batches {
		idx := d.batches[s].idx
		for k := 1; k < len(idx); k++ {
			if d.grant[idx[k]] <= 0 {
				continue
			}
			j := k + 1
			for j < len(idx) && d.grant[idx[j]] > 0 {
				j++
			}
			first, last := &d.segs[idx[k-1]], &d.segs[idx[j-1]]
			at := first.off + first.n
			if j-k < 2 || inj.fail(s, false, at, last.off-at) != nil {
				for _, i := range idx[k:j] {
					d.grant[i] = 0
				}
			}
			k = j
		}
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
