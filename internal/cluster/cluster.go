// Package cluster is the SPMD runtime standing in for MPI-2 in this
// reproduction. A "process" is a goroutine executing the user's rank
// function; a Comm carries rank/size plus point-to-point messaging with
// tags and the collective operations DRX-MP needs (barrier, broadcast,
// gather, allgather, allreduce and the sparse all-to-all of two-phase
// I/O). There is one communicator per world, so a rank is its world
// rank.
//
// Semantics follow MPI where it matters to the paper's library:
//
//   - Messages between a pair of ranks with the same tag are
//     non-overtaking (FIFO mailboxes with in-order matching).
//   - Receives match on (source, tag).
//   - Collectives must be called by every rank of the communicator in
//     the same order (the usual SPMD contract); each call is sequence-
//     numbered internally so adjacent collectives never cross-talk.
//
// Sends are buffered (never block); receives block until a matching
// message arrives. Run collects per-rank errors and converts panics
// into errors. A rank that fails or panics aborts its world, as
// MPI_Abort does: every blocked receive returns with that rank's error,
// so a failing rank cannot hang its peers.
//
// Ownership. A received payload belongs to the receiver. Send, Bcast
// and Gather copy the caller's bytes into the message, so the caller may
// reuse them at once. AlltoallvSparse, the bulk path of two-phase I/O,
// copies nothing: it hands each send[r] over to rank r, and the caller
// must not touch send[r] after the call.
package cluster

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
)

// message is one queued point-to-point payload.
type message struct {
	from int
	tag  int
	data []byte
}

// mailbox is one rank's incoming queue with condition-variable matching.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	closed bool
	err    error // sticky failure reported to blocked receivers
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// World is the shared state of one Run invocation.
type World struct {
	size  int
	boxes []*mailbox

	// remote, when non-nil, carries a message from one rank to another
	// instead of the default direct mailbox enqueue. RunTCP installs a
	// socket-based carrier here; self-sends stay local.
	remote func(from, to int, m message) error

	mu     sync.Mutex
	shared map[string]any // registry for one-sided windows (package rma)
}

// enqueue places m in rank wr's mailbox (final local delivery,
// used both by in-process sends and by transport readers).
func (w *World) enqueue(wr int, m message) error {
	mb := w.boxes[wr]
	mb.mu.Lock()
	if mb.closed {
		err := mb.err
		mb.mu.Unlock()
		return fmt.Errorf("cluster: send to rank %d aborted: %w", wr, err)
	}
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
	return nil
}

// fail closes every mailbox with a sticky error so blocked receivers
// return instead of hanging: a rank failed, or a transport connection
// died. The first cause sticks.
func (w *World) fail(err error) {
	for _, mb := range w.boxes {
		mb.mu.Lock()
		mb.closed = true
		if mb.err == nil {
			mb.err = err
		}
		mb.mu.Unlock()
		mb.cond.Broadcast()
	}
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// SharedPut publishes a value under a key, for collective object
// creation (e.g. RMA windows). Publishing an existing key overwrites.
func (w *World) SharedPut(key string, v any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shared[key] = v
}

// SharedGet retrieves a published value.
func (w *World) SharedGet(key string) (any, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v, ok := w.shared[key]
	return v, ok
}

// SharedDelete removes a published value.
func (w *World) SharedDelete(key string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.shared, key)
}

// Comm is one rank's handle on its world, MPI_COMM_WORLD. The zero
// value is invalid; communicators come from Run, RunTCP or Self.
type Comm struct {
	world   *World
	rank    int
	collSeq int64 // per-rank collective sequence number
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.size }

// World returns the underlying world (shared-object registry access).
func (c *Comm) World() *World { return c.world }

// Status describes a received message.
type Status struct {
	Source int // rank of the sender
	Tag    int
}

// Send delivers data to rank `to` with a user tag (>= 0). The payload
// is copied; sends never block.
func (c *Comm) Send(to, tag int, data []byte) error {
	if tag < 0 {
		return fmt.Errorf("cluster: user tags must be >= 0 (got %d)", tag)
	}
	return c.send(to, tag, append([]byte(nil), data...))
}

// send hands data to rank `to` as the message itself: the in-process
// transport enqueues the slice uncopied, so the caller gives it up.
func (c *Comm) send(to, tag int, data []byte) error {
	if to < 0 || to >= c.Size() {
		return fmt.Errorf("cluster: send to rank %d of %d", to, c.Size())
	}
	m := message{from: c.rank, tag: tag, data: data}
	if c.world.remote != nil && to != c.rank {
		return c.world.remote(c.rank, to, m)
	}
	return c.world.enqueue(to, m)
}

// Recv blocks until a message from rank `from` with user tag `tag`
// arrives and returns its payload. Matching is FIFO among queued
// messages (non-overtaking per source+tag).
func (c *Comm) Recv(from, tag int) ([]byte, Status, error) {
	if tag < 0 {
		return nil, Status{}, fmt.Errorf("cluster: invalid receive tag %d", tag)
	}
	return c.recv(from, tag)
}

func (c *Comm) recv(from, tag int) ([]byte, Status, error) {
	if from < 0 || from >= c.Size() {
		return nil, Status{}, fmt.Errorf("cluster: recv from rank %d of %d", from, c.Size())
	}
	mb := c.world.boxes[c.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.queue {
			if m.from != from || m.tag != tag {
				continue
			}
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			return m.data, Status{Source: m.from, Tag: m.tag}, nil
		}
		if mb.closed {
			err := mb.err
			if err == nil {
				err = errors.New("cluster: mailbox closed")
			}
			return nil, Status{}, fmt.Errorf("cluster: recv aborted: %w", err)
		}
		mb.cond.Wait()
	}
}

// --- collectives ---
//
// Collectives are built from point-to-point messages with negative tags
// derived from a per-rank sequence number; the SPMD contract (same
// collective order on every rank) guarantees the sequence numbers line
// up across ranks.

const (
	opBcast = iota
	opGather
	opAlltoall
	opCount
)

func (c *Comm) collTag(op int) int {
	c.collSeq++
	return -int(c.collSeq*opCount) - op - 2 // always <= -2, distinct per call
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() error {
	_, err := c.Gather(0, nil)
	if err != nil {
		return err
	}
	_, err = c.Bcast(0, nil)
	return err
}

// Bcast distributes root's data to every rank; every rank returns the
// payload (root included; non-roots pass nil data).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	tag := c.collTag(opBcast)
	if c.rank == root {
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.send(r, tag, append([]byte(nil), data...)); err != nil {
				return nil, err
			}
		}
		return append([]byte(nil), data...), nil
	}
	got, _, err := c.recv(root, tag)
	return got, err
}

// Gather collects each rank's data at root. Root returns a slice indexed
// by rank; other ranks return nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	tag := c.collTag(opGather)
	if c.rank != root {
		return nil, c.send(root, tag, append([]byte(nil), data...))
	}
	out := make([][]byte, c.Size())
	out[root] = append([]byte(nil), data...)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		got, _, err := c.recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = got
	}
	return out, nil
}

// Allgather collects each rank's data at every rank. The parts are
// slices of one buffer the caller owns. It is a Gather then a Bcast at
// rank 0, which packs its own data and the parts it receives straight
// into that buffer and keeps it; every other rank is sent a copy of the
// pack (the in-process transport hands over the slice itself).
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	if c.rank != 0 {
		if _, err := c.Gather(0, data); err != nil {
			return nil, err
		}
		flat, err := c.Bcast(0, nil)
		if err != nil {
			return nil, err
		}
		return unpackSlices(flat)
	}
	// Rank 0's halves of that Gather and Bcast, without their copies.
	gtag := c.collTag(opGather)
	parts := make([][]byte, c.Size())
	parts[0] = data
	for r := 1; r < c.Size(); r++ {
		got, _, err := c.recv(r, gtag)
		if err != nil {
			return nil, err
		}
		parts[r] = got
	}
	flat := packSlices(parts)
	btag := c.collTag(opBcast)
	for r := 1; r < c.Size(); r++ {
		if err := c.send(r, btag, append([]byte(nil), flat...)); err != nil {
			return nil, err
		}
	}
	// Re-point the parts into the pack, as unpackSlices would.
	at := 8
	for r, p := range parts {
		at += 8
		parts[r] = flat[at : at+len(p) : at+len(p)]
		at += len(p)
	}
	return parts, nil
}

// AlltoallvSparse sends send[r] to each rank r and returns the payloads
// received from every rank (indexed by source), the shuffle underlying
// two-phase I/O. It sends no empty frames: send[r] crosses the wire
// only when non-empty, and a receive is posted from rank r only when
// expect[r] is true. The SPMD contract extends to the
// pattern: expect[r] on this rank must be true exactly when send[me]
// is non-empty on rank r — callers derive both sides from replicated
// state, so no communication is needed to agree. Like every
// collective it runs in the reserved negative-tag space, so user
// point-to-point traffic on the same communicator cannot cross-match
// with its payloads. Sends never block, so send-all-then-receive cannot
// deadlock.
//
// Nothing is copied. Each non-empty send[r] is handed over to rank r:
// the in-process transport enqueues the slice itself as the message
// (RunTCP writes it to the socket), so the caller must not touch
// send[r] after the call. Every out[r] belongs to the caller, to reuse
// or send on; out[me] is send[me] itself.
func (c *Comm) AlltoallvSparse(send [][]byte, expect []bool) ([][]byte, error) {
	// Validate before consuming a collective sequence number: a failed
	// local call must not desynchronize this rank's tags from its peers.
	if len(send) != c.Size() || len(expect) != c.Size() {
		return nil, fmt.Errorf("cluster: sparse alltoallv needs %d parts, got %d/%d",
			c.Size(), len(send), len(expect))
	}
	tag := c.collTag(opAlltoall)
	for r := 0; r < c.Size(); r++ {
		if r == c.rank || len(send[r]) == 0 {
			continue
		}
		if err := c.send(r, tag, send[r]); err != nil {
			return nil, err
		}
	}
	out := make([][]byte, c.Size())
	out[c.rank] = send[c.rank]
	for r := 0; r < c.Size(); r++ {
		if r == c.rank || !expect[r] {
			continue
		}
		got, _, err := c.recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = got
	}
	return out, nil
}

// --- typed collective helpers (generic free functions) ---

// Allreduce combines each rank's values element-wise with op and returns
// the combined vector on every rank. All ranks must pass equal-length
// slices; enc must produce a fixed-width encoding.
func Allreduce[T any](c *Comm, vals []T, op func(a, b T) T, enc func(T) []byte, dec func([]byte) T) ([]T, error) {
	payload := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		payload = append(payload, enc(v)...)
	}
	all, err := c.Allgather(payload)
	if err != nil {
		return nil, err
	}
	out := append([]T(nil), vals...)
	width := 0
	if len(vals) > 0 {
		width = len(payload) / len(vals)
	}
	for r, b := range all {
		if r == c.rank {
			continue
		}
		if len(b) != len(payload) {
			return nil, fmt.Errorf("cluster: allreduce length mismatch from rank %d", r)
		}
		for i := range out {
			out[i] = op(out[i], dec(b[i*width:(i+1)*width]))
		}
	}
	return out, nil
}

// AllreduceInt64 is Allreduce specialized for int64 vectors.
func AllreduceInt64(c *Comm, vals []int64, op func(a, b int64) int64) ([]int64, error) {
	return Allreduce(c, vals, op,
		func(v int64) []byte { return appendU64(nil, uint64(v)) },
		func(b []byte) int64 { return int64(u64(b)) })
}

// SumInt64 is the addition operator for AllreduceInt64.
func SumInt64(a, b int64) int64 { return a + b }

// MaxInt64 is the maximum operator for AllreduceInt64.
func MaxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- world construction and Run ---

// Run executes fn on n ranks (goroutines) sharing one world and returns
// the first error (by rank order) if any rank fails or panics.
func Run(n int, fn func(c *Comm) error) error {
	w, err := newWorld(n)
	if err != nil {
		return err
	}
	return w.run(fn)
}

// Self returns the communicator of a fresh one-rank world, MPI's
// COMM_SELF: its collectives complete on the calling goroutine, with no
// Run and no rank goroutines. Serial callers (package drx) open drxmp
// files on it.
func Self() *Comm {
	w, _ := newWorld(1)
	return &Comm{world: w}
}

// newWorld allocates the shared state for an n-rank world.
func newWorld(n int) (*World, error) {
	if n < 1 {
		return nil, errors.New("cluster: need at least one rank")
	}
	w := &World{
		size:   n,
		boxes:  make([]*mailbox, n),
		shared: map[string]any{},
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w, nil
}

// run spawns the rank goroutines on the world's transport and joins
// their errors (panics included, with stacks).
func (w *World) run(fn func(c *Comm) error) error {
	n := w.size
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					cause, ok := p.(error)
					if !ok {
						cause = fmt.Errorf("%v", p)
					}
					errs[rank] = fmt.Errorf("cluster: rank %d panicked: %w\n%s", rank, cause, debug.Stack())
				}
				if errs[rank] != nil {
					w.fail(errs[rank])
				}
			}()
			c := &Comm{world: w, rank: rank}
			if err := fn(c); err != nil {
				// Callers often name the rank themselves; say it once.
				if prefix := fmt.Sprintf("rank %d: ", rank); !strings.HasPrefix(err.Error(), prefix) {
					err = fmt.Errorf("%s%w", prefix, err)
				}
				errs[rank] = err
			}
		}(r)
	}
	wg.Wait()
	var agg []error
	for _, e := range errs {
		if e != nil {
			agg = append(agg, e)
		}
	}
	return errors.Join(agg...)
}

// --- payload packing ---

// packSlices frames a list of byte slices with uvarint-free fixed
// 8-byte little-endian length prefixes (simple and allocation-light).
func packSlices(parts [][]byte) []byte {
	total := 8
	for _, p := range parts {
		total += 8 + len(p)
	}
	out := make([]byte, 0, total)
	out = appendU64(out, uint64(len(parts)))
	for _, p := range parts {
		out = appendU64(out, uint64(len(p)))
		out = append(out, p...)
	}
	return out
}

// unpackSlices inverts packSlices. The parts share the pack's memory:
// each is a sub-slice of b, capped at its own length so an append to
// one cannot overwrite the next. The pack may come from a peer, so
// the count and every length are checked against the bytes that remain
// (each slice needs at least its 8-byte length) before they size
// anything.
func unpackSlices(b []byte) ([][]byte, error) {
	if len(b) < 8 {
		return nil, errors.New("cluster: truncated pack header")
	}
	n := u64(b)
	b = b[8:]
	if n > uint64(len(b)/8) {
		return nil, errors.New("cluster: truncated pack length")
	}
	out := make([][]byte, 0, n)
	for range n {
		if len(b) < 8 {
			return nil, errors.New("cluster: truncated pack length")
		}
		l := u64(b)
		b = b[8:]
		if l > uint64(len(b)) {
			return nil, errors.New("cluster: truncated pack payload")
		}
		out = append(out, b[:l:l])
		b = b[l:]
	}
	return out, nil
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func u64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
