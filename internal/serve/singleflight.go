package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"drxmp/internal/mpiio"
)

// flight is one in-progress cold fill. Waiters block on done; the
// leader publishes buf/err before closing it. The buffer is pooled and
// shared read-only by every user of the flight (responses write it out
// or slice copies out of it): users counts the leader plus every waiter
// that joined, each of which calls release exactly once, and the last
// release returns the buffer to the pool.
type flight struct {
	done  chan struct{}
	buf   *mpiio.Buf
	err   error
	users atomic.Int32
}

// release ends the caller's use of fl.buf.
func (fl *flight) release() {
	if fl.users.Add(-1) == 0 {
		fl.buf.Release()
	}
}

// flightTable is the per-file single-flight table: one entry per
// (aligned box, write generation) key while its fill is in progress,
// so K concurrent cold readers of the same aligned range issue ONE
// backing fetch and K-1 of them just block on the first fetcher —
// instead of K server sweeps. Entries are removed when the fill
// completes; warmth beyond the in-flight window is the extent cache's
// job, not this table's.
type flightTable struct {
	mu       sync.Mutex
	inflight map[string]*flight

	fills int64 // fetches actually issued (flight leaders)
	hits  int64 // requests served by someone else's in-flight fill
}

func newFlightTable() *flightTable {
	return &flightTable{inflight: map[string]*flight{}}
}

// do returns the flight holding the fill result for key, issuing fetch
// only if no fill for key is already in flight. shared reports that the
// caller waited on another request's fill (a single-flight hit). The
// caller owes the returned flight one release, error or not, once it is
// done with fl.buf.
//
// ctx bounds only the WAIT of a non-leader: a waiter whose deadline
// expires (or whose client disconnects) unparks with ctx's error and
// releases its admission slot, while the fill keeps running for the
// remaining waiters. The leader never abandons its fetch — it owes the
// waiters a settled flight.
func (t *flightTable) do(ctx context.Context, key string, fetch func() (*mpiio.Buf, error)) (fl *flight, shared bool, err error) {
	t.mu.Lock()
	if fl, ok := t.inflight[key]; ok {
		t.hits++
		fl.users.Add(1) // under mu, so before the leader can retire the entry and release
		t.mu.Unlock()
		select {
		case <-fl.done:
			return fl, true, fl.err
		case <-ctx.Done():
			return fl, true, fmt.Errorf("serve: abandoned in-flight fill for %q: %w", key, ctx.Err())
		}
	}
	fl = &flight{done: make(chan struct{})}
	fl.users.Store(1)
	t.inflight[key] = fl
	t.fills++
	t.mu.Unlock()

	// The leader must settle its flight no matter how fetch exits: a
	// panicking fetch that left the entry in the table would strand
	// every later request for this key on a done channel that never
	// closes — each one parked while holding admission budget, wedging
	// the file. The deferred cleanup publishes an error to the waiters
	// and removes the entry before the panic propagates.
	completed := false
	defer func() {
		if !completed {
			fl.buf, fl.err = nil, fmt.Errorf("serve: fill for %q aborted", key)
		}
		t.mu.Lock()
		delete(t.inflight, key)
		t.mu.Unlock()
		close(fl.done)
	}()
	fl.buf, fl.err = fetch()
	completed = true
	return fl, false, fl.err
}

// FlightStats is the single-flight table's surfaced accounting.
type FlightStats struct {
	Fills int64 `json:"fills"`
	Hits  int64 `json:"hits"`
}

func (t *flightTable) snapshot() FlightStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return FlightStats{Fills: t.fills, Hits: t.hits}
}
