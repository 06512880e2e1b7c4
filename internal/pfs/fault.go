// fault.go provides deterministic failure injection for the striped
// file system, so the array libraries' error paths can be tested the
// way a cluster operator experiences them: an I/O server that starts
// refusing requests, a transient glitch on one stripe, a disk that
// fails every write past a quota.
//
// Injection sits at the per-server request boundary (the same place
// the cost model charges), so one logical ReadAt that spans three
// servers can fail on exactly one of them. Failed requests transfer no
// bytes and leave stats untouched: the request never reached a server.
package pfs

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Injector decides whether a per-server request fails. Implementations
// must be safe for concurrent use. Returning a non-nil error aborts
// the request before any bytes move.
type Injector interface {
	// Fail inspects one per-server request and returns the error to
	// inject, or nil to let it proceed.
	Fail(server int, write bool, off, n int64) error
}

// SetInjector installs (or, with nil, removes) a failure injector.
// Safe to call while I/O is in flight.
func (fs *FS) SetInjector(inj Injector) {
	if inj == nil {
		fs.inj.Store(&injBox{})
		return
	}
	fs.inj.Store(&injBox{inj: inj})
}

// injBox wraps an Injector so an atomic.Pointer always has a concrete
// type to hold (a nil inside the box means "no injection").
type injBox struct{ inj Injector }

// fail consults the boxed injector, if any, and returns its raw error:
// the refusal is wrapped into an injectedFault only if it leaves the
// package (segErr.error), so the refusals a degraded read absorbs cost
// no allocation.
func (box *injBox) fail(server int, write bool, off, n int64) error {
	if box == nil || box.inj == nil {
		return nil
	}
	return box.inj.Fail(server, write, off, n)
}

// injectedFault is the error of a refused request, as the caller sees
// it. It is made only when the refusal is returned, and its text is
// formatted on demand.
type injectedFault struct {
	server int
	write  bool
	off, n int64
	err    error
}

func (e *injectedFault) Error() string {
	op := "read"
	if e.write {
		op = "write"
	}
	return fmt.Sprintf("pfs: injected %s fault on server %d (off %d, %d bytes): %v",
		op, e.server, e.off, e.n, e.err)
}

func (e *injectedFault) Unwrap() error { return e.err }

// AnyServer matches every server in a FaultPoint.
const AnyServer = -1

// FaultOp selects which request kinds a FaultPoint applies to.
type FaultOp int

const (
	// FaultReads injects on read requests only.
	FaultReads FaultOp = iota
	// FaultWrites injects on write requests only.
	FaultWrites
	// FaultAnyOp injects on both.
	FaultAnyOp
)

// FaultPoint fails matching requests after a countdown, either once
// (a transient glitch) or permanently (a dead server). The zero value
// fails the first read on any server, once.
type FaultPoint struct {
	// Server restricts injection to one server (AnyServer for all).
	Server int
	// Op restricts injection to reads, writes, or both.
	Op FaultOp
	// After skips this many matching requests before firing.
	After int64
	// Permanent keeps failing every matching request once triggered;
	// otherwise exactly one request fails.
	Permanent bool
	// Err is the injected error (a generic one if nil).
	Err error

	seen  atomic.Int64
	fired atomic.Bool
}

// errInjected is the default injected failure.
var errInjected = fmt.Errorf("simulated I/O server failure")

// Fail implements Injector.
func (fp *FaultPoint) Fail(server int, write bool, off, n int64) error {
	if fp.Server != AnyServer && server != fp.Server {
		return nil
	}
	switch fp.Op {
	case FaultReads:
		if write {
			return nil
		}
	case FaultWrites:
		if !write {
			return nil
		}
	}
	seen := fp.seen.Add(1)
	if seen <= fp.After {
		return nil
	}
	if !fp.Permanent && !fp.fired.CompareAndSwap(false, true) {
		return nil
	}
	if fp.Err != nil {
		return fp.Err
	}
	return errInjected
}

// Fired reports whether the fault has triggered at least once.
func (fp *FaultPoint) Fired() bool {
	return fp.fired.Load() || (fp.Permanent && fp.seen.Load() > fp.After)
}

// Flaky fails each matching request independently with probability p,
// using a seeded generator so runs are reproducible.
type Flaky struct {
	mu  sync.Mutex
	rng *rand.Rand
	p   float64
	err error
}

// NewFlaky builds a Flaky injector with failure probability p in
// [0, 1] and a deterministic seed.
func NewFlaky(seed int64, p float64) *Flaky {
	return &Flaky{rng: rand.New(rand.NewSource(seed)), p: p}
}

// Fail implements Injector.
func (f *Flaky) Fail(server int, write bool, off, n int64) error {
	f.mu.Lock()
	hit := f.rng.Float64() < f.p
	f.mu.Unlock()
	if !hit {
		return nil
	}
	if f.err != nil {
		return f.err
	}
	return errInjected
}

// Multi chains injectors; the first non-nil error wins.
type Multi []Injector

// Fail implements Injector.
func (m Multi) Fail(server int, write bool, off, n int64) error {
	for _, inj := range m {
		if inj == nil {
			continue
		}
		if err := inj.Fail(server, write, off, n); err != nil {
			return err
		}
	}
	return nil
}
