// Package rma provides one-sided remote memory access in the role MPI-2
// RMA / ARMCI play for the paper: after a parallel program distributes
// the principal array's zones into per-process memory, any process can
// Get/Put/Accumulate elements of any other process's zone using only the
// replicated metadata — the owner does not participate in the transfer
// (the Global-Array shared-memory programming model).
//
// A Win is created collectively over a communicator; each rank exposes
// one local byte buffer. Access epochs are delimited by Fence (also
// collective), mirroring MPI_Win_fence active-target synchronization.
// Within an epoch, operations on a remote rank's buffer are atomic per
// call (a per-window-per-rank mutex), and Accumulate is an atomic
// element-wise sum, as MPI_Accumulate with MPI_SUM guarantees. Get, Put
// and that sum are the whole surface: they are what DistArray's
// Get/Set/Acc and its section transfers use.
package rma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"drxmp/internal/cluster"
	"drxmp/internal/dtype"
)

// winShared is the world-visible state of one window: every rank's
// exposed buffer plus its lock.
type winShared struct {
	bufs  [][]byte
	locks []sync.Mutex
}

var winSeq atomic.Int64

// Win is one rank's handle on a collectively created window.
type Win struct {
	comm   *cluster.Comm
	shared *winShared
	key    string
}

// Create collectively builds a window exposing local (which may have a
// different length on each rank, including zero). The buffer is shared
// by reference: local stores through the slice remain visible to remote
// Get, as with MPI_Win_create on shared memory.
func Create(comm *cluster.Comm, local []byte) (*Win, error) {
	// Rank 0 allocates the shared struct under a fresh key and
	// broadcasts the key; everyone installs their buffer and fences.
	var key string
	if comm.Rank() == 0 {
		key = fmt.Sprintf("rma/win/%d", winSeq.Add(1))
		comm.World().SharedPut(key, &winShared{
			bufs:  make([][]byte, comm.Size()),
			locks: make([]sync.Mutex, comm.Size()),
		})
	}
	kb, err := comm.Bcast(0, []byte(key))
	if err != nil {
		return nil, err
	}
	key = string(kb)
	v, ok := comm.World().SharedGet(key)
	if !ok {
		return nil, errors.New("rma: window registry entry missing")
	}
	shared := v.(*winShared)
	shared.locks[comm.Rank()].Lock()
	shared.bufs[comm.Rank()] = local
	shared.locks[comm.Rank()].Unlock()
	w := &Win{comm: comm, shared: shared, key: key}
	if err := w.Fence(); err != nil {
		return nil, err
	}
	return w, nil
}

// Free collectively tears the window down.
func (w *Win) Free() error {
	if err := w.Fence(); err != nil {
		return err
	}
	if w.comm.Rank() == 0 {
		w.comm.World().SharedDelete(w.key)
	}
	w.shared = nil
	return nil
}

// Fence separates access epochs (collective barrier,
// MPI_Win_fence-style).
func (w *Win) Fence() error { return w.comm.Barrier() }

func (w *Win) checkRank(r int) error {
	if w.shared == nil {
		return errors.New("rma: window is freed")
	}
	if r < 0 || r >= w.comm.Size() {
		return fmt.Errorf("rma: rank %d out of range [0,%d)", r, w.comm.Size())
	}
	return nil
}

func (w *Win) checkRange(r int, off int64, n int) error {
	if off < 0 || off+int64(n) > int64(len(w.shared.bufs[r])) {
		return fmt.Errorf("rma: [%d,%d) outside rank %d window of %d bytes",
			off, off+int64(n), r, len(w.shared.bufs[r]))
	}
	return nil
}

// Get copies len(dst) bytes from rank r's window at byte offset off into
// dst (MPI_Get; one-sided, the target does not participate).
func (w *Win) Get(r int, off int64, dst []byte) error {
	if err := w.checkRank(r); err != nil {
		return err
	}
	w.shared.locks[r].Lock()
	defer w.shared.locks[r].Unlock()
	if err := w.checkRange(r, off, len(dst)); err != nil {
		return err
	}
	copy(dst, w.shared.bufs[r][off:])
	return nil
}

// Put copies src into rank r's window at byte offset off (MPI_Put).
func (w *Win) Put(r int, off int64, src []byte) error {
	if err := w.checkRank(r); err != nil {
		return err
	}
	w.shared.locks[r].Lock()
	defer w.shared.locks[r].Unlock()
	if err := w.checkRange(r, off, len(src)); err != nil {
		return err
	}
	copy(w.shared.bufs[r][off:], src)
	return nil
}

// Accumulate adds the elements of type dt in src into rank r's window
// at byte offset off, element-wise and atomically per call
// (MPI_Accumulate with MPI_SUM).
func (w *Win) Accumulate(r int, off int64, src []byte, dt dtype.T) error {
	if err := w.checkRank(r); err != nil {
		return err
	}
	sz := dt.Size()
	if sz == 0 {
		return fmt.Errorf("rma: invalid dtype %v", dt)
	}
	if len(src)%sz != 0 {
		return fmt.Errorf("rma: accumulate payload %d bytes not a multiple of %v", len(src), dt)
	}
	w.shared.locks[r].Lock()
	defer w.shared.locks[r].Unlock()
	if err := w.checkRange(r, off, len(src)); err != nil {
		return err
	}
	tgt := w.shared.bufs[r][off:]
	n := len(src) / sz
	for i := 0; i < n; i++ {
		sp := src[i*sz : (i+1)*sz]
		tp := tgt[i*sz : (i+1)*sz]
		if dt == dtype.Complex64 || dt == dtype.Complex128 {
			dtype.PutComplex(dt, tp, dtype.ComplexAt(dt, tp)+dtype.ComplexAt(dt, sp))
		} else {
			dtype.PutFloat64(dt, tp, dtype.Float64At(dt, tp)+dtype.Float64At(dt, sp))
		}
	}
	return nil
}
