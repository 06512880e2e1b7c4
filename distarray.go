package drxmp

import (
	"errors"
	"fmt"
	"runtime"

	"drxmp/internal/dtype"
	"drxmp/internal/grid"
	"drxmp/internal/par"
	"drxmp/internal/rma"
	"drxmp/internal/zone"
)

// DistArray is the Global-Array-style processing model of the paper's
// Section II: after the principal array is read and distributed, each
// process holds its zone as a dense in-memory sub-array (in C or
// Fortran order, chosen at distribution time), and any process can
// access any element — local elements directly, remote elements through
// one-sided RMA — "as if each process has access to the entire
// principal array".
//
// DistArray requires the BLOCK decomposition (one box per process),
// matching the paper's Fig. 1 distribution.
type DistArray struct {
	f     *File
	order Order
	local []byte
	box   Box   // my zone in element coordinates
	boxes []Box // every rank's zone (replicated, computed from metadata)
	win   *rma.Win
}

// Distribute collectively reads the principal array into zone-sized
// memory arrays (one per process, BLOCK decomposition) and exposes them
// through an RMA window. Must be called by every process.
func (f *File) Distribute(order Order) (*DistArray, error) {
	if f.kind != zone.Block {
		return nil, errors.New("drxmp: Distribute requires the BLOCK decomposition")
	}
	if order != RowMajor && order != ColMajor {
		return nil, fmt.Errorf("drxmp: invalid order %v", order)
	}
	boxes := make([]Box, f.comm.Size())
	for r := range boxes {
		zb, err := f.ZoneBoxes(r)
		if err != nil {
			return nil, err
		}
		switch len(zb) {
		case 0:
			boxes[r] = Box{Lo: make([]int, f.Rank()), Hi: make([]int, f.Rank())}
		case 1:
			boxes[r] = zb[0]
		default:
			return nil, errors.New("drxmp: BLOCK zone is not a single box")
		}
	}
	my := boxes[f.comm.Rank()]
	buf := make([]byte, my.Volume()*int64(f.m.DType.Size()))
	if err := f.ReadSectionAll(my, buf, order); err != nil {
		return nil, err
	}
	win, err := rma.Create(f.comm, buf)
	if err != nil {
		return nil, err
	}
	return &DistArray{f: f, order: order, local: buf, box: my, boxes: boxes, win: win}, nil
}

// LocalBox returns this process's zone in element coordinates.
func (d *DistArray) LocalBox() Box { return d.box.Clone() }

// LocalData returns this process's zone buffer (dense over LocalBox in
// the distribution order). Mutations are visible to remote Get.
func (d *DistArray) LocalData() []byte { return d.local }

// Order returns the in-memory layout order chosen at distribution.
func (d *DistArray) Order() Order { return d.order }

// Fence separates RMA access epochs (collective).
func (d *DistArray) Fence() error { return d.win.Fence() }

// Free collectively releases the RMA window.
func (d *DistArray) Free() error { return d.win.Free() }

// locate returns (owner rank, byte offset within the owner's buffer).
func (d *DistArray) locate(idx []int) (int, int64, error) {
	owner, err := d.f.OwnerOf(idx)
	if err != nil {
		return 0, 0, err
	}
	ob := d.boxes[owner]
	rel := make([]int, len(idx))
	for i := range idx {
		rel[i] = idx[i] - ob.Lo[i]
	}
	off := grid.Offset(ob.Shape(), rel, d.order) * int64(d.f.m.DType.Size())
	return owner, off, nil
}

// Get returns the element at global index idx, fetching remotely when
// the owner is another process (GA_Get / MPI_Get).
func (d *DistArray) Get(idx []int) (float64, error) {
	owner, off, err := d.locate(idx)
	if err != nil {
		return 0, err
	}
	es := d.f.m.DType.Size()
	if owner == d.f.comm.Rank() {
		return dtype.Float64At(d.f.m.DType, d.local[off:]), nil
	}
	buf := make([]byte, es)
	if err := d.win.Get(owner, off, buf); err != nil {
		return 0, err
	}
	return dtype.Float64At(d.f.m.DType, buf), nil
}

// Set stores v at global index idx (GA_Put / MPI_Put).
func (d *DistArray) Set(idx []int, v float64) error {
	owner, off, err := d.locate(idx)
	if err != nil {
		return err
	}
	es := d.f.m.DType.Size()
	buf := make([]byte, es)
	dtype.PutFloat64(d.f.m.DType, buf, v)
	return d.win.Put(owner, off, buf)
}

// Acc accumulates v into the element at idx (GA_Acc / MPI_Accumulate
// with MPI_SUM); atomic with respect to concurrent Acc calls.
func (d *DistArray) Acc(idx []int, v float64) error {
	owner, off, err := d.locate(idx)
	if err != nil {
		return err
	}
	buf := make([]byte, d.f.m.DType.Size())
	dtype.PutFloat64(d.f.m.DType, buf, v)
	return d.win.Accumulate(owner, off, buf, d.f.m.DType)
}

// sectionOwners returns the ranks whose zones intersect box. The
// per-rank transfers touch disjoint regions of the user buffer, so
// they can proceed concurrently.
func (d *DistArray) sectionOwners(box Box) []int {
	var owners []int
	for r, ob := range d.boxes {
		if !ob.Intersect(box).Empty() {
			owners = append(owners, r)
		}
	}
	return owners
}

// GetSection copies an arbitrary global sub-array into dst (dense over
// box in the distribution order), pulling remote pieces one-sidedly.
// Transfers from different owner ranks proceed in parallel on up to
// GOMAXPROCS workers — each remote Get only locks its target rank's
// window, so pulls from distinct owners overlap.
func (d *DistArray) GetSection(box Box, dst []byte) error {
	es := int64(d.f.m.DType.Size())
	if int64(len(dst)) < box.Volume()*es {
		return fmt.Errorf("drxmp: buffer of %d bytes for %d-byte section", len(dst), box.Volume()*es)
	}
	dstStrides := grid.Strides(box.Shape(), d.order)
	owners := d.sectionOwners(box)
	// Per owning rank, copy the intersection row by row, rows in the
	// owner's layout order. dst uses the same order, so each row is
	// contiguous on both sides: a local row is one copy and a remote
	// one is one Get, straight into dst.
	return par.Do(runtime.GOMAXPROCS(0), len(owners), func(oi int) error {
		r := owners[oi]
		ob := d.boxes[r]
		ownStrides := grid.Strides(ob.Shape(), d.order)
		var outerErr error
		ob.Intersect(box).Rows(d.order, func(start []int, n int) bool {
			var srcOff, dstOff int64
			for i := range start {
				srcOff += int64(start[i]-ob.Lo[i]) * ownStrides[i]
				dstOff += int64(start[i]-box.Lo[i]) * dstStrides[i]
			}
			row := dst[dstOff*es : (dstOff+int64(n))*es]
			if r == d.f.comm.Rank() {
				copy(row, d.local[srcOff*es:])
			} else if err := d.win.Get(r, srcOff*es, row); err != nil {
				outerErr = err
				return false
			}
			return true
		})
		return outerErr
	})
}

// PutSection scatters src (dense over box in the distribution order)
// into the owning zones, pushing remote pieces one-sidedly (GA_Put over
// a region). Call Fence before dependent reads. Pushes to distinct
// owner ranks proceed in parallel, like GetSection.
func (d *DistArray) PutSection(box Box, src []byte) error {
	es := int64(d.f.m.DType.Size())
	if int64(len(src)) < box.Volume()*es {
		return fmt.Errorf("drxmp: buffer of %d bytes for %d-byte section", len(src), box.Volume()*es)
	}
	boxShape := box.Shape()
	srcStrides := grid.Strides(boxShape, d.order)
	owners := d.sectionOwners(box)
	return par.Do(runtime.GOMAXPROCS(0), len(owners), func(oi int) error {
		r := owners[oi]
		ob := d.boxes[r]
		ibox := ob.Intersect(box)
		obShape := ob.Shape()
		ownStrides := grid.Strides(obShape, d.order)
		var outerErr error
		ibox.Rows(d.order, func(start []int, n int) bool {
			var dstOff, srcOff int64
			for i := range start {
				dstOff += int64(start[i]-ob.Lo[i]) * ownStrides[i]
				srcOff += int64(start[i]-box.Lo[i]) * srcStrides[i]
			}
			row := src[srcOff*es : (srcOff+int64(n))*es]
			if r == d.f.comm.Rank() {
				copy(d.local[dstOff*es:], row)
				return true
			}
			if err := d.win.Put(r, dstOff*es, row); err != nil {
				outerErr = err
				return false
			}
			return true
		})
		return outerErr
	})
}

// Refresh collectively re-reads every zone from the principal array
// file into the local buffers — the inverse of FlushToFile, for
// workflows that alternate out-of-core passes with distributed ones.
// With the extent cache on (Options.CacheBytes) the collective read
// goes through it: a re-read of a warm file comes from memory, without
// touching the I/O servers. Must be called by every process, between RMA epochs (as
// with Distribute, no fence is held).
func (d *DistArray) Refresh() error {
	return d.f.ReadSectionAll(d.box, d.local, d.order)
}

// FlushToFile collectively writes every zone back to the principal
// array file; the bytes are on the I/O servers when it returns.
func (d *DistArray) FlushToFile() error {
	return d.f.WriteSectionAll(d.box, d.local, d.order)
}

// Checkpoint collectively writes every zone back to the principal
// array file and Syncs (a barrier), so every rank returns only once the
// whole distributed state is on the I/O servers.
func (d *DistArray) Checkpoint() error {
	if err := d.FlushToFile(); err != nil {
		return err
	}
	return d.f.Sync()
}
