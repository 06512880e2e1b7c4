package drxmp_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// Differential suite for the parallel two-phase collective: the
// collective-parallel, collective-serial, and independent I/O paths
// must produce byte-identical arrays across 2-D/3-D shapes, odd chunk
// sizes, and overlapping rank sections. These tests pin the tentpole
// invariant — fanning the aggregate and exchange stages across workers
// is invisible to the data.

// collShape is one differential scenario.
type collShape struct {
	name   string
	bounds []int
	chunk  []int
}

func collShapes() []collShape {
	return []collShape{
		{"2d-odd", []int{97, 53}, []int{13, 7}},
		{"2d-tall", []int{128, 24}, []int{16, 5}},
		{"3d", []int{24, 18, 20}, []int{5, 6, 7}},
	}
}

// slabBox carves bounds into `ranks` slabs along dim 0 and returns slab
// r, widened by `overlap` rows on each side (clipped). With overlap 0
// the slabs partition the array; with overlap > 0 neighbors share rows.
func slabBox(bounds []int, ranks, r, overlap int) drxmp.Box {
	q := (bounds[0] + ranks - 1) / ranks
	lo := make([]int, len(bounds))
	hi := append([]int(nil), bounds...)
	lo[0] = r * q
	if lo[0] > bounds[0] {
		lo[0] = bounds[0]
	}
	if end := (r + 1) * q; end < bounds[0] {
		hi[0] = end
	}
	lo[0] -= overlap
	if lo[0] < 0 {
		lo[0] = 0
	}
	hi[0] += overlap
	if hi[0] > bounds[0] {
		hi[0] = bounds[0]
	}
	return drxmp.NewBox(lo, hi)
}

// rankData derives a deterministic payload for (rank, box, salt) so the
// same bytes land in every array variant under test.
func rankData(r int, box drxmp.Box, salt int64) []byte {
	data := make([]byte, box.Volume()*8)
	rand.New(rand.NewSource(salt*1000 + int64(r))).Read(data)
	return data
}

// TestCollectiveParallelSerialIndependentIdentical writes disjoint
// slabs through the collective-parallel, collective-serial, and
// independent paths and requires the three resulting files to hold
// identical bytes; it then cross-reads overlapping sections through all
// three paths and requires identical buffers on every rank.
func TestCollectiveParallelSerialIndependentIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy differential suite: skipped under -short")
	}
	const ranks = 4
	for _, sh := range collShapes() {
		t.Run(sh.name, func(t *testing.T) {
			full := drxmp.NewBox(make([]int, len(sh.bounds)), sh.bounds)
			fullBytes := make([][]byte, 3)
			rankReads := make([][3][]byte, ranks)
			err := cluster.Run(ranks, func(c *cluster.Comm) error {
				mk := func(name string, cpar int) (*drxmp.File, error) {
					return drxmp.Create(c, name, drxmp.Options{
						DType: drxmp.Float64, ChunkShape: sh.chunk, Bounds: sh.bounds,
						FS:     pfs.Options{Servers: 4, StripeSize: 1 << 10},
						Tuning: drxmp.Tuning{CollectiveParallelism: cpar},
					})
				}
				par8, err := mk("coll-par-"+sh.name, 8)
				if err != nil {
					return err
				}
				defer par8.Close()
				ser, err := mk("coll-ser-"+sh.name, -1)
				if err != nil {
					return err
				}
				defer ser.Close()
				ind, err := mk("coll-ind-"+sh.name, -1)
				if err != nil {
					return err
				}
				defer ind.Close()

				// Disjoint slab writes: collective (parallel and serial
				// aggregators) and independent must land the same bytes.
				box := slabBox(sh.bounds, ranks, c.Rank(), 0)
				data := rankData(c.Rank(), box, 1)
				if err := par8.WriteSectionAll(box, data, drxmp.RowMajor); err != nil {
					return err
				}
				if err := ser.WriteSectionAll(box, data, drxmp.RowMajor); err != nil {
					return err
				}
				if err := ind.WriteSection(box, data, drxmp.RowMajor); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}

				// Overlapping reads: every rank reads a slab widened into
				// its neighbors, through all three paths.
				rbox := slabBox(sh.bounds, ranks, c.Rank(), 3)
				var got [3][]byte
				for i := range got {
					got[i] = make([]byte, rbox.Volume()*8)
				}
				if err := par8.ReadSectionAll(rbox, got[0], drxmp.RowMajor); err != nil {
					return err
				}
				if err := ser.ReadSectionAll(rbox, got[1], drxmp.RowMajor); err != nil {
					return err
				}
				if err := par8.ReadSection(rbox, got[2], drxmp.RowMajor); err != nil {
					return err
				}
				rankReads[c.Rank()] = got

				// Rank 0 captures each file's full contents through the
				// independent path (no collective machinery involved).
				if c.Rank() == 0 {
					for i, f := range []*drxmp.File{par8, ser, ind} {
						buf := make([]byte, full.Volume()*8)
						if err := f.ReadSection(full, buf, drxmp.RowMajor); err != nil {
							return err
						}
						fullBytes[i] = buf
					}
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fullBytes[0], fullBytes[1]) {
				t.Error("collective-parallel file differs from collective-serial file")
			}
			if !bytes.Equal(fullBytes[0], fullBytes[2]) {
				t.Error("collective file differs from independently written file")
			}
			for r, got := range rankReads {
				if !bytes.Equal(got[0], got[1]) {
					t.Errorf("rank %d: parallel collective read differs from serial", r)
				}
				if !bytes.Equal(got[0], got[2]) {
					t.Errorf("rank %d: collective read differs from independent", r)
				}
			}
		})
	}
}

// TestCollectiveOverlappingWritesParallelSerialIdentical drives
// overlapping rank sections through collective writes: the outcome is
// defined (higher rank wins) and must not depend on the aggregator
// worker count.
func TestCollectiveOverlappingWritesParallelSerialIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy differential suite: skipped under -short")
	}
	const ranks = 4
	for _, sh := range collShapes() {
		t.Run(sh.name, func(t *testing.T) {
			full := drxmp.NewBox(make([]int, len(sh.bounds)), sh.bounds)
			var parBytes, serBytes []byte
			err := cluster.Run(ranks, func(c *cluster.Comm) error {
				mk := func(name string, cpar int) (*drxmp.File, error) {
					return drxmp.Create(c, name, drxmp.Options{
						DType: drxmp.Float64, ChunkShape: sh.chunk, Bounds: sh.bounds,
						FS:     pfs.Options{Servers: 4, StripeSize: 1 << 10},
						Tuning: drxmp.Tuning{CollectiveParallelism: cpar},
					})
				}
				par8, err := mk("ovl-par-"+sh.name, 8)
				if err != nil {
					return err
				}
				defer par8.Close()
				ser, err := mk("ovl-ser-"+sh.name, -1)
				if err != nil {
					return err
				}
				defer ser.Close()

				for trial := 0; trial < 3; trial++ {
					box := slabBox(sh.bounds, ranks, c.Rank(), 2+trial)
					data := rankData(c.Rank(), box, int64(10+trial))
					if err := par8.WriteSectionAll(box, data, drxmp.RowMajor); err != nil {
						return err
					}
					if err := ser.WriteSectionAll(box, data, drxmp.RowMajor); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					parBytes = make([]byte, full.Volume()*8)
					if err := par8.ReadSection(full, parBytes, drxmp.RowMajor); err != nil {
						return err
					}
					serBytes = make([]byte, full.Volume()*8)
					if err := ser.ReadSection(full, serBytes, drxmp.RowMajor); err != nil {
						return err
					}
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(parBytes, serBytes) {
				t.Error("overlapping collective writes: parallel aggregators diverged from serial")
			}
		})
	}
}

// TestCollectiveParallelismKnob pins the knob plumbing: option,
// SetTuning, and resolution.
func TestCollectiveParallelismKnob(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "knob", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: drxmp.Tuning{CollectiveParallelism: 6},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if got := f.CollectiveParallelism(); got != 6 {
			return fmt.Errorf("CollectiveParallelism() = %d, want 6", got)
		}
		if err := f.SetTuning(drxmp.Tuning{CollectiveParallelism: -1}); err != nil {
			return err
		}
		if got := f.CollectiveParallelism(); got != 1 {
			return fmt.Errorf("after SetTuning(CollectiveParallelism: -1): %d, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
