package drxmp_test

import (
	"bytes"
	"fmt"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// Differential suite for the elevator scheduler + adaptive cb_nodes:
// collective reads/writes through elevator-scheduled servers with
// adaptive (or extreme) aggregator counts must be byte-identical to
// the FIFO + one-aggregator-per-rank baseline across 2-D/3-D shapes,
// odd chunk sizes, and overlapping rank sections. Request reordering,
// merging, and domain re-carving may only change *when* bytes move,
// never *which* bytes.

// schedVariant is one scheduler/aggregator configuration under test.
type schedVariant struct {
	name    string
	sched   pfs.Scheduler
	cbNodes int
}

func schedVariants() []schedVariant {
	return []schedVariant{
		{"fifo-fixed", pfs.FIFO, -1},           // the PR 2 baseline
		{"elevator-adaptive", pfs.Elevator, 0}, // the new default stack
		{"elevator-cb1", pfs.Elevator, 1},      // extreme funneling
		{"fifo-adaptive", pfs.FIFO, 0},         // cb_nodes alone
	}
}

// TestCollectiveSchedulerCBNodesIdentical writes disjoint slabs and
// reads overlapping sections through every scheduler/cb_nodes variant,
// requiring all resulting files and all read buffers to match the
// fifo-fixed baseline exactly.
func TestCollectiveSchedulerCBNodesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy differential suite: skipped under -short")
	}
	const ranks = 4
	variants := schedVariants()
	for _, sh := range collShapes() {
		t.Run(sh.name, func(t *testing.T) {
			full := drxmp.NewBox(make([]int, len(sh.bounds)), sh.bounds)
			fullBytes := make([][]byte, len(variants))
			rankReads := make([][][]byte, ranks)
			for r := range rankReads {
				rankReads[r] = make([][]byte, len(variants))
			}
			err := cluster.Run(ranks, func(c *cluster.Comm) error {
				files := make([]*drxmp.File, len(variants))
				for i, v := range variants {
					f, err := drxmp.Create(c, fmt.Sprintf("sched-%s-%s", v.name, sh.name), drxmp.Options{
						DType: drxmp.Float64, ChunkShape: sh.chunk, Bounds: sh.bounds,
						FS: pfs.Options{
							Servers: 4, StripeSize: 1 << 10, Scheduler: v.sched,
						},
						Tuning: drxmp.Tuning{
							CollectiveParallelism: 8,
							CBNodes:               v.cbNodes,
						},
					})
					if err != nil {
						return err
					}
					defer f.Close()
					files[i] = f
				}

				// Disjoint slab writes through every variant.
				box := slabBox(sh.bounds, ranks, c.Rank(), 0)
				data := rankData(c.Rank(), box, 21)
				for _, f := range files {
					if err := f.WriteSectionAll(box, data, drxmp.RowMajor); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}

				// Overlapping collective reads through every variant.
				rbox := slabBox(sh.bounds, ranks, c.Rank(), 3)
				for i, f := range files {
					got := make([]byte, rbox.Volume()*8)
					if err := f.ReadSectionAll(rbox, got, drxmp.RowMajor); err != nil {
						return err
					}
					rankReads[c.Rank()][i] = got
				}

				// Rank 0 captures each file's full contents through the
				// independent path (no collective machinery involved).
				if c.Rank() == 0 {
					for i, f := range files {
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
			for i := 1; i < len(variants); i++ {
				if !bytes.Equal(fullBytes[0], fullBytes[i]) {
					t.Errorf("file under %s differs from %s baseline", variants[i].name, variants[0].name)
				}
				for r := range rankReads {
					if !bytes.Equal(rankReads[r][0], rankReads[r][i]) {
						t.Errorf("rank %d: %s collective read differs from %s", r, variants[i].name, variants[0].name)
					}
				}
			}
		})
	}
}

// TestCollectiveSchedulerOverlappingWrites drives overlapping rank
// sections (higher rank wins, per the documented overlay order)
// through every variant: the deterministic outcome must survive
// elevator reordering and aggregator re-carving.
func TestCollectiveSchedulerOverlappingWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy differential suite: skipped under -short")
	}
	const ranks = 4
	variants := schedVariants()
	for _, sh := range collShapes() {
		t.Run(sh.name, func(t *testing.T) {
			full := drxmp.NewBox(make([]int, len(sh.bounds)), sh.bounds)
			fullBytes := make([][]byte, len(variants))
			err := cluster.Run(ranks, func(c *cluster.Comm) error {
				files := make([]*drxmp.File, len(variants))
				for i, v := range variants {
					f, err := drxmp.Create(c, fmt.Sprintf("sovl-%s-%s", v.name, sh.name), drxmp.Options{
						DType: drxmp.Float64, ChunkShape: sh.chunk, Bounds: sh.bounds,
						FS: pfs.Options{
							Servers: 4, StripeSize: 1 << 10, Scheduler: v.sched,
						},
						Tuning: drxmp.Tuning{
							CollectiveParallelism: 8,
							CBNodes:               v.cbNodes,
						},
					})
					if err != nil {
						return err
					}
					defer f.Close()
					files[i] = f
				}
				for trial := 0; trial < 3; trial++ {
					box := slabBox(sh.bounds, ranks, c.Rank(), 2+trial)
					data := rankData(c.Rank(), box, int64(40+trial))
					for _, f := range files {
						if err := f.WriteSectionAll(box, data, drxmp.RowMajor); err != nil {
							return err
						}
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					for i, f := range files {
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
			for i := 1; i < len(variants); i++ {
				if !bytes.Equal(fullBytes[0], fullBytes[i]) {
					t.Errorf("overlapping writes under %s diverged from %s", variants[i].name, variants[0].name)
				}
			}
		})
	}
}

// TestCBNodesKnob pins the drxmp-level plumbing of the aggregator
// knob: option, SetTuning, and accessor.
func TestCBNodesKnob(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "cbknob", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: drxmp.Tuning{CBNodes: 3},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if got := f.CBNodes(); got != 3 {
			return fmt.Errorf("CBNodes() = %d, want 3", got)
		}
		if err := f.SetTuning(drxmp.Tuning{CBNodes: -1}); err != nil {
			return err
		}
		if got := f.CBNodes(); got != -1 {
			return fmt.Errorf("after SetTuning(CBNodes: -1): %d, want -1", got)
		}
		if got := f.IO().CBNodes; got != -1 {
			return fmt.Errorf("IO().CBNodes = %d, want -1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
