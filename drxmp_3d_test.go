package drxmp

import (
	"fmt"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/workload"
	"drxmp/internal/zone"
)

// TestBlockCyclicParallelIO verifies collective I/O over the
// BLOCK_CYCLIC decomposition (many boxes per rank, heavily interleaved
// file accesses).
func TestBlockCyclicParallelIO(t *testing.T) {
	const ranks = 4
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := Create(c, "cyc", Options{
			DType:       Float64,
			ChunkShape:  []int{2, 2},
			Bounds:      []int{16, 16},
			Decomp:      zone.BlockCyclic,
			CyclicBlock: 1,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		my, err := f.MyZone()
		if err != nil {
			return err
		}
		if len(my) < 2 {
			return fmt.Errorf("rank %d: cyclic zone has %d boxes, expected several", c.Rank(), len(my))
		}
		// Matched collective calls across ranks: all ranks have the same
		// box count for this geometry (16/2=8 chunks per dim, 4 ranks in
		// a 2x2 grid, cyclic blocks of 1 -> 4x4 = 16 boxes each).
		for _, b := range my {
			vals := workload.FillBox(b, grid.RowMajor)
			if err := f.WriteSectionAll(b, encodeF64(vals), RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			full := NewBox([]int{0, 0}, []int{16, 16})
			got, err := f.ReadSectionFloat64s(full, RowMajor)
			if err != nil {
				return err
			}
			if bad := workload.Verify(full, got, grid.RowMajor); bad != nil {
				return fmt.Errorf("mismatch at %v", bad)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistributeRequiresBlock confirms the documented restriction.
func TestDistributeRequiresBlock(t *testing.T) {
	err := cluster.Run(2, func(c *cluster.Comm) error {
		f, err := Create(c, "nb", Options{
			DType: Float64, ChunkShape: []int{2, 2}, Bounds: []int{8, 8},
			Decomp: zone.BlockCyclic, CyclicBlock: 1,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.Distribute(RowMajor); err == nil {
			return fmt.Errorf("Distribute accepted a cyclic decomposition")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedGrowthRecordCount checks that the replicated metadata
// accumulates axial records identically on every rank under interleaved
// growth.
func TestInterleavedGrowthRecordCount(t *testing.T) {
	counts := make([]int, 4)
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Create(c, "gr", Options{
			DType: Float64, ChunkShape: []int{2, 2}, Bounds: []int{4, 4},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		for i := 0; i < 6; i++ {
			if err := f.Extend(i%2, 2); err != nil {
				return err
			}
		}
		counts[c.Rank()] = f.Meta().Space.NumRecords()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if counts[r] != counts[0] {
			t.Fatalf("rank %d has %d records, rank 0 has %d", r, counts[r], counts[0])
		}
	}
	// 6 interleaved extensions: the first dim-0 one merges with the
	// initial allocation; sentinel on dim 1 + root on dim 0 + 5 records.
	if counts[0] != 2+5 {
		t.Fatalf("records = %d, want 7", counts[0])
	}
}
