package drxmp

import (
	"testing"

	"drxmp/internal/cluster"
)

// TestSyncWorkersResolution pins the DistArray section-sync worker
// bound: GetSection/PutSection fan out over CollectiveParallelism, the
// one per-rank worker knob.
func TestSyncWorkersResolution(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := Create(c, "syncw", Options{
			DType: Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: Tuning{CollectiveParallelism: 6},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		d, err := f.Distribute(RowMajor)
		if err != nil {
			return err
		}
		defer d.Free()
		if got := d.f.CollectiveParallelism(); got != 6 {
			t.Errorf("section-sync bound = %d, want 6", got)
		}
		if err := f.SetTuning(Tuning{CollectiveParallelism: -1}); err != nil {
			return err
		}
		if got := d.f.CollectiveParallelism(); got != 1 {
			t.Errorf("section-sync bound after serial SetTuning = %d, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
