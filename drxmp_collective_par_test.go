package drxmp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
)

// Shapes and slabs the collective tests share, and the plumbing of the
// two collective knobs. That the knobs never change the bytes is the
// model test's job (model_test.go).

// collShape is one array shape: bounds and chunk shape.
type collShape struct {
	name   string
	bounds []int
	chunk  []int
}

func collShapes() []collShape {
	return []collShape{
		{"2d-odd", []int{49, 27}, []int{13, 7}},
		{"2d-tall", []int{64, 24}, []int{16, 5}},
		{"3d", []int{12, 18, 10}, []int{5, 6, 7}},
	}
}

// slabBox carves bounds into `ranks` slabs along dim 0, which partition
// the array, and returns slab r.
func slabBox(bounds []int, ranks, r int) drxmp.Box {
	q := (bounds[0] + ranks - 1) / ranks
	lo, hi := make([]int, len(bounds)), slices.Clone(bounds)
	lo[0], hi[0] = min(r*q, bounds[0]), min((r+1)*q, bounds[0])
	return drxmp.NewBox(lo, hi)
}

// rankData derives a deterministic payload for (rank, box, salt).
func rankData(r int, box drxmp.Box, salt int64) []byte {
	data := make([]byte, box.Volume()*8)
	rand.New(rand.NewSource(salt*1000 + int64(r))).Read(data)
	return data
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
