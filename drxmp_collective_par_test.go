package drxmp_test

import (
	"math/rand"
	"slices"

	"drxmp"
)

// Shapes and slabs the collective tests share.

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
