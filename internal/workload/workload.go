// Package workload generates the deterministic array contents, growth
// schedules and access patterns used by the examples and the benchmark
// harness. Everything is seeded so experiment output is reproducible
// run to run.
package workload

import (
	"math/rand"

	"drxmp/internal/grid"
)

// Fill produces the canonical deterministic value for an element index:
// a polynomial of the coordinates (stable across layouts, so any
// read-back in any order can be verified analytically).
func Fill(idx []int) float64 {
	v := 1.0
	acc := 0.0
	for _, i := range idx {
		acc = acc*1000 + float64(i)
		v += float64(i)
	}
	return acc + v/1e6
}

// FillBox materializes Fill over a box, densely in the given order.
func FillBox(box grid.Box, order grid.Order) []float64 {
	sh := box.Shape()
	out := make([]float64, box.Volume())
	rel := make([]int, box.Rank())
	box.Iterate(grid.RowMajor, func(idx []int) bool {
		for d := range idx {
			rel[d] = idx[d] - box.Lo[d]
		}
		out[grid.Offset(sh, rel, order)] = Fill(idx)
		return true
	})
	return out
}

// GrowthStep is one extension event of a schedule.
type GrowthStep struct {
	Dim int
	By  int // element indices
}

// Schedule is a deterministic growth schedule.
type Schedule []GrowthStep

// RoundRobinSchedule grows every dimension in turn — the adversarial
// case for one-dimension-extendible formats.
func RoundRobinSchedule(rank, steps, by int) Schedule {
	s := make(Schedule, steps)
	for i := range s {
		s[i] = GrowthStep{Dim: i % rank, By: by}
	}
	return s
}

// RandomSchedule grows random dimensions by random amounts (seeded).
func RandomSchedule(rank, steps, maxBy int, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := make(Schedule, steps)
	for i := range s {
		s[i] = GrowthStep{Dim: rng.Intn(rank), By: 1 + rng.Intn(maxBy)}
	}
	return s
}

// RandomBoxes yields n random sub-boxes of the given bounds with edge
// lengths in [1, maxEdge] (seeded) — the random-access workload.
func RandomBoxes(bounds []int, n, maxEdge int, seed int64) []grid.Box {
	rng := rand.New(rand.NewSource(seed))
	out := make([]grid.Box, n)
	for i := range out {
		lo := make([]int, len(bounds))
		hi := make([]int, len(bounds))
		for d, b := range bounds {
			e := 1 + rng.Intn(maxEdge)
			if e > b {
				e = b
			}
			lo[d] = rng.Intn(b - e + 1)
			hi[d] = lo[d] + e
		}
		out[i] = grid.Box{Lo: lo, Hi: hi}
	}
	return out
}

// Verify checks a dense buffer read back from a box against Fill,
// returning the index of the first mismatch (nil if clean).
func Verify(box grid.Box, vals []float64, order grid.Order) []int {
	sh := box.Shape()
	rel := make([]int, box.Rank())
	var bad []int
	box.Iterate(grid.RowMajor, func(idx []int) bool {
		for d := range idx {
			rel[d] = idx[d] - box.Lo[d]
		}
		if vals[grid.Offset(sh, rel, order)] != Fill(idx) {
			bad = append([]int(nil), idx...)
			return false
		}
		return true
	})
	return bad
}
