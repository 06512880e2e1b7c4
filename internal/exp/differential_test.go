package exp

import (
	"math/rand"
	"testing"

	"drxmp"
	"drxmp/drx"
	"drxmp/internal/dra"
	"drxmp/internal/dtype"
	"drxmp/internal/grid"
	"drxmp/internal/hdf5sim"
	"drxmp/internal/pfs"
)

// TestDifferentialEngines drives the extendible-array library and the
// two baselines that support arbitrary boxes (dra, hdf5sim) through an
// identical random workload of writes, reads and extensions, checking
// all three always agree with an in-memory shadow array. This is the
// strongest correctness net in the repository: any divergence in
// chunking, addressing, extension or order handling shows up here.
func TestDifferentialEngines(t *testing.T) {
	const (
		trials = 6
		steps  = 40
		maxN   = 28
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n0 := 4 + rng.Intn(8)
		n1 := 4 + rng.Intn(8)
		c0 := 1 + rng.Intn(4)
		c1 := 1 + rng.Intn(4)

		ax, err := drx.Create("diff-ax", drx.Options{
			DType: drx.Float64, ChunkShape: []int{c0, c1}, Bounds: []int{n0, n1},
			// Tiny cache: force the eviction path.
			Tuning: drxmp.Tuning{CacheBytes: int64(4 * c0 * c1 * 8)},
		})
		if err != nil {
			t.Fatal(err)
		}
		ra, err := dra.Create("diff-ra", dtype.Float64, []int{n0, n1}, pfs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h5, err := hdf5sim.Create("diff-h5", hdf5sim.Options{
			DType: dtype.Float64, ChunkShape: []int{c0, c1}, Bounds: []int{n0, n1}, Fanout: 4,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Shadow: dense map of written values; bounds tracked separately.
		shadow := map[[2]int]float64{}
		bounds := []int{n0, n1}

		randBox := func() grid.Box {
			lo := []int{rng.Intn(bounds[0]), rng.Intn(bounds[1])}
			hi := []int{lo[0] + 1 + rng.Intn(bounds[0]-lo[0]), lo[1] + 1 + rng.Intn(bounds[1]-lo[1])}
			return grid.NewBox(lo, hi)
		}

		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // write a random box in a random order
				box := randBox()
				order := grid.Order(rng.Intn(2))
				vals := make([]float64, box.Volume())
				for i := range vals {
					vals[i] = rng.NormFloat64()
				}
				buf := dtype.EncodeFloat64s(dtype.Float64, vals)
				if err := ax.Write(box, buf, order); err != nil {
					t.Fatalf("trial %d step %d: drx write: %v", trial, step, err)
				}
				if err := ra.WriteBox(box, buf, order); err != nil {
					t.Fatalf("trial %d step %d: dra write: %v", trial, step, err)
				}
				if err := h5.WriteBox(box, buf, order); err != nil {
					t.Fatalf("trial %d step %d: h5 write: %v", trial, step, err)
				}
				sh := box.Shape()
				rel := make([]int, 2)
				box.Iterate(grid.RowMajor, func(idx []int) bool {
					rel[0], rel[1] = idx[0]-box.Lo[0], idx[1]-box.Lo[1]
					shadow[[2]int{idx[0], idx[1]}] = vals[grid.Offset(sh, rel, order)]
					return true
				})

			case op < 7: // read a random box in a random order, compare everywhere
				box := randBox()
				order := grid.Order(rng.Intn(2))
				readAll := func(name string, read func(grid.Box, []byte, grid.Order) error) []float64 {
					buf := make([]byte, box.Volume()*8)
					if err := read(box, buf, order); err != nil {
						t.Fatalf("trial %d step %d: %s read: %v", trial, step, name, err)
					}
					return dtype.DecodeFloat64s(dtype.Float64, buf, int(box.Volume()))
				}
				a := readAll("drx", ax.Read)
				b := readAll("dra", ra.ReadBox)
				c := readAll("h5", h5.ReadBox)
				sh := box.Shape()
				rel := make([]int, 2)
				box.Iterate(grid.RowMajor, func(idx []int) bool {
					off := grid.Offset(sh, []int{idx[0] - box.Lo[0], idx[1] - box.Lo[1]}, order)
					want := shadow[[2]int{idx[0], idx[1]}]
					if a[off] != want || b[off] != want || c[off] != want {
						t.Fatalf("trial %d step %d: divergence at %v (order %v): shadow=%v drx=%v dra=%v h5=%v",
							trial, step, idx, order, want, a[off], b[off], c[off])
					}
					_ = rel
					return true
				})

			default: // extend a random dimension on all engines
				dim := rng.Intn(2)
				by := 1 + rng.Intn(3)
				if bounds[dim]+by > maxN {
					continue
				}
				if err := ax.Extend(dim, by); err != nil {
					t.Fatalf("trial %d step %d: drx extend: %v", trial, step, err)
				}
				if err := ra.Extend(dim, by); err != nil {
					t.Fatalf("trial %d step %d: dra extend: %v", trial, step, err)
				}
				if err := h5.Extend(dim, by); err != nil {
					t.Fatalf("trial %d step %d: h5 extend: %v", trial, step, err)
				}
				bounds[dim] += by
			}
		}
		// Final full-array sweep in both orders.
		full := grid.BoxOf(grid.Shape(bounds))
		for _, order := range []grid.Order{grid.RowMajor, grid.ColMajor} {
			buf := make([]byte, full.Volume()*8)
			if err := ax.Read(full, buf, order); err != nil {
				t.Fatal(err)
			}
			vals := dtype.DecodeFloat64s(dtype.Float64, buf, int(full.Volume()))
			sh := full.Shape()
			full.Iterate(grid.RowMajor, func(idx []int) bool {
				off := grid.Offset(sh, idx, order)
				if vals[off] != shadow[[2]int{idx[0], idx[1]}] {
					t.Fatalf("trial %d final sweep (%v): mismatch at %v", trial, order, idx)
				}
				return true
			})
		}
		ax.Close()
		ra.Close()
		h5.Close()
	}
}
