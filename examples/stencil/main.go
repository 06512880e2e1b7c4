// Stencil: the Global-Array processing model of the paper's Section II
// on a real kernel. Four ranks distribute a 2-D grid (BLOCK zones),
// iterate a Jacobi smoothing stencil using one-sided RMA for halo
// elements ("the element can be accessed either as a local array
// element or as a remote array element"), and periodically checkpoint
// into the extendible array file by growing a snapshot dimension — one
// snapshot per checkpoint, appended with no reorganization.
//
// Run with:
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"log"
	"math"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
)

const (
	ranks  = 4
	n      = 64 // grid is n x n
	iters  = 8
	ckEach = 4 // checkpoint every ckEach iterations
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go runs it.
func run() error {
	return cluster.Run(ranks, func(c *cluster.Comm) error {
		// The checkpoint file: (snapshot, i, j), starting with one
		// snapshot of capacity and growing along dimension 0.
		ck, err := drxmp.Create(c, "stencil-ck", drxmp.Options{
			DType:      drxmp.Float64,
			ChunkShape: []int{1, 16, 16},
			Bounds:     []int{1, n, n},
			FS:         pfs.Options{Servers: 2, StripeSize: 16 << 10},
		})
		if err != nil {
			return err
		}
		defer ck.Close()

		// The working grid: a separate 2-D principal array distributed
		// into zone memory.
		work, err := drxmp.Create(c, "stencil-grid", drxmp.Options{
			DType:      drxmp.Float64,
			ChunkShape: []int{16, 16},
			Bounds:     []int{n, n},
		})
		if err != nil {
			return err
		}
		defer work.Close()
		if c.Rank() == 0 {
			// Hot boundary on the top edge, cold elsewhere.
			full := drxmp.NewBox([]int{0, 0}, []int{n, n})
			vals := make([]float64, n*n)
			for j := 0; j < n; j++ {
				vals[j] = 100
			}
			if err := work.WriteSectionFloat64s(full, vals, drxmp.RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		da, err := work.Distribute(drxmp.RowMajor)
		if err != nil {
			return err
		}
		defer da.Free()

		my := da.LocalBox()
		sh := my.Shape()
		cur := make([]float64, my.Volume())
		for i := range cur {
			cur[i] = f64(da.LocalData()[i*8:])
		}
		next := make([]float64, len(cur))

		get := func(i, j int) (float64, error) {
			if i < 0 || i >= n || j < 0 || j >= n {
				return 0, nil // fixed zero boundary outside the grid
			}
			if my.Contains([]int{i, j}) {
				return cur[grid.Offset(sh, []int{i - my.Lo[0], j - my.Lo[1]}, grid.RowMajor)], nil
			}
			return da.Get([]int{i, j}) // halo: one-sided remote access
		}

		snapshots := 1
		for it := 0; it < iters; it++ {
			var remote int
			for li := 0; li < sh[0]; li++ {
				for lj := 0; lj < sh[1]; lj++ {
					gi, gj := my.Lo[0]+li, my.Lo[1]+lj
					if gi == 0 { // keep the hot edge fixed
						next[li*sh[1]+lj] = cur[li*sh[1]+lj]
						continue
					}
					up, err := get(gi-1, gj)
					if err != nil {
						return err
					}
					down, err := get(gi+1, gj)
					if err != nil {
						return err
					}
					left, err := get(gi, gj-1)
					if err != nil {
						return err
					}
					right, err := get(gi, gj+1)
					if err != nil {
						return err
					}
					if !my.Contains([]int{gi - 1, gj}) || !my.Contains([]int{gi + 1, gj}) ||
						!my.Contains([]int{gi, gj - 1}) || !my.Contains([]int{gi, gj + 1}) {
						remote++
					}
					next[li*sh[1]+lj] = 0.25 * (up + down + left + right)
				}
			}
			// Publish the new iterate into the window, epoch-delimited.
			if err := da.Fence(); err != nil {
				return err
			}
			copy(cur, next)
			for i, v := range cur {
				putF64(da.LocalData()[i*8:], v)
			}
			if err := da.Fence(); err != nil {
				return err
			}

			if (it+1)%ckEach == 0 {
				// Grow the snapshot dimension and write this iterate.
				if err := ck.Extend(0, 1); err != nil {
					return err
				}
				snapshots++
				snapBox := drxmp.NewBox(
					[]int{snapshots - 1, my.Lo[0], my.Lo[1]},
					[]int{snapshots, my.Hi[0], my.Hi[1]},
				)
				if err := ck.WriteSectionFloat64s(snapBox, cur, drxmp.RowMajor); err != nil {
					return err
				}
				if c.Rank() == 0 {
					fmt.Printf("iteration %d: checkpoint %d written (file now %v)\n",
						it+1, snapshots-1, ck.Bounds())
				}
			}
			if c.Rank() == 0 && it == 0 {
				fmt.Printf("rank 0: %d halo accesses went through one-sided RMA in iteration 1\n", remote)
			}
		}

		// Verify the last checkpoint: rank 0 reads the full snapshot and
		// checks the residual is sane (smoothing keeps values in [0,100]).
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			last := drxmp.NewBox([]int{snapshots - 1, 0, 0}, []int{snapshots, n, n})
			vals, err := ck.ReadSectionFloat64s(last, drxmp.RowMajor)
			if err != nil {
				return err
			}
			minV, maxV, sum := math.Inf(1), math.Inf(-1), 0.0
			for _, v := range vals {
				minV = math.Min(minV, v)
				maxV = math.Max(maxV, v)
				sum += v
			}
			if minV < 0 || maxV > 100 {
				return fmt.Errorf("checkpoint out of physical range: [%v, %v]", minV, maxV)
			}
			fmt.Printf("final checkpoint: min=%.3f max=%.3f mean=%.3f over %d cells, %d snapshots on disk\n",
				minV, maxV, sum/float64(len(vals)), len(vals), snapshots)
		}
		return nil
	})
}

func f64(p []byte) float64 {
	var u uint64
	for i := 7; i >= 0; i-- {
		u = u<<8 | uint64(p[i])
	}
	return math.Float64frombits(u)
}

func putF64(p []byte, v float64) {
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		p[i] = byte(u >> (8 * i))
	}
}
