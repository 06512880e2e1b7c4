// Out-of-core matrix multiply: C = A·B where all three matrices live
// in extendible array files, computed block-wise by a 4-rank parallel
// program — the ScaLAPACK-style workload the paper's introduction
// motivates ("the extensive use of algebraic libraries ... attest to
// the array/matrix data model").
//
// The demonstration has two acts:
//
//  1. Each rank owns a zone of C (the BLOCK×BLOCK decomposition of
//     Fig. 1), reads the A row-panels and B column-panels it needs
//     straight from the array files, multiplies, and writes its C zone
//     back. No rank ever materializes a whole matrix.
//
//  2. The problem then *grows*: new columns are appended to B (think
//     new right-hand sides arriving), which extends B and C along
//     dimension 1 — the extension conventional formats cannot do
//     without rewriting the file. Only the new C columns are computed;
//     every previously written C byte is untouched, and the final
//     verification covers old and new regions alike.
//
// Run with:
//
//	go run ./examples/oocmatmul
package main

import (
	"fmt"
	"log"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
)

const (
	ranks = 4
	m     = 48 // rows of A and C
	kDim  = 40 // columns of A = rows of B
	n     = 32 // columns of B and C (before growth)
	nGrow = 16 // columns appended to B and C in act 2
)

// aVal and bVal define the input matrices; integer-valued so the
// float64 dot products are exact and verification can use ==.
func aVal(i, j int) float64 { return float64((i+2*j)%7 - 3) }
func bVal(i, j int) float64 { return float64((3*i+j)%5 - 2) }

// cVal is the ground-truth dot product.
func cVal(i, j int) float64 {
	var s float64
	for t := 0; t < kDim; t++ {
		s += aVal(i, t) * bVal(t, j)
	}
	return s
}

// fillSection writes val(i,j) over the given box of f from rank 0.
func fillSection(f *drxmp.File, box drxmp.Box, val func(i, j int) float64) error {
	vals := make([]float64, box.Volume())
	at := 0
	box.Iterate(grid.RowMajor, func(idx []int) bool {
		vals[at] = val(idx[0], idx[1])
		at++
		return true
	})
	return f.WriteSectionFloat64s(box, vals, drxmp.RowMajor)
}

// multiplyZone computes C[zone] = A[rows,:]·B[:,cols] by reading the
// needed panels from the array files and writes the result back.
func multiplyZone(a, b, cf *drxmp.File, zone drxmp.Box) error {
	rows := zone.Hi[0] - zone.Lo[0]
	cols := zone.Hi[1] - zone.Lo[1]
	// Row panel of A covering the zone's rows (rows × kDim).
	aPanel, err := a.ReadSectionFloat64s(
		drxmp.NewBox([]int{zone.Lo[0], 0}, []int{zone.Hi[0], kDim}), drxmp.RowMajor)
	if err != nil {
		return fmt.Errorf("read A panel: %w", err)
	}
	// Column panel of B covering the zone's columns (kDim × cols).
	bPanel, err := b.ReadSectionFloat64s(
		drxmp.NewBox([]int{0, zone.Lo[1]}, []int{kDim, zone.Hi[1]}), drxmp.RowMajor)
	if err != nil {
		return fmt.Errorf("read B panel: %w", err)
	}
	out := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for t := 0; t < kDim; t++ {
			av := aPanel[i*kDim+t]
			if av == 0 {
				continue
			}
			brow := bPanel[t*cols:]
			crow := out[i*cols:]
			for j := 0; j < cols; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return cf.WriteSectionFloat64s(zone, out, drxmp.RowMajor)
}

// verify checks C == A·B over the given column range [colLo, colHi).
func verify(cf *drxmp.File, colLo, colHi int) error {
	box := drxmp.NewBox([]int{0, colLo}, []int{m, colHi})
	got, err := cf.ReadSectionFloat64s(box, drxmp.RowMajor)
	if err != nil {
		return err
	}
	at := 0
	var bad error
	box.Iterate(grid.RowMajor, func(idx []int) bool {
		if want := cVal(idx[0], idx[1]); got[at] != want {
			bad = fmt.Errorf("C[%d,%d] = %v, want %v", idx[0], idx[1], got[at], want)
			return false
		}
		at++
		return true
	})
	return bad
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go runs it.
func run() error {
	return cluster.Run(ranks, func(c *cluster.Comm) error {
		fsOpts := pfs.Options{Servers: 4, StripeSize: 16 << 10}
		newFile := func(name string, bounds []int) (*drxmp.File, error) {
			return drxmp.Create(c, name, drxmp.Options{
				DType:      drxmp.Float64,
				ChunkShape: []int{8, 8},
				Bounds:     bounds,
				FS:         fsOpts,
			})
		}
		a, err := newFile("matA", []int{m, kDim})
		if err != nil {
			return err
		}
		defer a.Close()
		b, err := newFile("matB", []int{kDim, n})
		if err != nil {
			return err
		}
		defer b.Close()
		cf, err := newFile("matC", []int{m, n})
		if err != nil {
			return err
		}
		defer cf.Close()

		// Rank 0 seeds the inputs; everyone waits for the data.
		if c.Rank() == 0 {
			if err := fillSection(a, drxmp.NewBox([]int{0, 0}, []int{m, kDim}), aVal); err != nil {
				return err
			}
			if err := fillSection(b, drxmp.NewBox([]int{0, 0}, []int{kDim, n}), bVal); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Act 1: every rank multiplies its zone of C.
		zones, err := cf.MyZone()
		if err != nil {
			return err
		}
		for _, zone := range zones {
			if err := multiplyZone(a, b, cf, zone); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := verify(cf, 0, n); err != nil {
				return fmt.Errorf("act 1 verification: %w", err)
			}
			fmt.Printf("act 1: C(%dx%d) = A(%dx%d) x B(%dx%d) verified across %d ranks\n",
				m, n, m, kDim, kDim, n, ranks)
		}

		// Act 2: the problem grows — nGrow new columns of B arrive.
		// Extending dimension 1 is exactly what a row-major array file
		// cannot do without a rewrite; here it is a metadata operation.
		if err := b.Extend(1, nGrow); err != nil {
			return err
		}
		if err := cf.Extend(1, nGrow); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := fillSection(b, drxmp.NewBox([]int{0, n}, []int{kDim, n + nGrow}), bVal); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Only the new C columns need computing. Split them by rank in
		// row bands.
		rowsPer := (m + ranks - 1) / ranks
		lo := c.Rank() * rowsPer
		hi := min(lo+rowsPer, m)
		if lo < hi {
			newCols := drxmp.NewBox([]int{lo, n}, []int{hi, n + nGrow})
			if err := multiplyZone(a, b, cf, newCols); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Verify everything: the old region (must be untouched by
			// the extension) and the new columns.
			if err := verify(cf, 0, n+nGrow); err != nil {
				return fmt.Errorf("act 2 verification: %w", err)
			}
			fmt.Printf("act 2: B and C grew to %d columns in place; full C verified, old bytes untouched\n", n+nGrow)
			fmt.Printf("chunks in C: %d (axial records: %d)\n", cf.Chunks(), cf.Meta().Space.NumRecords())
		}
		return nil
	})
}
