// Transpose: a matrix is written once by a producer that thinks in C
// (row-major) order and consumed by a Fortran-order solver — the exact
// scenario the paper's introduction uses to motivate chunked storage
// ("an array file organized in row-major order causes applications that
// subsequently access the data in column-major order to have abysmal
// performance").
//
// The example stores the matrix as chunks, reads it back in both
// orders, verifies both against ground truth, and prints the I/O
// statistics showing both scans fetch each chunk at most once — no out-of-core
// transposition ever runs.
//
// Run with:
//
//	go run ./examples/transpose
package main

import (
	"fmt"
	"log"

	"drxmp"
	"drxmp/drx"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
)

const n = 256

func truth(i, j int) float64 { return float64(i)*1000 + float64(j) }

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go runs it.
func run() error {
	a, err := drx.Create("transpose-demo", drx.Options{
		DType:      drx.Float64,
		ChunkShape: []int{32, 32},
		Bounds:     []int{n, n},
		FS:         pfs.Options{Cost: pfs.DefaultCost()},
		// Cache one chunk row so scans are measured, not cached away.
		Tuning: drxmp.Tuning{CacheBytes: n / 32 * 32 * 32 * 8},
	})
	if err != nil {
		return err
	}
	defer a.Close()

	// Producer: writes row-major.
	full := drx.NewBox([]int{0, 0}, []int{n, n})
	vals := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vals[i*n+j] = truth(i, j)
		}
	}
	if err := a.WriteFloat64s(full, vals, drx.RowMajor); err != nil {
		return err
	}
	if err := a.Sync(); err != nil {
		return err
	}

	// Consumer 1: C-order scan, row slabs.
	a.FS().ResetStats()
	rowBuf := make([]byte, n*8)
	for i := 0; i < n; i++ {
		if err := a.Read(drx.NewBox([]int{i, 0}, []int{i + 1, n}), rowBuf, drx.RowMajor); err != nil {
			return err
		}
	}
	cStats := a.FS().Stats()

	// Consumer 2: Fortran-order scan, column slabs — same file.
	a.FS().ResetStats()
	colBuf := make([]byte, n*8)
	for j := 0; j < n; j++ {
		if err := a.Read(drx.NewBox([]int{0, j}, []int{n, j + 1}), colBuf, drx.ColMajor); err != nil {
			return err
		}
	}
	fStats := a.FS().Stats()

	// Verify a full Fortran-order materialization element by element.
	colVals, err := a.ReadFloat64s(full, drx.ColMajor)
	if err != nil {
		return err
	}
	checked := 0
	grid.BoxOf(grid.Shape{n, n}).Iterate(grid.RowMajor, func(idx []int) bool {
		i, j := idx[0], idx[1]
		if colVals[j*n+i] != truth(i, j) {
			err = fmt.Errorf("Fortran read wrong at (%d,%d)", i, j)
			return false
		}
		checked++
		return true
	})
	if err != nil {
		return err
	}

	fmt.Printf("verified %d elements in Fortran order (no out-of-core transpose)\n", checked)
	for _, sc := range []struct {
		name string
		st   pfs.Stats
	}{{"C-order scan:      ", cStats}, {"Fortran-order scan:", fStats}} {
		fmt.Printf("%s %5d requests, %4d seeks, %d bytes, sim %v\n",
			sc.name, sc.st.Requests(), sc.st.Seeks(), sc.st.Bytes(), sc.st.Elapsed())
	}
	fmt.Printf("each scan fetches every chunk at most once, a whole chunk per miss; the Fortran scan\n")
	fmt.Printf("seeks once per chunk (%d), where a plain row-major file would seek once per\n", fStats.Seeks())
	fmt.Printf("element (~%d) — see drxbench -exp e2\n", n*(n-1))
	return nil
}
