// Quickstart: create a disk-resident extendible array, write a
// sub-array, extend two different dimensions (no reorganization), and
// read data back in both C and Fortran memory order.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"drxmp"
	"drxmp/drx"
	"drxmp/internal/pfs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go runs it.
func run() error {
	dir, err := os.MkdirTemp("", "drx-quickstart")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "demo")

	// A 10x10 array of float64 stored as 2x3-element chunks — the
	// geometry of the paper's Fig. 1.
	a, err := drx.Create(path, drx.Options{
		DType:      drx.Float64,
		ChunkShape: []int{2, 3},
		Bounds:     []int{10, 10},
		FS:         pfs.Options{Backend: pfs.Disk},
	})
	if err != nil {
		return err
	}

	// Write a 4x5 sub-array at (2,3) in C order.
	box := drx.NewBox([]int{2, 3}, []int{6, 8})
	vals := make([]float64, box.Volume())
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if err := a.WriteFloat64s(box, vals, drx.RowMajor); err != nil {
		return err
	}
	fmt.Printf("wrote %d elements into %v\n", len(vals), box)

	// Extend dimension 1, then dimension 0 — the operations a
	// conventional array file cannot do without rewriting everything.
	if err := a.Extend(1, 8); err != nil {
		return err
	}
	if err := a.Extend(0, 4); err != nil {
		return err
	}
	fmt.Printf("extended to bounds %v (%d chunks on disk, no data moved)\n", a.Bounds(), a.Chunks())

	// Data written before the extensions is untouched.
	back, err := a.ReadFloat64s(box, drx.RowMajor)
	if err != nil {
		return err
	}
	for i := range vals {
		if back[i] != vals[i] {
			return fmt.Errorf("element %d changed after extension: %v != %v", i, back[i], vals[i])
		}
	}
	fmt.Println("verified: all pre-extension data intact")

	// Read the same box straight into Fortran order — the on-the-fly
	// transposition of the paper (no out-of-core transpose step).
	colVals, err := a.ReadFloat64s(box, drx.ColMajor)
	if err != nil {
		return err
	}
	fmt.Printf("C order row 0:      %v\n", vals[:5])
	col0 := make([]float64, 4)
	copy(col0, colVals[:4])
	fmt.Printf("Fortran order col 0: %v\n", col0)

	// Write into the newly grown region.
	if err := a.Set([]int{13, 17}, 99.5); err != nil {
		return err
	}
	v, err := a.At([]int{13, 17})
	if err != nil {
		return err
	}
	fmt.Printf("element in grown region: %v\n", v)

	if err := a.Close(); err != nil {
		return err
	}

	// Re-open: the metadata (axial vectors, stripe layout) round-trips
	// through .xmd.
	re, err := drx.Open(path, pfs.Options{}, drxmp.Tuning{})
	if err != nil {
		return err
	}
	defer re.Close()
	v, err = re.At([]int{13, 17})
	if err != nil {
		return err
	}
	fmt.Printf("re-opened: bounds=%v chunks=%d element (13,17)=%v\n", re.Bounds(), re.Chunks(), v)
	return nil
}
