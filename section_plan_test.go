package drxmp

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// A section call's run lists and memory vector live in a plan from the
// file's free list. These tests pin what that buys (no allocation that
// grows with the section) and what it must not cost (a callee reading a
// recycled plan, two concurrent calls sharing one).

// Every test of the package runs with released plans poisoned, so a
// layer that kept a plan's runs or rows past its section call moves
// the bytes at offset 0.
func init() { poisonPlans = true }

// TestSectionIOAllocsFlat: ReadSection and WriteSection allocate as
// often for a 40-chunk box as for a 1-chunk box, and at most once: on
// rank-2 and rank-3 files, in the user order that makes rows
// unit-stride (the caller's rows are the memory vector) and in the one
// that does not (a pooled scratch, handed down as one Contig).
func TestSectionIOAllocsFlat(t *testing.T) {
	cases := []struct {
		bounds, chunk []int
		one, forty    Box
	}{
		{[]int{64, 64}, []int{8, 8},
			NewBox([]int{9, 10}, []int{15, 16}), NewBox([]int{3, 0}, []int{37, 64})},
		{[]int{16, 24, 20}, []int{4, 4, 4},
			NewBox([]int{5, 5, 5}, []int{7, 8, 8}), NewBox([]int{1, 2, 3}, []int{7, 15, 19})},
	}
	for _, tc := range cases {
		f, err := Create(cluster.Self(), fmt.Sprintf("allocs-flat-%d", len(tc.bounds)), Options{
			DType: Float64, ChunkShape: tc.chunk, Bounds: tc.bounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, user := range []Order{RowMajor, ColMajor} {
			for _, write := range []bool{false, true} {
				allocs := func(box Box) float64 {
					buf := make([]byte, box.Volume()*8)
					return testing.AllocsPerRun(100, func() {
						if err := f.sectionIO(box, buf, user, write, false); err != nil {
							t.Fatal(err)
						}
					})
				}
				one, forty := allocs(tc.one), allocs(tc.forty)
				if one != forty || forty > 1 {
					t.Errorf("rank %d, user order %v, write %v: %v allocs for 1 chunk, %v for 40; want equal and <= 1",
						len(tc.bounds), user, write, one, forty)
				}
			}
		}
		f.Close()
	}
}

// TestSectionPlansConcurrent: eight goroutines read and write disjoint
// boxes of one file at once, in both user orders, with and without the
// extent cache. The column bands they own cut through shared chunks,
// so their run lists interleave in the file; every read and the final
// whole-array read must match a shadow array, and the race detector
// watches the plans change hands.
func TestSectionPlansConcurrent(t *testing.T) {
	const rows, cols, workers, ops = 30, 64, 8, 60
	for _, cache := range []int64{0, 64 << 10} {
		t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) {
			f, err := Create(cluster.Self(), fmt.Sprintf("plans-concurrent-%d", cache), Options{
				DType: Float64, ChunkShape: []int{7, 5}, Bounds: []int{rows, cols},
				FS: pfs.Options{Servers: 4, StripeSize: 512}, Tuning: Tuning{CacheBytes: cache},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			shadow := make([]byte, rows*cols*8) // row-major; worker w owns columns [8w, 8w+8)
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- planWorker(f, shadow, rows, cols, w*cols/workers, (w+1)*cols/workers, ops, int64(w))
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			all := NewBox([]int{0, 0}, []int{rows, cols})
			got := make([]byte, len(shadow))
			if err := f.ReadSection(all, got, RowMajor); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, shadow) {
				t.Fatal("whole-array read differs from the shadow")
			}
		})
	}
}

// planWorker runs ops random section reads and writes inside columns
// [c0, c1) of f, keeping those columns of the row-major shadow current.
func planWorker(f *File, shadow []byte, rows, cols, c0, c1, ops int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for op := range ops {
		r0 := rng.Intn(rows)
		r1 := r0 + 1 + rng.Intn(rows-r0)
		lo := c0 + rng.Intn(c1-c0)
		hi := lo + 1 + rng.Intn(c1-lo)
		box := NewBox([]int{r0, lo}, []int{r1, hi})
		user := []Order{RowMajor, ColMajor}[rng.Intn(2)]
		buf := make([]byte, box.Volume()*8)
		// at is the byte offset of element (r, c) in buf.
		at := func(r, c int) int {
			if user == RowMajor {
				return ((r-r0)*(hi-lo) + c - lo) * 8
			}
			return ((c-lo)*(r1-r0) + r - r0) * 8
		}
		if rng.Intn(2) == 0 {
			rng.Read(buf)
			if err := f.WriteSection(box, buf, user); err != nil {
				return err
			}
			for r := r0; r < r1; r++ {
				for c := lo; c < hi; c++ {
					copy(shadow[(r*cols+c)*8:][:8], buf[at(r, c):][:8])
				}
			}
			continue
		}
		if err := f.ReadSection(box, buf, user); err != nil {
			return err
		}
		for r := r0; r < r1; r++ {
			for c := lo; c < hi; c++ {
				if !bytes.Equal(buf[at(r, c):][:8], shadow[(r*cols+c)*8:][:8]) {
					return fmt.Errorf("worker columns [%d,%d) op %d: read %v order %v: element (%d,%d) differs from the shadow",
						c0, c1, op, box, user, r, c)
				}
			}
		}
	}
	return nil
}
