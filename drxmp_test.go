package drxmp

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
)

func defaultOpts() Options {
	return Options{
		DType:      Float64,
		ChunkShape: []int{2, 3},
		Bounds:     []int{10, 10},
	}
}

func TestCreateReplicatesMetadata(t *testing.T) {
	blobs := make([][]byte, 4)
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Create(c, "arr", defaultOpts())
		if err != nil {
			return err
		}
		blobs[c.Rank()] = f.Meta().Encode()
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if !bytes.Equal(blobs[0], blobs[r]) {
			t.Fatalf("rank %d metadata replica differs", r)
		}
	}
}

func TestCreateValidation(t *testing.T) {
	err := cluster.Run(2, func(c *cluster.Comm) error {
		if _, err := Create(c, "arr", Options{DType: Float64, ChunkShape: []int{0}, Bounds: []int{4}}); err == nil {
			return fmt.Errorf("bad chunk shape accepted")
		}
		if _, err := Create(c, "arr", Options{DType: Float64, ChunkShape: []int{2}, Bounds: []int{4}, Order: Order(7)}); err == nil {
			return fmt.Errorf("bad order accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFig1ZonesAndCollectiveRead is the end-to-end Fig. 1 scenario:
// grow a 2-D array of 2x3 chunks to the 5x4 grid via the paper's
// expansion history, verify the zones, write known data serially, and
// have 4 processes collectively read their zones.
func TestFig1ZonesAndCollectiveRead(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Create(c, "fig1", Options{
			DType:      Float64,
			ChunkShape: []int{2, 3},
			Bounds:     []int{2, 3}, // one chunk
		})
		if err != nil {
			return err
		}
		defer f.Close()
		// The paper's expansion history in element units (one chunk per
		// extension along the respective dimension).
		steps := []struct{ dim, by int }{
			{1, 3}, {0, 2}, {0, 2}, {1, 3}, {0, 2}, {1, 3}, {0, 2},
		}
		for _, s := range steps {
			if err := f.Extend(s.dim, s.by); err != nil {
				return err
			}
		}
		if got := f.Bounds(); !reflect.DeepEqual(got, []int{10, 12}) {
			return fmt.Errorf("bounds = %v", got)
		}
		if f.Chunks() != 20 {
			return fmt.Errorf("chunks = %d", f.Chunks())
		}
		// Zones must match the figure.
		d, err := f.Decomp()
		if err != nil {
			return err
		}
		wantZones := []Box{
			NewBox([]int{0, 0}, []int{3, 2}),
			NewBox([]int{0, 2}, []int{3, 4}),
			NewBox([]int{3, 0}, []int{5, 2}),
			NewBox([]int{3, 2}, []int{5, 4}),
		}
		zs := d.ZoneOf(c.Rank())
		if len(zs) != 1 || !zs[0].Equal(wantZones[c.Rank()]) {
			return fmt.Errorf("rank %d zone = %v, want %v", c.Rank(), zs, wantZones[c.Rank()])
		}
		// Rank 0 writes ground truth: value = 100*i + j.
		full := NewBox([]int{0, 0}, []int{10, 12})
		if c.Rank() == 0 {
			vals := make([]float64, full.Volume())
			at := 0
			for i := 0; i < 10; i++ {
				for j := 0; j < 12; j++ {
					vals[at] = float64(100*i + j)
					at++
				}
			}
			if err := f.WriteSectionFloat64s(full, vals, RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Everyone collectively reads its zone.
		my, err := f.MyZone()
		if err != nil {
			return err
		}
		if len(my) != 1 {
			return fmt.Errorf("rank %d has %d zone boxes", c.Rank(), len(my))
		}
		buf := make([]byte, my[0].Volume()*8)
		if err := f.ReadSectionAll(my[0], buf, RowMajor); err != nil {
			return err
		}
		sh := my[0].Shape()
		at := 0
		for i := my[0].Lo[0]; i < my[0].Hi[0]; i++ {
			for j := my[0].Lo[1]; j < my[0].Hi[1]; j++ {
				want := float64(100*i + j)
				got := f64(buf[at*8:])
				if got != want {
					return fmt.Errorf("rank %d zone (%d,%d) = %v, want %v", c.Rank(), i, j, got, want)
				}
				at++
			}
		}
		_ = sh
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func f64(p []byte) float64 {
	u := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
	return math.Float64frombits(u)
}

func putF64bits(p []byte, v float64) {
	u := math.Float64bits(v)
	p[0], p[1], p[2], p[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
	p[4], p[5], p[6], p[7] = byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56)
}

// TestParallelWriteSerialRead: each rank writes its zone collectively,
// then rank 0 reads the full array and checks every element.
func TestParallelWriteSerialRead(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 6} {
		t.Run(fmt.Sprintf("P%d", ranks), func(t *testing.T) {
			err := cluster.Run(ranks, func(c *cluster.Comm) error {
				f, err := Create(c, "w", Options{
					DType:      Float64,
					ChunkShape: []int{3, 4},
					Bounds:     []int{11, 13},
				})
				if err != nil {
					return err
				}
				defer f.Close()
				my, err := f.MyZone()
				if err != nil {
					return err
				}
				var box Box
				if len(my) == 1 {
					box = my[0]
					vals := make([]float64, box.Volume())
					at := 0
					box.Iterate(grid.RowMajor, func(idx []int) bool {
						vals[at] = float64(1000*idx[0] + idx[1])
						at++
						return true
					})
					if err := f.WriteSectionAll(box, encodeF64(vals), RowMajor); err != nil {
						return err
					}
				} else {
					if err := f.WriteSectionAll(Box{Lo: []int{0, 0}, Hi: []int{0, 0}}, nil, RowMajor); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					full := NewBox([]int{0, 0}, []int{11, 13})
					got, err := f.ReadSectionFloat64s(full, RowMajor)
					if err != nil {
						return err
					}
					at := 0
					for i := 0; i < 11; i++ {
						for j := 0; j < 13; j++ {
							if got[at] != float64(1000*i+j) {
								return fmt.Errorf("(%d,%d) = %v", i, j, got[at])
							}
							at++
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func encodeF64(vals []float64) []byte {
	out := make([]byte, len(vals)*8)
	for i, v := range vals {
		putF64bits(out[i*8:], v)
	}
	return out
}

// TestParallelExtendNoReorganization is experiment E9's invariant: after
// a collective extension and parallel writes of the new region, the old
// region's bytes in the file are untouched.
func TestParallelExtendNoReorganization(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Create(c, "e9", Options{
			DType:      Float64,
			ChunkShape: []int{2, 2},
			Bounds:     []int{8, 8},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		full := NewBox([]int{0, 0}, []int{8, 8})
		if c.Rank() == 0 {
			vals := make([]float64, 64)
			for i := range vals {
				vals[i] = float64(i + 1)
			}
			if err := f.WriteSectionFloat64s(full, vals, RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Snapshot the raw file bytes of the original 16 chunks.
		before := make([]byte, 16*f.Meta().ChunkBytes())
		if _, err := f.FS().ReadAt(before, 0); err != nil {
			return err
		}
		// Collective extension along dimension 1, then every rank writes
		// a stripe of the new region.
		if err := f.Extend(1, 4); err != nil {
			return err
		}
		newBox := NewBox([]int{2 * c.Rank(), 8}, []int{2*c.Rank() + 2, 12})
		vals := make([]float64, newBox.Volume())
		for i := range vals {
			vals[i] = float64(-c.Rank() - 1)
		}
		if err := f.WriteSectionAll(newBox, encodeF64(vals), RowMajor); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		after := make([]byte, len(before))
		if _, err := f.FS().ReadAt(after, 0); err != nil {
			return err
		}
		if !bytes.Equal(before, after) {
			return fmt.Errorf("rank %d: original chunk bytes changed after parallel extension", c.Rank())
		}
		// And the new region holds what was written.
		if c.Rank() == 0 {
			got, err := f.ReadSectionFloat64s(NewBox([]int{0, 8}, []int{8, 12}), RowMajor)
			if err != nil {
				return err
			}
			for i, v := range got {
				wantRank := (i / 4) / 2 // row i/4, two rows per rank
				if v != float64(-wantRank-1) {
					return fmt.Errorf("new region elem %d = %v, want %v", i, v, float64(-wantRank-1))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransposedParallelRead: write in C order, every rank reads its
// zone in Fortran order; verify the permutation.
func TestTransposedParallelRead(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Create(c, "tr", defaultOpts())
		if err != nil {
			return err
		}
		defer f.Close()
		if c.Rank() == 0 {
			vals := make([]float64, 100)
			for i := range vals {
				vals[i] = float64(i)
			}
			if err := f.WriteSectionFloat64s(NewBox([]int{0, 0}, []int{10, 10}), vals, RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		my, err := f.MyZone()
		if err != nil {
			return err
		}
		box := my[0]
		buf := make([]byte, box.Volume()*8)
		if err := f.ReadSectionAll(box, buf, ColMajor); err != nil {
			return err
		}
		sh := box.Shape()
		for i := box.Lo[0]; i < box.Hi[0]; i++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				off := grid.Offset(sh, []int{i - box.Lo[0], j - box.Lo[1]}, ColMajor)
				if got := f64(buf[off*8:]); got != float64(10*i+j) {
					return fmt.Errorf("rank %d (%d,%d) = %v", c.Rank(), i, j, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOwnerOf(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Create(c, "own", defaultOpts())
		if err != nil {
			return err
		}
		defer f.Close()
		// Every element's owner's zone must contain it.
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				r, err := f.OwnerOf([]int{i, j})
				if err != nil {
					return err
				}
				zb, err := f.ZoneBoxes(r)
				if err != nil {
					return err
				}
				found := false
				for _, b := range zb {
					if b.Contains([]int{i, j}) {
						found = true
					}
				}
				if !found {
					return fmt.Errorf("element (%d,%d): owner %d's zone misses it", i, j, r)
				}
			}
		}
		if _, err := f.OwnerOf([]int{10, 0}); err == nil {
			return fmt.Errorf("out-of-bounds OwnerOf accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDiskPersistenceParallel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "parr")
	opts := defaultOpts()
	opts.FS = pfs.Options{Backend: pfs.Disk, Servers: 3, StripeSize: 128, Dir: dir}
	err := cluster.Run(2, func(c *cluster.Comm) error {
		f, err := Create(c, path, opts)
		if err != nil {
			return err
		}
		my, err := f.MyZone()
		if err != nil {
			return err
		}
		box := my[0]
		vals := make([]float64, box.Volume())
		for i := range vals {
			vals[i] = float64(c.Rank()*1000 + i)
		}
		if err := f.WriteSectionAll(box, encodeF64(vals), RowMajor); err != nil {
			return err
		}
		if err := f.Extend(0, 5); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Re-open with a different process count.
	err = cluster.Run(3, func(c *cluster.Comm) error {
		f, err := OpenWith(c, path, OpenOptions{FS: pfs.Options{Servers: 3, StripeSize: 128, Dir: dir}})
		if err != nil {
			return err
		}
		defer f.Close()
		if got := f.Bounds(); !reflect.DeepEqual(got, []int{15, 10}) {
			return fmt.Errorf("reopened bounds = %v", got)
		}
		// Data written by the 2-rank run must be intact (spot check
		// rank-0-of-2's zone corner, which was (0,0)).
		got, err := f.ReadSectionFloat64s(NewBox([]int{0, 0}, []int{1, 1}), RowMajor)
		if err != nil {
			return err
		}
		if got[0] != 0 {
			return fmt.Errorf("corner = %v", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSectionValidation(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := Create(c, "v", defaultOpts())
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.ReadSection(NewBox([]int{0}, []int{1}), make([]byte, 8), RowMajor); err == nil {
			return fmt.Errorf("rank mismatch accepted")
		}
		if err := f.ReadSection(NewBox([]int{0, 0}, []int{11, 1}), make([]byte, 88), RowMajor); err == nil {
			return fmt.Errorf("out-of-bounds accepted")
		}
		if err := f.ReadSection(NewBox([]int{0, 0}, []int{2, 2}), make([]byte, 8), RowMajor); err == nil {
			return fmt.Errorf("short buffer accepted")
		}
		if err := f.WriteSectionFloat64s(NewBox([]int{0, 0}, []int{2, 2}), []float64{1}, RowMajor); err == nil {
			return fmt.Errorf("short values accepted")
		}
		if err := f.Extend(0, 0); err == nil {
			return fmt.Errorf("zero extend accepted")
		}
		if err := f.Extend(5, 1); err == nil {
			return fmt.Errorf("bad dim accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- DistArray ---

func TestDistributeAndRMA(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Create(c, "ga", defaultOpts())
		if err != nil {
			return err
		}
		defer f.Close()
		if c.Rank() == 0 {
			vals := make([]float64, 100)
			for i := range vals {
				vals[i] = float64(i)
			}
			if err := f.WriteSectionFloat64s(NewBox([]int{0, 0}, []int{10, 10}), vals, RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		da, err := f.Distribute(RowMajor)
		if err != nil {
			return err
		}
		defer da.Free()
		// Every rank reads every element (mostly remote).
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				got, err := da.Get([]int{i, j})
				if err != nil {
					return err
				}
				if got != float64(10*i+j) {
					return fmt.Errorf("rank %d Get(%d,%d) = %v", c.Rank(), i, j, got)
				}
			}
		}
		if err := da.Fence(); err != nil {
			return err
		}
		// Rank 3 updates a remote element; after a fence everyone sees it.
		if c.Rank() == 3 {
			if err := da.Set([]int{0, 0}, -5); err != nil {
				return err
			}
		}
		if err := da.Fence(); err != nil {
			return err
		}
		if got, _ := da.Get([]int{0, 0}); got != -5 {
			return fmt.Errorf("rank %d sees (0,0) = %v after remote Set", c.Rank(), got)
		}
		// Concurrent accumulate onto one element.
		if err := da.Acc([]int{9, 9}, 1); err != nil {
			return err
		}
		if err := da.Fence(); err != nil {
			return err
		}
		if got, _ := da.Get([]int{9, 9}); got != float64(99+4) {
			return fmt.Errorf("acc result = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistArrayGetSection(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Create(c, "gs", defaultOpts())
		if err != nil {
			return err
		}
		defer f.Close()
		if c.Rank() == 0 {
			vals := make([]float64, 100)
			for i := range vals {
				vals[i] = float64(i) * 2
			}
			if err := f.WriteSectionFloat64s(NewBox([]int{0, 0}, []int{10, 10}), vals, RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		da, err := f.Distribute(RowMajor)
		if err != nil {
			return err
		}
		defer da.Free()
		// A section spanning all four zones.
		box := NewBox([]int{2, 3}, []int{8, 9})
		buf := make([]byte, box.Volume()*8)
		if err := da.GetSection(box, buf); err != nil {
			return err
		}
		sh := box.Shape()
		var bad error
		box.Iterate(grid.RowMajor, func(idx []int) bool {
			off := grid.Offset(sh, []int{idx[0] - 2, idx[1] - 3}, RowMajor)
			want := float64(10*idx[0]+idx[1]) * 2
			if got := f64(buf[off*8:]); got != want {
				bad = fmt.Errorf("rank %d section (%d,%d) = %v, want %v", c.Rank(), idx[0], idx[1], got, want)
				return false
			}
			return true
		})
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistArrayFlushToFile(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Create(c, "fl", defaultOpts())
		if err != nil {
			return err
		}
		defer f.Close()
		da, err := f.Distribute(RowMajor)
		if err != nil {
			return err
		}
		defer da.Free()
		// Every rank fills its local zone with its rank id.
		box := da.LocalBox()
		data := da.LocalData()
		for i := 0; i < len(data)/8; i++ {
			putF64bits(data[i*8:], float64(c.Rank()+1))
		}
		if err := da.FlushToFile(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Verify from the file: each element equals its owner's id+1.
		if c.Rank() == 0 {
			full := NewBox([]int{0, 0}, []int{10, 10})
			got, err := f.ReadSectionFloat64s(full, RowMajor)
			if err != nil {
				return err
			}
			at := 0
			var bad error
			full.Iterate(grid.RowMajor, func(idx []int) bool {
				owner, err := f.OwnerOf(idx)
				if err != nil {
					bad = err
					return false
				}
				if got[at] != float64(owner+1) {
					bad = fmt.Errorf("(%v) = %v, owner %d", idx, got[at], owner)
					return false
				}
				at++
				return true
			})
			return bad
		}
		_ = box
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistArrayPutSection(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Create(c, "ps", defaultOpts())
		if err != nil {
			return err
		}
		defer f.Close()
		da, err := f.Distribute(RowMajor)
		if err != nil {
			return err
		}
		defer da.Free()
		// Rank 1 scatters a cross-zone section; everyone else idles.
		box := NewBox([]int{3, 2}, []int{8, 9})
		if c.Rank() == 1 {
			vals := make([]float64, box.Volume())
			at := 0
			box.Iterate(grid.RowMajor, func(idx []int) bool {
				vals[at] = float64(77000 + 10*idx[0] + idx[1])
				at++
				return true
			})
			if err := da.PutSection(box, encodeF64(vals)); err != nil {
				return err
			}
		}
		if err := da.Fence(); err != nil {
			return err
		}
		// Everyone verifies via Get.
		var bad error
		box.Iterate(grid.RowMajor, func(idx []int) bool {
			got, err := da.Get(idx)
			if err != nil {
				bad = err
				return false
			}
			if got != float64(77000+10*idx[0]+idx[1]) {
				bad = fmt.Errorf("rank %d: (%v) = %v", c.Rank(), idx, got)
				return false
			}
			return true
		})
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
}
