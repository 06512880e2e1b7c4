package drxmp

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
)

// Tests for the collective section path's memory discipline: run lists
// built per chunk, bytes moved straight between the caller's rows and
// the aggregators' staging buffers, and heap allocations that follow
// the chunks. The model test (model_test.go) runs the path out of a
// poisoned buffer pool.

// sectionRunsOracle is the run builder sectionRuns replaced, kept as
// its reference: one heap box per chunk, rows appended in cover order,
// then one sort of every row by file offset.
func sectionRunsOracle(f *File, box Box, order Order) ([]ioRun, int64) {
	es := int64(f.m.DType.Size())
	dstStrides := grid.Strides(box.Shape(), order)
	chunkStrides := grid.Strides(f.m.ChunkShape, f.m.MemOrder)
	inner := f.Rank() - 1
	if f.m.MemOrder == ColMajor {
		inner = 0
	}
	var runs []ioRun
	grid.ChunkCover(box, f.m.ChunkShape).Iterate(grid.RowMajor, func(cidx []int) bool {
		base := f.m.Space.MustMap(cidx) * f.m.ChunkBytes()
		cbox := grid.ChunkBox(cidx, f.m.ChunkShape)
		cbox.Intersect(box).Rows(f.m.MemOrder, func(start []int, n int) bool {
			var chunkOff, dstOff int64
			for d := range start {
				chunkOff += int64(start[d]-cbox.Lo[d]) * chunkStrides[d]
				dstOff += int64(start[d]-box.Lo[d]) * dstStrides[d]
			}
			runs = append(runs, ioRun{fileOff: base + chunkOff*es, elems: int64(n), dstStart: dstOff})
			return true
		})
		return true
	})
	sort.Slice(runs, func(i, j int) bool { return runs[i].fileOff < runs[j].fileOff })
	return runs, dstStrides[inner]
}

// randomBox draws a box inside bounds; about one in eight is empty.
func randomBox(rng *rand.Rand, bounds []int) Box {
	lo, hi := make([]int, len(bounds)), make([]int, len(bounds))
	for d, n := range bounds {
		lo[d] = rng.Intn(n)
		hi[d] = lo[d] + 1 + rng.Intn(n-lo[d])
	}
	if rng.Intn(8) == 0 {
		d := rng.Intn(len(bounds))
		hi[d] = lo[d]
	}
	return NewBox(lo, hi)
}

// TestSectionRunsMatchesOracle: on arrays grown by interleaved
// extensions (so boxes cross extension segments and storage order is
// not cover order), for rank 1-3, both chunk orders and both user
// orders, sectionRuns emits exactly the old builder's runs — already in
// ascending file order, with the same user-buffer placement — and its
// fused file runs are exactly pfs.Coalesce of those rows' extents. One
// plan serves every box, as the free list reuses it.
func TestSectionRunsMatchesOracle(t *testing.T) {
	shapes := []struct{ bounds, chunk []int }{
		{[]int{23}, []int{5}},
		{[]int{11, 9}, []int{4, 3}},
		{[]int{7, 5, 9}, []int{3, 2, 4}},
	}
	for _, sh := range shapes {
		for _, mem := range []Order{RowMajor, ColMajor} {
			name := fmt.Sprintf("rank%d-mem%v", len(sh.bounds), mem)
			t.Run(name, func(t *testing.T) {
				err := cluster.Run(1, func(c *cluster.Comm) error {
					f, err := Create(c, "runs-"+name, Options{
						DType: Float64, ChunkShape: sh.chunk, Bounds: sh.bounds, Order: mem,
					})
					if err != nil {
						return err
					}
					defer f.Close()
					rng := rand.New(rand.NewSource(int64(7 + len(sh.bounds))))
					for e := 0; e < 7; e++ {
						dim := e % f.Rank()
						if err := f.Extend(dim, 1+rng.Intn(2*sh.chunk[dim])); err != nil {
							return err
						}
					}
					bounds := f.Bounds()
					boxes := []Box{NewBox(make([]int, len(bounds)), bounds)}
					for i := 0; i < 60; i++ {
						boxes = append(boxes, randomBox(rng, bounds))
					}
					var p sectionPlan
					for _, box := range boxes {
						for _, user := range []Order{RowMajor, ColMajor} {
							stride, err := f.sectionRuns(&p, box, user)
							if err != nil {
								return err
							}
							got := p.rows.runs
							want, wantStride := sectionRunsOracle(f, box, user)
							if len(got) != len(want) || (len(want) > 0 && stride != wantStride) {
								t.Fatalf("box %v user %v: %d runs stride %d, oracle %d runs stride %d",
									box, user, len(got), stride, len(want), wantStride)
							}
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("box %v user %v: run %d = %+v, oracle %+v", box, user, i, got[i], want[i])
								}
								if i > 0 && got[i].fileOff <= got[i-1].fileOff {
									t.Fatalf("box %v user %v: run %d not in ascending file order", box, user, i)
								}
							}
							var rowExtents []pfs.Run
							for _, r := range want {
								rowExtents = append(rowExtents, pfs.Run{Off: r.fileOff, Len: r.elems * 8})
							}
							if fused := pfs.Coalesce(rowExtents); !slices.Equal(p.runs, fused) {
								t.Fatalf("box %v user %v: fused runs %v, coalesced oracle rows %v", box, user, p.runs, fused)
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
}

// collectiveStep is one timestep of the paper's use on two ranks: write
// this rank's row slab of the window, read back its column slab.
func collectiveStep(f *File, rank, side int, wbuf, rbuf []byte) error {
	cut := side*3/8 + 3
	rows := [2]Box{NewBox([]int{0, 0}, []int{cut, side}), NewBox([]int{cut, 0}, []int{side, side})}
	cols := [2]Box{NewBox([]int{0, 0}, []int{side, cut}), NewBox([]int{0, cut}, []int{side, side})}
	if err := f.WriteSectionAll(rows[rank], wbuf[:rows[rank].Volume()*8], RowMajor); err != nil {
		return err
	}
	return f.ReadSectionAll(cols[rank], rbuf[:cols[rank].Volume()*8], RowMajor)
}

// TestCollectiveAllocsPerChunk: the heap allocations of one collective
// write+read step follow the number of chunks in the cover, not the
// number of rows or bytes: doubling the chunk edge at a fixed chunk
// count (four times the bytes, twice the rows per chunk; the stripe
// scaled along so the server segment count is fixed too) leaves the
// count within 5 %.
func TestCollectiveAllocsPerChunk(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool mid-count
	const perSide, steps = 8, 4
	measure := func(edge int) float64 {
		side := perSide * edge
		var mallocs uint64
		err := cluster.Run(2, func(c *cluster.Comm) error {
			f, err := Create(c, fmt.Sprintf("allocs-%d", edge), Options{
				DType: Float64, ChunkShape: []int{edge, edge}, Bounds: []int{side, side},
				FS: pfs.Options{Servers: 4, StripeSize: int64(edge * edge * 8)},
			})
			if err != nil {
				return err
			}
			defer f.Close()
			wbuf, rbuf := make([]byte, side*side*8), make([]byte, side*side*8)
			var before, after runtime.MemStats
			for s := 0; s <= steps; s++ {
				if s == 1 && c.Rank() == 0 { // step 0 warmed the pool and the servers
					runtime.ReadMemStats(&before)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if err := collectiveStep(f, c.Rank(), side, wbuf, rbuf); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				mallocs = after.Mallocs - before.Mallocs
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(mallocs) / steps
	}
	small, large := measure(16), measure(32)
	t.Logf("mallocs per step: %.0f at chunk edge 16, %.0f at chunk edge 32", small, large)
	if large > small*1.05 || large < small*0.95 {
		t.Errorf("mallocs per step moved with the chunk edge at a fixed chunk count: %.0f -> %.0f", small, large)
	}
}

// BenchmarkCollectiveStep is one collective_timestep step without the
// benchmark around it: 2 ranks, 8 in-memory servers, no cost model, a
// 1024x1024 float64 window in 64x64 chunks, written by row slabs and
// read back by column slabs.
func BenchmarkCollectiveStep(b *testing.B) {
	const side = 1024
	b.SetBytes(2 * side * side * 8)
	b.ReportAllocs()
	err := cluster.Run(2, func(c *cluster.Comm) error {
		f, err := Create(c, "bench-collective-step", Options{
			DType: Float64, ChunkShape: []int{64, 64}, Bounds: []int{side, side},
			FS: pfs.Options{Servers: 8},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		wbuf, rbuf := make([]byte, side*side*8), make([]byte, side*side*8)
		rand.New(rand.NewSource(int64(c.Rank()))).Read(wbuf)
		if err := collectiveStep(f, c.Rank(), side, wbuf, rbuf); err != nil { // grow the servers
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := collectiveStep(f, c.Rank(), side, wbuf, rbuf); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}
