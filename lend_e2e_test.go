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

// TestInterleavedCachedWriters: two writers share one cached array and
// write interleaved boxes: writer w owns the columns 8w..8w+7 of every
// 16-column chunk, so the holes between one writer's chunk rows are the
// other writer's segments. Under the benchmark's cost model the servers
// join those holes from the cache, which lends their clean bytes while
// the other writer may be writing them. Each writer reads back what it
// wrote, and the final array, read through the cache and straight from
// the store, must equal a flat array. The writers are two goroutines
// on one handle, then two ranks with a handle each.
func TestInterleavedCachedWriters(t *testing.T) {
	const dim, chunk, iters = 64, 16, 40
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			flat := make([]byte, dim*dim*8)
			for i := range flat {
				flat[i] = byte(i*7 + i/253)
			}
			all := NewBox([]int{0, 0}, []int{dim, dim})
			err := cluster.Run(ranks, func(c *cluster.Comm) error {
				f, err := Create(c, fmt.Sprintf("interleaved-%d", ranks), Options{
					DType: Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{dim, dim},
					FS:     pfs.Options{Servers: 4, StripeSize: chunk * chunk * 8, Cost: benchCost},
					Tuning: Tuning{CacheBytes: 1 << 20},
				})
				if err != nil {
					return err
				}
				defer f.Close()
				if c.Rank() == 0 {
					if err := f.WriteSection(all, flat, RowMajor); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if err := f.ReadSection(all, make([]byte, len(flat)), RowMajor); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				writers := []int{c.Rank()}
				if ranks == 1 {
					writers = []int{0, 1}
				}
				errs := make([]error, 2)
				var wg sync.WaitGroup
				for _, w := range writers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[w] = interleavedWriter(f, flat, dim, chunk, w, iters)
					}()
				}
				wg.Wait()
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() != 0 {
					return errs[c.Rank()]
				}
				if err := errs[0]; err != nil {
					return err
				}
				if err := errs[1]; err != nil {
					return err
				}
				for _, g := range []*File{f, StoreView(f)} {
					got := make([]byte, len(flat))
					if err := g.ReadSection(all, got, RowMajor); err != nil {
						return err
					}
					if !bytes.Equal(got, flat) {
						return fmt.Errorf("the array read %s differs from the flat array", map[bool]string{true: "through the cache", false: "from the store"}[g == f])
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

// interleavedWriter writes iters boxes of writer w's columns — a random
// band of rows across the 8 columns it owns in one chunk column — keeps
// them in flat, its own cells only, and reads each back.
func interleavedWriter(f *File, flat []byte, dim, chunk, w, iters int) error {
	rng := rand.New(rand.NewSource(int64(w) + 1))
	half := chunk / 2
	for it := range iters {
		r0 := rng.Intn(dim - 1)
		r1 := r0 + 2 + rng.Intn(dim-r0-1)
		c0 := rng.Intn(dim/chunk)*chunk + w*half
		box := NewBox([]int{r0, c0}, []int{min(r1, dim), c0 + half})
		rows := box.Hi[0] - box.Lo[0]
		buf := make([]byte, rows*half*8)
		for i := range buf {
			buf[i] = byte(w*101 + it*13 + i)
		}
		if err := f.WriteSection(box, buf, RowMajor); err != nil {
			return err
		}
		for r := range rows {
			copy(flat[((box.Lo[0]+r)*dim+c0)*8:], buf[r*half*8:(r+1)*half*8])
		}
		back := make([]byte, len(buf))
		if err := f.ReadSection(box, back, RowMajor); err != nil {
			return err
		}
		if !bytes.Equal(back, buf) {
			return fmt.Errorf("writer %d, box %v: read back differs from what it wrote", w, box)
		}
	}
	return nil
}
