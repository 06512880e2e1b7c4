package drxmp_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// TestWriteSectionCostIsFlat: under the serving tier's configuration
// (serve_mixed's array: 1024² float64 in 64×64 chunks on 4 servers with
// a 64 KiB stripe, cache larger than the array), every unaligned write
// fragments the extent cache a little further — and must not cost more
// for it. 400 alternating writes and reads from a fixed seed: the bytes
// allocated per WriteSection over the last 50 writes stay within 1.5x
// of the first 50, the cache never exceeds its budget, and every read
// matches a flat copy. (At the parent of the vectored punch the last 50
// writes allocated 12x the first 50.)
func TestWriteSectionCostIsFlat(t *testing.T) {
	const dim, budget, ops = 1024, 64 << 20, 400
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "putflat", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{64, 64}, Bounds: []int{dim, dim},
			FS:     pfs.Options{Servers: 4, StripeSize: 64 << 10},
			Tuning: drxmp.Tuning{CacheBytes: budget},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		flat := make([]byte, dim*dim*8)
		rng := rand.New(rand.NewSource(17))
		var perWrite []uint64
		for op := 0; op < ops; op++ {
			h, w := 64+rng.Intn(65), 64+rng.Intn(65)
			r0, c0 := rng.Intn(dim-h), rng.Intn(dim-w)
			box := drxmp.NewBox([]int{r0, c0}, []int{r0 + h, c0 + w})
			buf := make([]byte, h*w*8)
			if op%2 == 0 {
				rng.Read(buf)
				var a, b runtime.MemStats
				runtime.ReadMemStats(&a)
				err = f.WriteSection(box, buf, drxmp.RowMajor)
				runtime.ReadMemStats(&b)
				perWrite = append(perWrite, b.TotalAlloc-a.TotalAlloc)
				for r := 0; r < h; r++ {
					copy(flat[((r0+r)*dim+c0)*8:], buf[r*w*8:(r+1)*w*8])
				}
			} else {
				err = f.ReadSection(box, buf, drxmp.RowMajor)
				for r := 0; r < h && err == nil; r++ {
					if !bytes.Equal(buf[r*w*8:(r+1)*w*8], flat[((r0+r)*dim+c0)*8:][:w*8]) {
						t.Errorf("op %d: row %d of read %v differs from the flat copy", op, r, box)
						break
					}
				}
			}
			if err != nil {
				return err
			}
			if got := f.Cached(); got > budget {
				t.Errorf("op %d: %d bytes cached, budget %d", op, got, budget)
			}
		}
		var first, last uint64
		for i := 0; i < 50; i++ {
			first += perWrite[i]
			last += perWrite[len(perWrite)-1-i]
		}
		t.Logf("bytes allocated per WriteSection: first 50 avg %d, last 50 avg %d", first/50, last/50)
		if last*2 > first*3 {
			t.Errorf("the last 50 writes allocated %d bytes, the first 50 %d: write cost grows with the writes already taken", last, first)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
