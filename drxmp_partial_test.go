package drxmp_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// TestPartialChunkWrites drives the independent write path over boxes
// that cover chunks only partially (per-run writes, no whole-chunk
// fast path) and verifies against a shadow buffer.
func TestPartialChunkWrites(t *testing.T) {
	const n = 64
	chunk := []int{16, 16}
	rng := rand.New(rand.NewSource(7))
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "par-partial", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: chunk, Bounds: []int{n, n},
			FS: pfs.Options{Servers: 4, StripeSize: 2 << 10},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		shadow := make([]byte, n*n*8)
		for trial := 0; trial < 30; trial++ {
			lo := []int{rng.Intn(n), rng.Intn(n)}
			hi := []int{lo[0] + 1 + rng.Intn(n-lo[0]), lo[1] + 1 + rng.Intn(n-lo[1])}
			box := drxmp.NewBox(lo, hi)
			data := make([]byte, box.Volume()*8)
			rng.Read(data)
			if err := f.WriteSection(box, data, drxmp.RowMajor); err != nil {
				return err
			}
			// Mirror into the row-major shadow.
			w := hi[1] - lo[1]
			for i := lo[0]; i < hi[0]; i++ {
				srcOff := (i - lo[0]) * w * 8
				dstOff := (i*n + lo[1]) * 8
				copy(shadow[dstOff:dstOff+w*8], data[srcOff:srcOff+w*8])
			}
		}
		full := drxmp.NewBox([]int{0, 0}, []int{n, n})
		got := make([]byte, n*n*8)
		if err := f.ReadSection(full, got, drxmp.RowMajor); err != nil {
			return err
		}
		if !bytes.Equal(shadow, got) {
			return fmt.Errorf("partial writes diverged from shadow")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
