package drxmp_test

import (
	"bytes"
	"fmt"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// Write-behind beyond the bytes (model_test.go checks those): the seeks
// it saves, flush-before-close, the knob, and a Global-Array checkpoint.

// wbVariant is one write-behind policy.
type wbVariant struct {
	name string
	wb   int64
}

// TestWriteBehindCloseFlushes: deferred bytes are on the store after
// Close with no Sync — the flush-before-close guarantee at the drxmp
// layer — and deferring them pays in charged work. Every variant runs
// over a cache the array fits in, so only the policy differs. The epoch is
// write-only and multi-round: each rank writes its column half one
// chunk-row per collective, in an order whose consecutive rows are
// rarely adjacent in the file, so immediate dispatch seeks on almost
// every round while the buffered policies merge the dirty unions into
// contiguous extents and flush them as sorted sweeps.
func TestWriteBehindCloseFlushes(t *testing.T) {
	const ranks = 2
	const n, chunk = 64, 8
	variants := []wbVariant{{name: "immediate"}, {name: "watermark", wb: n * n * 8 / 2}, {name: "close-only", wb: -1}}
	const cache = 1 << 20 // the whole array and more: nothing flushes on evict
	stores := make([]*pfs.FS, len(variants))
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		for i, v := range variants {
			f, err := drxmp.Create(c, "wbclose-"+v.name, drxmp.Options{
				DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
				FS:     pfs.Options{Servers: 2, StripeSize: 512},
				Tuning: drxmp.Tuning{WriteBehindBytes: v.wb, CacheBytes: cache},
			})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				stores[i] = f.FS()
			}
			q := n / ranks
			for _, row := range []int{0, 2, 1, 3, 4, 6, 5, 7} {
				box := drxmp.NewBox([]int{row * chunk, c.Rank() * q}, []int{(row + 1) * chunk, (c.Rank() + 1) * q})
				if err := f.WriteSectionAll(box, rankData(c.Rank(), box, int64(5+row)), drxmp.RowMajor); err != nil {
					return err
				}
			}
			// Close with NO Sync: the deferred bytes must still land.
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The stores are closed; their raw contents (read through the
	// post-Close synchronous path) must be identical.
	imm := stores[0].Stats()
	if fb := imm.FlushBytes(); fb != 0 {
		t.Errorf("immediate dispatch attributed %d flush bytes", fb)
	}
	want := make([]byte, n*n*8)
	if _, err := stores[0].ReadAt(want, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(variants); i++ {
		st := stores[i].Stats()
		got := make([]byte, len(want))
		if _, err := stores[i].ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s write-behind store differs from immediate after Close", variants[i].name)
		}
		if st.Seeks() >= imm.Seeks() {
			t.Errorf("%s charged %d seeks, immediate %d: write-behind must seek strictly less",
				variants[i].name, st.Seeks(), imm.Seeks())
		}
		if st.FlushBytes() == 0 {
			t.Errorf("%s attributed no flush bytes", variants[i].name)
		}
	}
}

// TestWriteBehindKnobPlumbing pins the drxmp-level wiring: option,
// accessor, Dirty, and Sync draining the deferred bytes.
func TestWriteBehindKnobPlumbing(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "wbknob", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: drxmp.Tuning{WriteBehindBytes: -1, CacheBytes: 1 << 20},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if got := f.Tuning().WriteBehindBytes; got != -1 {
			return fmt.Errorf("WriteBehindBytes = %d, want -1", got)
		}
		box := drxmp.NewBox([]int{0, 0}, []int{8, 8})
		data := rankData(0, box, 9)
		if err := f.WriteSectionAll(box, data, drxmp.RowMajor); err != nil {
			return err
		}
		if f.Dirty() == 0 {
			return fmt.Errorf("no dirty bytes buffered under close-only write-behind")
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if f.Dirty() != 0 {
			return fmt.Errorf("Sync left %d dirty bytes", f.Dirty())
		}
		got := make([]byte, box.Volume()*8)
		if err := f.ReadSection(box, got, drxmp.RowMajor); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("flushed bytes wrong after Sync")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistArrayCheckpointWriteBehind: the Global-Array workflow on top
// of write-behind — Distribute (collective read), PutSection into
// remote zones, Checkpoint (FlushToFile + Sync) — leaves the store
// holding exactly the distributed state, and Get observes it.
func TestDistArrayCheckpointWriteBehind(t *testing.T) {
	const ranks = 4
	const n = 24
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "wbga", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{6, 6}, Bounds: []int{n, n},
			FS:     pfs.Options{Servers: 2, StripeSize: 512},
			Tuning: drxmp.Tuning{WriteBehindBytes: -1, CacheBytes: 1 << 20},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		// Seed through the collective path (rides write-behind), then
		// distribute: Distribute's collective read is served the deferred
		// bytes from the cache.
		box := slabBox([]int{n, n}, ranks, c.Rank())
		seed := make([]float64, box.Volume())
		for i := range seed {
			seed[i] = float64(c.Rank()*1000 + i)
		}
		if err := f.WriteSectionFloat64s(box, seed, drxmp.RowMajor); err != nil {
			return err
		}
		da, err := f.Distribute(drxmp.RowMajor)
		if err != nil {
			return err
		}
		defer da.Free()
		if got, err := da.Get([]int{box.Lo[0], 0}); err != nil || got != seed[0] {
			return fmt.Errorf("rank %d: Get = %v/%v, want %v", c.Rank(), got, err, seed[0])
		}
		// Rank 0 rewrites one remote row one-sidedly, then checkpoints.
		if err := da.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			row := drxmp.NewBox([]int{n - 1, 0}, []int{n, n})
			vals := make([]byte, row.Volume()*8)
			for i := range vals {
				vals[i] = byte(i + 3)
			}
			if err := da.PutSection(row, vals); err != nil {
				return err
			}
		}
		if err := da.Fence(); err != nil {
			return err
		}
		if err := da.Checkpoint(); err != nil {
			return err
		}
		// After Checkpoint every rank's independent read sees the row.
		row := drxmp.NewBox([]int{n - 1, 0}, []int{n, n})
		got := make([]byte, row.Volume()*8)
		if err := f.ReadSection(row, got, drxmp.RowMajor); err != nil {
			return err
		}
		for i := range got {
			if got[i] != byte(i+3) {
				return fmt.Errorf("rank %d: checkpointed byte %d = %d, want %d", c.Rank(), i, got[i], byte(i+3))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
