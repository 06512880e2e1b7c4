package drxmp_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// The read cache beyond the bytes (model_test.go checks those): warm
// after Sync, the knobs, a race-free first touch, a Global-Array re-read.

// TestReadCacheWarmAfterSync pins flush-keeps-warm end to end: after a
// deferred collective write and a Sync, a sectioned re-read is served
// from the cache — zero additional server read requests — and still
// byte-identical to the written data.
func TestReadCacheWarmAfterSync(t *testing.T) {
	const ranks = 2
	const n = 32
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "rcwarm", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{8, 8}, Bounds: []int{n, n},
			FS: pfs.Options{Servers: 2, StripeSize: 512},
			Tuning: drxmp.Tuning{
				WriteBehindBytes: -1,
				CacheBytes:       1 << 20,
			},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		box := slabBox([]int{n, n}, ranks, c.Rank())
		data := rankData(c.Rank(), box, 11)
		if err := f.WriteSectionAll(box, data, drxmp.RowMajor); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		reads := f.FS().Stats().Reads()
		got := make([]byte, box.Volume()*8)
		if err := f.ReadSection(box, got, drxmp.RowMajor); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d: warm post-Sync read wrong", c.Rank())
		}
		if after := f.FS().Stats().Reads(); after != reads {
			return fmt.Errorf("rank %d: post-Sync re-read issued %d server reads (cache went cold)",
				c.Rank(), after-reads)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadCacheKnobPlumbing pins the drxmp-level wiring: options,
// accessors, Cached and CacheStats.
func TestReadCacheKnobPlumbing(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "rcknob", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: drxmp.Tuning{
				CacheBytes:     1 << 16,
				ReadAheadBytes: 512,
			},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if f.CacheBytes() != 1<<16 || f.Tuning().ReadAheadBytes != 512 {
			return fmt.Errorf("knobs = (%d, %d), want (65536, 512)", f.CacheBytes(), f.Tuning().ReadAheadBytes)
		}
		box := drxmp.NewBox([]int{0, 0}, []int{8, 8})
		data := rankData(0, box, 21)
		if err := f.WriteSection(box, data, drxmp.RowMajor); err != nil {
			return err
		}
		got := make([]byte, box.Volume()*8)
		if err := f.ReadSection(box, got, drxmp.RowMajor); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("cached read wrong")
		}
		if f.Cached() == 0 {
			return fmt.Errorf("nothing cached after a cached read")
		}
		st := f.CacheStats()
		if st.Misses == 0 || st.SieveFetched == 0 {
			return fmt.Errorf("cache stats not accounted: %+v", st)
		}
		if err := f.ReadSection(box, got, drxmp.RowMajor); err != nil {
			return err
		}
		if f.CacheStats().Hits == 0 {
			return fmt.Errorf("warm re-read not a hit")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadCacheConcurrentFirstTouchRace: a fresh handle whose FIRST
// cached operations are ReadSections issued from concurrent goroutines
// (what the serving tier does with one handle) misses, fetches and
// fills the shared cache from all of them at once, and every read must
// see the written bytes. Run with -race.
func TestReadCacheConcurrentFirstTouchRace(t *testing.T) {
	const n = 64
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "rcfirsttouch", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{8, 8}, Bounds: []int{n, n},
			FS:     pfs.Options{Servers: 4, StripeSize: 512},
			Tuning: drxmp.Tuning{CacheBytes: 1 << 20},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		box := drxmp.NewBox([]int{0, 0}, []int{n, n})
		data := rankData(0, box, 31)
		if err := f.WriteSection(box, data, drxmp.RowMajor); err != nil {
			return err
		}
		errs := make([]error, 8)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got := make([]byte, box.Volume()*8)
				if err := f.ReadSection(box, got, drxmp.RowMajor); err != nil {
					errs[i] = err
				} else if !bytes.Equal(got, data) {
					errs[i] = fmt.Errorf("concurrent first-touch cached read %d wrong", i)
				}
			}(i)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistArrayRefreshCached: the Global-Array re-read path — seed,
// Distribute, one-sided update, Checkpoint, then Refresh re-reads the
// checkpointed state into the local zones through the (warm) cache.
func TestDistArrayRefreshCached(t *testing.T) {
	const ranks = 2
	const n = 16
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "rcrefresh", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{n, n},
			FS: pfs.Options{Servers: 2, StripeSize: 512},
			Tuning: drxmp.Tuning{
				WriteBehindBytes: -1,
				CacheBytes:       1 << 20,
			},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		box := slabBox([]int{n, n}, ranks, c.Rank())
		seed := make([]float64, box.Volume())
		for i := range seed {
			seed[i] = float64(c.Rank()*100 + i)
		}
		if err := f.WriteSectionFloat64s(box, seed, drxmp.RowMajor); err != nil {
			return err
		}
		da, err := f.Distribute(drxmp.RowMajor)
		if err != nil {
			return err
		}
		defer da.Free()
		if err := da.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := da.Set([]int{n - 1, n - 1}, 777); err != nil {
				return err
			}
		}
		if err := da.Fence(); err != nil {
			return err
		}
		if err := da.Checkpoint(); err != nil {
			return err
		}
		// Scribble locally, then Refresh must restore the checkpointed
		// state from the file.
		for i := range da.LocalData() {
			da.LocalData()[i] = 0xEE
		}
		if err := da.Refresh(); err != nil {
			return err
		}
		// Refresh holds no fence: without one, a remote Get below could
		// read a zone its owner is still refreshing.
		if err := da.Fence(); err != nil {
			return err
		}
		if got, err := da.Get([]int{box.Lo[0], 0}); err != nil || got != seed[0] {
			return fmt.Errorf("rank %d: Get after Refresh = %v/%v, want %v", c.Rank(), got, err, seed[0])
		}
		if got, err := da.Get([]int{n - 1, n - 1}); err != nil || got != 777 {
			return fmt.Errorf("rank %d: updated element after Refresh = %v/%v, want 777", c.Rank(), got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
