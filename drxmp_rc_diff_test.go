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

// Differential suite for the read side of the unified extent cache:
// data sieving, read-ahead, the memory budget's LRU eviction, and the
// combination with write-behind must all be invisible to the data.
// Every variant drives the same interleaved collective/independent
// read-write rounds as the write-behind suite and must come out
// byte-identical to the cache-off baseline.

// rcVariant is one cache configuration under test.
type rcVariant struct {
	name   string
	wb     int64 // write-behind policy
	cache  int64 // CacheBytes budget
	ra     int64 // ReadAheadBytes
	stripe int64 // store stripe = sieve block (0 = 1 KiB)
}

func rcVariants() []rcVariant {
	return []rcVariant{
		{name: "off"},                                         // the PR 4 baseline
		{name: "cache", cache: 1 << 20},                       // sieving, ample budget
		{name: "cache-ra", cache: 1 << 20, ra: 4 << 10},       // + read-ahead
		{name: "cache-tiny", cache: 2 << 10},                  // constant eviction pressure
		{name: "cache-wb", cache: 1 << 20, wb: -1},            // + close-only write-behind
		{name: "cache-wb-tiny", cache: 2 << 10, wb: -1},       // dirty flush-on-evict in play
		{name: "cache-sieve4k", cache: 1 << 20, stripe: 4096}, // coarse sieve blocks
	}
}

func rcCreate(c *cluster.Comm, name string, sh collShape, v rcVariant) (*drxmp.File, error) {
	stripe := v.stripe
	if stripe == 0 {
		stripe = 1 << 10
	}
	return drxmp.Create(c, name, drxmp.Options{
		DType: drxmp.Float64, ChunkShape: sh.chunk, Bounds: sh.bounds,
		FS: pfs.Options{
			Servers: 4, StripeSize: stripe, Scheduler: pfs.Elevator,
		},
		Tuning: drxmp.Tuning{
			CollectiveParallelism: 8,
			WriteBehindBytes:      v.wb,
			CacheBytes:            v.cache,
			ReadAheadBytes:        v.ra,
		},
	})
}

// TestReadCacheDifferentialIdentical drives interleaved rounds —
// overlapping collective writes, collective reads of shifted sections,
// independent re-reads (twice, so the second is served warm), a Sync
// mid-epoch, then a full independent readback — through every cache
// variant, requiring byte-identical files and read buffers against the
// cache-off baseline.
func TestReadCacheDifferentialIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy differential suite: skipped under -short")
	}
	const ranks = 4
	variants := rcVariants()
	for _, sh := range collShapes() {
		t.Run(sh.name, func(t *testing.T) {
			full := drxmp.NewBox(make([]int, len(sh.bounds)), sh.bounds)
			fullBytes := make([][]byte, len(variants))
			err := cluster.Run(ranks, func(c *cluster.Comm) error {
				files := make([]*drxmp.File, len(variants))
				for i, v := range variants {
					f, err := rcCreate(c, fmt.Sprintf("rc-%s-%s", v.name, sh.name), sh, v)
					if err != nil {
						return err
					}
					defer f.Close()
					files[i] = f
				}
				for round := 0; round < 3; round++ {
					wbox := slabBox(sh.bounds, ranks, c.Rank(), round)
					data := rankData(c.Rank(), wbox, int64(90+round))
					for _, f := range files {
						if err := f.WriteSectionAll(wbox, data, drxmp.RowMajor); err != nil {
							return err
						}
					}
					// Collective read of a shifted overlapping section, then
					// the same section independently TWICE — the second
					// independent read runs against a warm cache.
					rbox := slabBox(sh.bounds, ranks, (c.Rank()+1)%ranks, round+1)
					var ref []byte
					for i, f := range files {
						got := make([]byte, rbox.Volume()*8)
						if err := f.ReadSectionAll(rbox, got, drxmp.RowMajor); err != nil {
							return err
						}
						for pass := 0; pass < 2; pass++ {
							ind := make([]byte, rbox.Volume()*8)
							if err := f.ReadSection(rbox, ind, drxmp.RowMajor); err != nil {
								return err
							}
							if !bytes.Equal(got, ind) {
								return fmt.Errorf("rank %d round %d pass %d: %s independent read differs from its collective read",
									c.Rank(), round, pass, variants[i].name)
							}
						}
						if i == 0 {
							ref = got
						} else if !bytes.Equal(ref, got) {
							return fmt.Errorf("rank %d round %d: %s read differs from %s",
								c.Rank(), round, variants[i].name, variants[0].name)
						}
					}
					if round == 1 {
						for _, f := range files {
							if err := f.Sync(); err != nil {
								return err
							}
						}
					}
				}
				// Sync, then rank 0 reads each full file independently: the
				// cache-served view and the store must agree everywhere.
				for _, f := range files {
					if err := f.Sync(); err != nil {
						return err
					}
				}
				if c.Rank() == 0 {
					for i, f := range files {
						buf := make([]byte, full.Volume()*8)
						if err := f.ReadSection(full, buf, drxmp.RowMajor); err != nil {
							return err
						}
						fullBytes[i] = buf
					}
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(variants); i++ {
				if !bytes.Equal(fullBytes[0], fullBytes[i]) {
					t.Errorf("file under %s differs from %s baseline", variants[i].name, variants[0].name)
				}
			}
		})
	}
}

// TestReadCacheDirtyStraddle pins the dirty-boundary rule: an
// independent cached read straddling the edge of a deferred collective
// write must stitch dirty cache bytes and sieve-fetched store bytes
// together exactly as the no-cache flush-then-read baseline does.
func TestReadCacheDirtyStraddle(t *testing.T) {
	const ranks = 2
	const n = 64
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		variants := []rcVariant{{name: "off"}, {name: "cache-wb", cache: 1 << 20, wb: -1}}
		sh := collShape{"straddle", []int{n, n}, []int{8, 8}}
		var ref []byte
		for i, v := range variants {
			f, err := rcCreate(c, "rcstraddle-"+v.name, sh, v)
			if err != nil {
				return err
			}
			defer f.Close()
			// Seed the whole array through the store, then a deferred
			// collective write over the TOP half only: its extents are
			// dirty, the bottom half is clean store data.
			seed := rankData(c.Rank(), slabBox([]int{n, n}, ranks, c.Rank(), 0), 3)
			if err := f.WriteSection(slabBox([]int{n, n}, ranks, c.Rank(), 0), seed, drxmp.RowMajor); err != nil {
				return err
			}
			if err := f.Comm().Barrier(); err != nil {
				return err
			}
			top := drxmp.NewBox([]int{0, c.Rank() * n / ranks}, []int{n / 2, (c.Rank() + 1) * n / ranks})
			data := rankData(c.Rank(), top, 5)
			if err := f.WriteSectionAll(top, data, drxmp.RowMajor); err != nil {
				return err
			}
			// The straddling read: rows n/2-8 .. n/2+8 cross the dirty
			// boundary on every column.
			box := drxmp.NewBox([]int{n/2 - 8, 0}, []int{n/2 + 8, n})
			got := make([]byte, box.Volume()*8)
			if err := f.ReadSection(box, got, drxmp.RowMajor); err != nil {
				return err
			}
			if i == 0 {
				ref = got
			} else if !bytes.Equal(ref, got) {
				return fmt.Errorf("rank %d: %s straddling read differs from baseline", c.Rank(), v.name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

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
		box := slabBox([]int{n, n}, ranks, c.Rank(), 0)
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
// SetTuning, accessors, Cached, CacheStats, and the
// disable-releases-clean-extents rule.
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
		if f.CacheBytes() != 1<<16 || f.ReadAhead() != 512 {
			return fmt.Errorf("knobs = (%d, %d), want (65536, 512)", f.CacheBytes(), f.ReadAhead())
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
		if err := f.SetTuning(drxmp.Tuning{}); err != nil {
			return err
		}
		if f.Cached() != 0 {
			return fmt.Errorf("disabling the cache left %d cached bytes", f.Cached())
		}
		if err := f.ReadSection(box, got, drxmp.RowMajor); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("read wrong after disabling cache")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadCacheEvictionStressRace hammers the cache from every rank
// under a tiny budget (constant eviction and dirty flush-on-evict
// racing reads and Syncs) on real-time elevator servers. Run with
// -race.
func TestReadCacheEvictionStressRace(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy stress suite: skipped under -short")
	}
	const ranks = 4
	const n = 64
	var mu sync.Mutex
	seen := map[int]bool{}
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "rcstress", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{8, 8}, Bounds: []int{n, n},
			FS: pfs.Options{
				Servers: 4, StripeSize: 512, Scheduler: pfs.Elevator,
				Cost: pfs.CostModel{RequestOverhead: 20 * 1000, RealTime: true}, // 20 µs
			},
			Tuning: drxmp.Tuning{
				CollectiveParallelism: 8,
				WriteBehindBytes:      2048,
				CacheBytes:            4096, // tiny: every round evicts
				ReadAheadBytes:        1024,
			},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		for round := 0; round < 6; round++ {
			wbox := slabBox([]int{n, n}, ranks, (c.Rank()+round)%ranks, round%3)
			data := rankData(c.Rank(), wbox, int64(round))
			if err := f.WriteSectionAll(wbox, data, drxmp.RowMajor); err != nil {
				return err
			}
			rbox := slabBox([]int{n, n}, ranks, c.Rank(), 0)
			buf := make([]byte, rbox.Volume()*8)
			if err := f.ReadSection(rbox, buf, drxmp.RowMajor); err != nil {
				return err
			}
			if err := f.ReadSectionAll(rbox, buf, drxmp.RowMajor); err != nil {
				return err
			}
			if round%2 == 1 {
				if err := f.Sync(); err != nil {
					return err
				}
			}
		}
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != ranks {
		t.Fatalf("only %d ranks completed", len(seen))
	}
}

// TestReadCacheConcurrentFirstTouchRace pins the lazy cache resolution:
// a fresh handle whose FIRST cached operations are ReadSections issued
// from concurrent goroutines (what the serving tier does with one
// handle) resolves the shared cache from all of them at once — the
// memoized pointer must be race-free. Run with -race.
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
		box := slabBox([]int{n, n}, ranks, c.Rank(), 0)
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
