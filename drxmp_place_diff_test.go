package drxmp_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// Differential suite for aggregator placement: carving the collective
// aggregation domains differently — byte-cyclic stripes, zone-curve
// chunk groups, or sticky cache-affinity ownership — changes which
// rank moves which bytes, never the bytes themselves. Every policy,
// with write-behind buffering and the tiered spill cache underneath
// and per-region flush election both on and off, must come out
// byte-identical to the serial immediate-dispatch baseline over
// 2-D/3-D shapes, odd chunks, and overlapping rank sections.

// placeVariant is one placement configuration under test.
type placeVariant struct {
	name       string
	placement  string
	noElection bool
}

func placeVariants() []placeVariant {
	return []placeVariant{
		{"default", "", false}, // resolves to byte-cyclic, unelected, no geometry
		{"byte-cyclic", drxmp.PlacementByteCyclic, false},
		{"zone-curve", drxmp.PlacementZoneCurve, false},
		{"cache-affinity", drxmp.PlacementCacheAffinity, false},
		{"cache-affinity-unelected", drxmp.PlacementCacheAffinity, true},
	}
}

// TestPlacementDifferentialIdentical drives interleaved overlapping
// collective write/read rounds through every placement policy — on
// top of write-behind buffering and the tiered (memory + local-disk
// spill) cache — and requires byte-identical files and read buffers
// against a serial no-placement baseline.
func TestPlacementDifferentialIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy differential suite: skipped under -short")
	}
	const ranks = 4
	variants := placeVariants()
	for _, sh := range collShapes() {
		t.Run(sh.name, func(t *testing.T) {
			spillDir := t.TempDir()
			full := drxmp.NewBox(make([]int, len(sh.bounds)), sh.bounds)
			// Index 0 is the serial baseline; variant i lands at i+1.
			fullBytes := make([][]byte, len(variants)+1)
			rankReads := make([][][]byte, ranks)
			for r := range rankReads {
				rankReads[r] = make([][]byte, len(variants)+1)
			}
			err := cluster.Run(ranks, func(c *cluster.Comm) error {
				files := make([]*drxmp.File, 0, len(variants)+1)
				mk := func(name string, tuning drxmp.Tuning) error {
					f, err := drxmp.Create(c, fmt.Sprintf("place-%s-%s", name, sh.name), drxmp.Options{
						DType: drxmp.Float64, ChunkShape: sh.chunk, Bounds: sh.bounds,
						FS: pfs.Options{
							Servers: 3, StripeSize: 1 << 10, Scheduler: pfs.Elevator,
						},
						Tuning: tuning,
					})
					if err != nil {
						return err
					}
					files = append(files, f)
					return nil
				}
				// Serial baseline: immediate dispatch, no cache, no policy.
				if err := mk("baseline", drxmp.Tuning{CollectiveParallelism: 8}); err != nil {
					return err
				}
				for _, v := range variants {
					err := mk(v.name, drxmp.Tuning{
						CollectiveParallelism: 8,
						WriteBehindBytes:      4096,
						CacheBytes:            8 << 10,
						SpillBytes:            1 << 20,
						SpillPath:             filepath.Join(spillDir, v.name+"-"+sh.name+".spill"),
						Placement:             v.placement,
						NoFlushElection:       v.noElection,
					})
					if err != nil {
						return err
					}
				}
				defer func() {
					for _, f := range files {
						f.Close()
					}
				}()

				// Interleaved rounds: overlapping collective writes, then a
				// collective read of a shifted overlapping section that
				// crosses other ranks' dirty extents.
				for round := 0; round < 3; round++ {
					wbox := slabBox(sh.bounds, ranks, c.Rank(), round)
					data := rankData(c.Rank(), wbox, int64(90+round))
					for _, f := range files {
						if err := f.WriteSectionAll(wbox, data, drxmp.RowMajor); err != nil {
							return err
						}
					}
					rbox := slabBox(sh.bounds, ranks, (c.Rank()+1)%ranks, round+1)
					var ref []byte
					for i, f := range files {
						got := make([]byte, rbox.Volume()*8)
						if err := f.ReadSectionAll(rbox, got, drxmp.RowMajor); err != nil {
							return err
						}
						if i == 0 {
							ref = got
						} else if !bytes.Equal(ref, got) {
							return fmt.Errorf("rank %d round %d: %s collective read differs from baseline",
								c.Rank(), round, variants[i-1].name)
						}
					}
				}

				// Final overlapping collective read, captured per rank.
				rbox := slabBox(sh.bounds, ranks, c.Rank(), 3)
				for i, f := range files {
					got := make([]byte, rbox.Volume()*8)
					if err := f.ReadSectionAll(rbox, got, drxmp.RowMajor); err != nil {
						return err
					}
					rankReads[c.Rank()][i] = got
				}

				// Sync — the elected variants flush only owned regions per
				// rank, which must still drain everything collectively — then
				// rank 0 reads each full file through the independent path.
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
			for i, v := range variants {
				if !bytes.Equal(fullBytes[0], fullBytes[i+1]) {
					t.Errorf("file under %s differs from serial baseline", v.name)
				}
				for r := range rankReads {
					if !bytes.Equal(rankReads[r][0], rankReads[r][i+1]) {
						t.Errorf("rank %d: %s collective read differs from baseline", r, v.name)
					}
				}
			}
		})
	}
}

// TestPlacementKnobPlumbing pins the drxmp-level wiring: the Placement
// and NoFlushElection knobs round-trip through Tuning(), unknown
// policy names are rejected at open, and NoFlushElection without a
// policy is an option error.
func TestPlacementKnobPlumbing(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "placeknob", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: drxmp.Tuning{Placement: drxmp.PlacementCacheAffinity},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		got := f.Tuning()
		if got.Placement != drxmp.PlacementCacheAffinity || got.NoFlushElection {
			return fmt.Errorf("Tuning() = {Placement:%q NoFlushElection:%v}, want cache-affinity elected",
				got.Placement, got.NoFlushElection)
		}

		g, err := drxmp.Create(c, "placeknob2", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: drxmp.Tuning{Placement: drxmp.PlacementZoneCurve, NoFlushElection: true},
		})
		if err != nil {
			return err
		}
		defer g.Close()
		if got := g.Tuning(); !got.NoFlushElection {
			return fmt.Errorf("NoFlushElection did not round-trip")
		}

		if _, err := drxmp.Create(c, "placebad", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: drxmp.Tuning{Placement: "hilbert"},
		}); !errors.Is(err, drxmp.ErrBadOptions) {
			return fmt.Errorf("unknown placement: err = %v, want ErrBadOptions", err)
		}
		if _, err := drxmp.Create(c, "placebad2", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: drxmp.Tuning{NoFlushElection: true},
		}); !errors.Is(err, drxmp.ErrBadOptions) {
			return fmt.Errorf("NoFlushElection without policy: err = %v, want ErrBadOptions", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlacementFlushElectStats: placement and flush election are
// observable in the counters, not just plumbed. Each rank rewrites its
// own contiguous slab one full-width chunk row per collective through
// write-behind, on a server count the aggregator count does not divide,
// so watermark crossings land while every region is partly absorbed.
// Under an elected policy the shared cache records owned (per-region)
// flush sweeps, and with election disabled it records none.
// Cache-affinity makes every rank the aggregator of its own slab: the
// exchange stays on the writing rank and each sweep is one contiguous
// run, where byte-cyclic hands every rank each fourth stripe of the
// whole file; and a region's elected flusher seeks less than every
// crossing rank flushing fragments of all four regions.
func TestPlacementFlushElectStats(t *testing.T) {
	const ranks = 4
	const n, cols = 256, 64
	type result struct {
		cache     drxmp.CacheStats
		fs        pfs.Stats
		warmSeeks int64 // charged by the second, steady-state rewrite
	}
	run := func(placement string, noElection bool) result {
		var res result
		err := cluster.Run(ranks, func(c *cluster.Comm) error {
			f, err := drxmp.Create(c, fmt.Sprintf("placeelect-%s-%v", placement, noElection), drxmp.Options{
				DType: drxmp.Float64, ChunkShape: []int{8, cols}, Bounds: []int{n, cols},
				FS: pfs.Options{Servers: 3, StripeSize: 512},
				Tuning: drxmp.Tuning{
					WriteBehindBytes: n * cols * 8 / 8,
					Placement:        placement,
					NoFlushElection:  noElection,
				},
			})
			if err != nil {
				return err
			}
			defer f.Close()
			for round := 0; round < 2; round++ {
				cold := f.FS().Stats().Seeks() // Sync is a barrier: round 0 is fully charged
				for lo := c.Rank() * n / ranks; lo < (c.Rank()+1)*n/ranks; lo += 8 {
					box := drxmp.NewBox([]int{lo, 0}, []int{lo + 8, cols})
					if err := f.WriteSectionAll(box, rankData(c.Rank(), box, int64(round)), drxmp.RowMajor); err != nil {
						return err
					}
				}
				if err := f.Sync(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					res.fs = f.FS().Stats()
					res.warmSeeks = res.fs.Seeks() - cold
				}
			}
			if c.Rank() == 0 {
				res.cache = f.CacheStats()
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	elected := run(drxmp.PlacementCacheAffinity, false)
	unelected := run(drxmp.PlacementCacheAffinity, true)
	cyclic := run(drxmp.PlacementByteCyclic, false)
	if elected.cache.OwnedFlushes == 0 {
		t.Fatalf("elected run recorded no owned flush sweeps: %+v", elected.cache)
	}
	if unelected.cache.OwnedFlushes != 0 {
		t.Fatalf("unelected run recorded %d owned flush sweeps", unelected.cache.OwnedFlushes)
	}
	if l, r := elected.fs.DomainLocalBytes(), elected.fs.DomainRemoteBytes(); r != 0 || l == 0 {
		t.Errorf("cache-affinity exchange not domain-local: local=%d remote=%d", l, r)
	}
	if cyclic.fs.DomainRemoteBytes() == 0 {
		t.Errorf("byte-cyclic exchange recorded no remote bytes")
	}
	if elected.warmSeeks >= cyclic.warmSeeks {
		t.Errorf("cache-affinity warm rewrite charged %d seeks, byte-cyclic %d: want fewer",
			elected.warmSeeks, cyclic.warmSeeks)
	}
	if elected.warmSeeks >= unelected.warmSeeks {
		t.Errorf("elected flushers charged %d warm seeks, unelected %d: want fewer",
			elected.warmSeeks, unelected.warmSeeks)
	}
}
