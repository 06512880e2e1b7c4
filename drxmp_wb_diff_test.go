package drxmp_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// Differential suite for write-behind collective buffering: deferring
// the dispatch of collective writes behind the dirty-extent cache — at
// any watermark, including close-only — must be invisible to the data.
// Interleaved read/write rounds, overlapping rank sections, odd chunk
// shapes, and 2-D/3-D arrays all must come out byte-identical to the
// immediate-dispatch baseline — also with the tiered (memory +
// local-disk spill) cache underneath the buffered writes.

// wbVariant is one write-behind policy under test.
type wbVariant struct {
	name  string
	wb    int64
	spill bool // an 8 KiB memory cache over a 1 MiB spill tier
}

func wbVariants() []wbVariant {
	return []wbVariant{
		{name: "immediate"},                 // the baseline: no buffering
		{name: "watermark-4k", wb: 4096},    // flushes every few collectives
		{name: "watermark-1m", wb: 1 << 20}, // rarely crosses: mostly close-only
		{name: "close-only", wb: -1},        // unbounded buffering
	}
}

// TestWriteBehindDifferentialIdentical drives interleaved read/write
// rounds — overlapping collective writes, collective reads between
// rounds, a final Sync, then a full independent readback — through
// every write-behind policy, requiring byte-identical files and read
// buffers against the immediate baseline.
func TestWriteBehindDifferentialIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy differential suite: skipped under -short")
	}
	diffWriteBehind(t, "wb", 4, 70, wbVariants())
}

// TestPlacementDifferentialIdentical: the byte-cyclic aggregator
// placement, on a server count the four ranks do not divide, with
// write-behind and the tiered (memory + local-disk spill) cache under
// it, comes out byte-identical to the serial immediate baseline.
func TestPlacementDifferentialIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy differential suite: skipped under -short")
	}
	diffWriteBehind(t, "place", 3, 90, []wbVariant{
		{name: "baseline"},
		{name: "default", wb: 4096, spill: true},
	})
}

// diffWriteBehind runs the interleaved rounds on four ranks over every
// collShapes shape, one file per variant on the given server count,
// and compares every variant against variants[0].
func diffWriteBehind(t *testing.T, prefix string, servers int, seed int64, variants []wbVariant) {
	const ranks = 4
	for _, sh := range collShapes() {
		t.Run(sh.name, func(t *testing.T) {
			spillDir := t.TempDir()
			full := drxmp.NewBox(make([]int, len(sh.bounds)), sh.bounds)
			fullBytes := make([][]byte, len(variants))
			rankReads := make([][][]byte, ranks)
			for r := range rankReads {
				rankReads[r] = make([][]byte, len(variants))
			}
			err := cluster.Run(ranks, func(c *cluster.Comm) error {
				files := make([]*drxmp.File, len(variants))
				for i, v := range variants {
					tuning := drxmp.Tuning{CollectiveParallelism: 8, WriteBehindBytes: v.wb}
					if v.spill {
						tuning.CacheBytes = 8 << 10
						tuning.SpillBytes = 1 << 20
						tuning.SpillPath = filepath.Join(spillDir, v.name+"-"+sh.name+".spill")
					}
					f, err := drxmp.Create(c, fmt.Sprintf("%s-%s-%s", prefix, v.name, sh.name), drxmp.Options{
						DType: drxmp.Float64, ChunkShape: sh.chunk, Bounds: sh.bounds,
						FS: pfs.Options{
							Servers: servers, StripeSize: 1 << 10, Scheduler: pfs.Elevator,
						},
						Tuning: tuning,
					})
					if err != nil {
						return err
					}
					defer f.Close()
					files[i] = f
				}

				// Interleaved rounds: overlapping collective writes, then a
				// collective read of a shifted overlapping section — the read
				// must flush exactly the dirty extents it crosses.
				for round := 0; round < 3; round++ {
					wbox := slabBox(sh.bounds, ranks, c.Rank(), round)
					data := rankData(c.Rank(), wbox, seed+int64(round))
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
							return fmt.Errorf("rank %d round %d: %s collective read differs from %s",
								c.Rank(), round, variants[i].name, variants[0].name)
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

				// Sync, then rank 0 reads each full file through the
				// independent path: after Sync even cross-rank independent
				// reads must see every deferred byte.
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
				for r := range rankReads {
					if !bytes.Equal(rankReads[r][0], rankReads[r][i]) {
						t.Errorf("rank %d: %s collective read differs from %s", r, variants[i].name, variants[0].name)
					}
				}
			}
		})
	}
}

// TestWriteBehindCloseFlushes: deferred bytes are on the store after
// Close with no Sync — the flush-before-close guarantee at the drxmp
// layer — and deferring them pays in charged work. The epoch is
// write-only and multi-round: each rank writes its column half one
// chunk-row per collective, in an order whose consecutive rows are
// rarely adjacent in the file, so immediate dispatch seeks on almost
// every round while the buffered policies merge the dirty unions into
// contiguous extents and flush them as sorted sweeps.
func TestWriteBehindCloseFlushes(t *testing.T) {
	const ranks = 2
	const n, chunk = 64, 8
	variants := []wbVariant{{name: "immediate"}, {name: "watermark", wb: n * n * 8 / 2}, {name: "close-only", wb: -1}}
	stores := make([]*pfs.FS, len(variants))
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		for i, v := range variants {
			f, err := drxmp.Create(c, "wbclose-"+v.name, drxmp.Options{
				DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
				FS:     pfs.Options{Servers: 2, StripeSize: 512},
				Tuning: drxmp.Tuning{WriteBehindBytes: v.wb},
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
// SetTuning (disable flushes), accessor, and Dirty.
func TestWriteBehindKnobPlumbing(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "wbknob", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: drxmp.Tuning{WriteBehindBytes: -1},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if got := f.WriteBehind(); got != -1 {
			return fmt.Errorf("WriteBehind() = %d, want -1", got)
		}
		box := drxmp.NewBox([]int{0, 0}, []int{8, 8})
		data := rankData(0, box, 9)
		if err := f.WriteSectionAll(box, data, drxmp.RowMajor); err != nil {
			return err
		}
		if f.Dirty() == 0 {
			return fmt.Errorf("no dirty bytes buffered under close-only write-behind")
		}
		if err := f.SetTuning(drxmp.Tuning{}); err != nil { // disable: must flush
			return err
		}
		if f.Dirty() != 0 {
			return fmt.Errorf("disabling write-behind left %d dirty bytes", f.Dirty())
		}
		if got := f.WriteBehind(); got != 0 {
			return fmt.Errorf("after disabling write-behind: %d", got)
		}
		got := make([]byte, box.Volume()*8)
		if err := f.ReadSection(box, got, drxmp.RowMajor); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("flushed bytes wrong after disable")
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
			Tuning: drxmp.Tuning{WriteBehindBytes: -1},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		// Seed through the collective path (rides write-behind), then
		// distribute: Distribute's collective read must flush coherently.
		box := slabBox([]int{n, n}, ranks, c.Rank(), 0)
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

// TestWriteBehindStressRace hammers write-behind from every rank under
// the elevator scheduler: concurrent collective write/read rounds with
// interleaved independent reads and Syncs, on real-time servers. Run
// with -race.
func TestWriteBehindStressRace(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy stress suite: skipped under -short")
	}
	const ranks = 4
	const n = 64
	var mu sync.Mutex
	seen := map[int]bool{}
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "wbstress", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{8, 8}, Bounds: []int{n, n},
			FS: pfs.Options{
				Servers: 4, StripeSize: 512, Scheduler: pfs.Elevator,
				Cost: pfs.CostModel{RequestOverhead: 20 * 1000, RealTime: true}, // 20 µs
			},
			Tuning: drxmp.Tuning{
				CollectiveParallelism: 8,
				WriteBehindBytes:      2048,
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
			// Independent read of a section this rank just helped write —
			// crosses dirty extents on this rank only.
			rbox := slabBox([]int{n, n}, ranks, c.Rank(), 0)
			buf := make([]byte, rbox.Volume()*8)
			if err := f.ReadSection(rbox, buf, drxmp.RowMajor); err != nil {
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
