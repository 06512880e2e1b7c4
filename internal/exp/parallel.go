package exp

import (
	"fmt"
	"math"
	"sync"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
	"drxmp/internal/report"
	"drxmp/internal/workload"
	"drxmp/internal/zone"
)

// E4Scaling reads the zones of a fixed principal array collectively
// with P = 1..16 processes over an 8-server striped store. The
// simulated end-to-end time is max(server-side parallel time,
// slowest-client link time): the server side is fixed (the whole array
// moves regardless of P), so scaling comes from dividing the client
// traffic — until the 8 servers become the bottleneck.
func E4Scaling(sc Scale) []*report.Table {
	n := sc.pick(256, 512)
	chunk := 32
	cost := pfs.DefaultCost()
	t := report.New(fmt.Sprintf("E4: collective zone read of a %dx%d f64 principal array, 8 I/O servers", n, n),
		"P", "bytes/rank (max)", "io requests", "server time", "client time", "sim total", "speedup")
	var base time.Duration
	for _, p := range []int{1, 2, 4, 8, 16} {
		var maxBytes int64
		st, err := runParallel(p, n, chunk, func(f *drxmp.File, c *cluster.Comm) error {
			my, err := f.MyZone()
			if err != nil {
				return err
			}
			var mine int64
			for _, b := range my {
				buf := make([]byte, b.Volume()*8)
				if err := f.ReadSectionAll(b, buf, drxmp.RowMajor); err != nil {
					return err
				}
				mine += int64(len(buf))
			}
			all, err := cluster.AllreduceInt64(c, []int64{mine}, cluster.MaxInt64)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				maxBytes = all[0]
			}
			return nil
		})
		if err != nil {
			t.AddNote("P=%d: %v", p, err)
			continue
		}
		// Client link model: the slowest rank moves maxBytes over a link
		// with the same per-byte time as a server (100 MB/s).
		client := time.Duration(maxBytes) * cost.ByteTime
		total := st.Elapsed()
		if client > total {
			total = client
		}
		if p == 1 {
			base = total
		}
		t.AddRow(p, report.Bytes(maxBytes), st.Requests(), st.Elapsed(), client, total,
			report.Ratio(float64(base), float64(total)))
	}
	t.AddNote("shape check: total falls with P while client-bound, then plateaus at the 8-server floor")
	return []*report.Table{t}
}

// runParallel creates a fresh striped array, fills it, resets stats,
// runs body on p ranks, and returns the I/O stats of the body phase.
func runParallel(p, n, chunk int, body func(f *drxmp.File, c *cluster.Comm) error) (pfs.Stats, error) {
	var stats pfs.Stats
	var mu sync.Mutex
	err := cluster.Run(p, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "e4", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS: pfs.Options{Servers: 8, StripeSize: 64 << 10, Cost: pfs.DefaultCost()},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if c.Rank() == 0 {
			full := drxmp.NewBox([]int{0, 0}, []int{n, n})
			vals := workload.FillBox(full, grid.RowMajor)
			if err := f.WriteSectionFloat64s(full, vals, drxmp.RowMajor); err != nil {
				return err
			}
			f.FS().ResetStats()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := body(f, c); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			stats = f.FS().Stats()
			mu.Unlock()
		}
		return nil
	})
	return stats, err
}

// E5Collective compares independent vs two-phase collective reads of an
// interleaved (BLOCK_CYCLIC) chunk distribution — the paper's Section IV
// irregular access pattern.
func E5Collective(sc Scale) []*report.Table {
	n := sc.pick(256, 512)
	chunk := 16
	const p = 4
	t := report.New(fmt.Sprintf("E5: %d ranks reading BLOCK_CYCLIC(1) zones of a %dx%d f64 array", p, n, n),
		"method", "io requests", "seeks", "sim time")
	for _, collective := range []bool{false, true} {
		var stats pfs.Stats
		err := cluster.Run(p, func(c *cluster.Comm) error {
			f, err := drxmp.Create(c, "e5", drxmp.Options{
				DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
				FS:     pfs.Options{Servers: 4, StripeSize: 64 << 10, Cost: pfs.DefaultCost()},
				Decomp: zone.BlockCyclic, CyclicBlock: 1,
			})
			if err != nil {
				return err
			}
			defer f.Close()
			if c.Rank() == 0 {
				full := drxmp.NewBox([]int{0, 0}, []int{n, n})
				if err := f.WriteSectionFloat64s(full, workload.FillBox(full, grid.RowMajor), drxmp.RowMajor); err != nil {
					return err
				}
				f.FS().ResetStats()
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			my, err := f.MyZone()
			if err != nil {
				return err
			}
			for _, b := range my {
				buf := make([]byte, b.Volume()*8)
				if collective {
					if err := f.ReadSectionAll(b, buf, drxmp.RowMajor); err != nil {
						return err
					}
				} else {
					if err := f.ReadSection(b, buf, drxmp.RowMajor); err != nil {
						return err
					}
				}
			}
			// Collective calls must stay matched across ranks: zones can
			// have different box counts, so pad with empty calls.
			if collective {
				all, err := cluster.AllreduceInt64(c, []int64{int64(len(my))}, cluster.MaxInt64)
				if err != nil {
					return err
				}
				for i := int64(len(my)); i < all[0]; i++ {
					if err := f.ReadSectionAll(drxmp.NewBox([]int{0, 0}, []int{0, 0}), nil, drxmp.RowMajor); err != nil {
						return err
					}
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				stats = f.FS().Stats()
			}
			return nil
		})
		if err != nil {
			t.AddNote("collective=%v: %v", collective, err)
			continue
		}
		name := "independent"
		if collective {
			name = "collective (two-phase)"
		}
		t.AddRow(name, stats.Requests(), stats.Seeks(), stats.Elapsed())
	}
	t.AddNote("shape check: the two-phase collective needs far fewer, larger requests")
	return []*report.Table{t}
}

// E6ChunkStripe sweeps the chunk size against a fixed stripe size — the
// paper's future-work question of "reconciling the chunk size with the
// strip size". The workload is chunk-at-a-time access ("a chunk is the
// unit of access of data between memory and file storage"): each rank
// reads every chunk of its zone with one independent request, so chunk
// granularity — not two-phase aggregation — determines the request
// pattern the servers see.
func E6ChunkStripe(sc Scale) []*report.Table {
	n := sc.pick(256, 512)
	const p = 4
	stripe := int64(32 << 10) // 32 KiB stripes, 4 servers
	t := report.New(fmt.Sprintf("E6: chunk size vs %s stripes (4 servers), %dx%d f64, 4 ranks, chunk-at-a-time reads",
		report.Bytes(stripe), n, n),
		"chunk", "chunk bytes", "chunk/stripe", "chunks read", "server requests", "sim time")
	for _, chunk := range []int{16, 32, 64, 128} {
		if chunk > n/2 {
			continue
		}
		chunkBytes := int64(chunk) * int64(chunk) * 8
		var stats pfs.Stats
		var chunksRead int64
		err := cluster.Run(p, func(c *cluster.Comm) error {
			f, err := drxmp.Create(c, "e6", drxmp.Options{
				DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
				FS: pfs.Options{Servers: 4, StripeSize: stripe, Cost: pfs.DefaultCost()},
			})
			if err != nil {
				return err
			}
			defer f.Close()
			if c.Rank() == 0 {
				full := drxmp.NewBox([]int{0, 0}, []int{n, n})
				if err := f.WriteSectionFloat64s(full, workload.FillBox(full, grid.RowMajor), drxmp.RowMajor); err != nil {
					return err
				}
				f.FS().ResetStats()
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			my, err := f.MyZone()
			if err != nil {
				return err
			}
			buf := make([]byte, chunkBytes)
			var mine int64
			for _, zb := range my {
				cover := grid.ChunkCover(zb, grid.Shape{chunk, chunk})
				var ierr error
				cover.Iterate(grid.RowMajor, func(ci []int) bool {
					cb := grid.ChunkBox(ci, grid.Shape{chunk, chunk})
					if ierr = f.ReadSection(cb, buf, drxmp.RowMajor); ierr != nil {
						return false
					}
					mine++
					return true
				})
				if ierr != nil {
					return ierr
				}
			}
			all, err := cluster.AllreduceInt64(c, []int64{mine}, cluster.SumInt64)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				stats = f.FS().Stats()
				chunksRead = all[0]
			}
			return nil
		})
		if err != nil {
			t.AddNote("chunk=%d: %v", chunk, err)
			continue
		}
		t.AddRow(fmt.Sprintf("%dx%d", chunk, chunk), report.Bytes(chunkBytes),
			fmt.Sprintf("%.2f", float64(chunkBytes)/float64(stripe)),
			chunksRead, stats.Requests(), stats.Elapsed())
	}
	t.AddNote("shape check: chunk ≪ stripe pays per-chunk request overhead; chunk ≥ stripe streams from all servers")
	return []*report.Table{t}
}

// E8RMA reads one element through each of the three access paths of
// the paper's Section II: local zone memory, a remote zone via
// one-sided access, and the file directly. Each path must return the
// value the file holds.
func E8RMA(sc Scale) []*report.Table {
	n := sc.pick(128, 256)
	chunk := 32
	t := report.New(fmt.Sprintf("E8: element access paths on a %dx%d f64 distributed array (4 ranks)", n, n),
		"path", "correct")
	err := cluster.Run(4, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "e8", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS: pfs.Options{Servers: 4, StripeSize: 64 << 10},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if c.Rank() == 0 {
			full := drxmp.NewBox([]int{0, 0}, []int{n, n})
			if err := f.WriteSectionFloat64s(full, workload.FillBox(full, grid.RowMajor), drxmp.RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		da, err := f.Distribute(drxmp.RowMajor)
		if err != nil {
			return err
		}
		defer da.Free()
		if c.Rank() == 0 {
			localIdx := []int{1, 1}          // rank 0's zone
			remoteIdx := []int{n - 1, n - 1} // rank 3's zone
			for _, p := range []struct {
				name string
				idx  []int
			}{{"local zone memory", localIdx}, {"remote zone (one-sided)", remoteIdx}} {
				v, err := da.Get(p.idx)
				if err != nil {
					return err
				}
				t.AddRow(p.name, v == workload.Fill(p.idx))
			}
			buf := make([]byte, 8)
			one := drxmp.NewBox(remoteIdx, []int{remoteIdx[0] + 1, remoteIdx[1] + 1})
			if err := f.ReadSection(one, buf, drxmp.RowMajor); err != nil {
				return err
			}
			t.AddRow("direct file read", f64le(buf) == workload.Fill(remoteIdx))
		}
		return da.Fence()
	})
	if err != nil {
		t.AddNote("error: %v", err)
	}
	t.AddNote("the GA memory hierarchy of Section II: local ≪ remote ≪ file in cost; this table checks values, not time")
	return []*report.Table{t}
}

func f64le(p []byte) float64 {
	var u uint64
	for i := 7; i >= 0; i-- {
		u = u<<8 | uint64(p[i])
	}
	return math.Float64frombits(u)
}

// E9ParallelExtend demonstrates collective extension plus parallel
// writes of the new segment, verifying the no-reorganization invariant
// at the byte level.
func E9ParallelExtend(sc Scale) []*report.Table {
	n := sc.pick(128, 256)
	chunk := 32
	const p = 4
	t := report.New(fmt.Sprintf("E9: collective extend + parallel write of the new segment (%dx%d f64, %d ranks)", n, n, p),
		"phase", "file bytes", "bytes written", "old bytes changed")
	err := cluster.Run(p, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "e9", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS: pfs.Options{Servers: 4, StripeSize: 64 << 10, Cost: pfs.DefaultCost()},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if c.Rank() == 0 {
			full := drxmp.NewBox([]int{0, 0}, []int{n, n})
			if err := f.WriteSectionFloat64s(full, workload.FillBox(full, grid.RowMajor), drxmp.RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		var before []byte
		oldBytes := f.Meta().FileBytes()
		if c.Rank() == 0 {
			before = make([]byte, oldBytes)
			if _, err := f.FS().ReadAt(before, 0); err != nil {
				return err
			}
			f.FS().ResetStats()
			t.AddRow("before extend", report.Bytes(oldBytes), "-", "-")
		}
		if err := f.Extend(1, chunk); err != nil {
			return err
		}
		// Each rank writes a horizontal slice of the new column band.
		rows := n / p
		box := drxmp.NewBox([]int{c.Rank() * rows, n}, []int{(c.Rank() + 1) * rows, n + chunk})
		vals := workload.FillBox(box, grid.RowMajor)
		if err := f.WriteSectionAll(box, encodeF64(vals), drxmp.RowMajor); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			after := make([]byte, oldBytes)
			if _, err := f.FS().ReadAt(after, 0); err != nil {
				return err
			}
			changed := 0
			for i := range before {
				if before[i] != after[i] {
					changed++
				}
			}
			st := f.FS().Stats()
			var written int64
			for _, ps := range st.PerServer {
				written += ps.BytesWritten
			}
			t.AddRow("after extend+write", report.Bytes(f.Meta().FileBytes()), report.Bytes(written), changed)
		}
		return nil
	})
	if err != nil {
		t.AddNote("error: %v", err)
	}
	t.AddNote("shape check: bytes written ≈ the new segment only; old bytes changed must be 0")
	return []*report.Table{t}
}

func encodeF64(vals []float64) []byte {
	out := make([]byte, len(vals)*8)
	for i := range vals {
		u := math.Float64bits(vals[i])
		out[i*8+0] = byte(u)
		out[i*8+1] = byte(u >> 8)
		out[i*8+2] = byte(u >> 16)
		out[i*8+3] = byte(u >> 24)
		out[i*8+4] = byte(u >> 32)
		out[i*8+5] = byte(u >> 40)
		out[i*8+6] = byte(u >> 48)
		out[i*8+7] = byte(u >> 56)
	}
	return out
}
