package exp

import (
	"fmt"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
	"drxmp/internal/report"
)

// E23 — the tiered extent cache ablation. A forward slab scan re-reads
// a working set about 4x the memory budget, the LRU worst case: by the
// time the scan wraps, everything it cached has been evicted, so a
// RAM-only cache re-pays the full server bill (2 ms seeks, real time)
// on every pass. With a spill tier the same evictions DEMOTE to a
// local slab file instead, and the re-read promotes from local disk
// without touching a server. The third config adds the adaptive
// controller, which re-derives the sieve block and read-ahead from the
// observed request-size histogram and sequentiality instead of the
// static stripe-derived defaults.

// DefaultSpillBytes is the spill-tier budget E23 uses for its spill
// configs; 0 sizes it to the array (drxbench -spill overrides it).
var DefaultSpillBytes int64

// DefaultAdaptive forces the adaptive controller on in every cached
// E23 config (drxbench -adaptive), collapsing the spill vs
// spill+adaptive ablation into a tuned-only comparison.
var DefaultAdaptive bool

// e23Config is one tier-policy cell of the ablation.
type e23Config struct {
	name     string
	spill    bool
	adaptive bool
}

func e23Configs() []e23Config {
	cfgs := []e23Config{
		{"ram-only", false, false},
		{"spill", true, false},
		{"spill+adaptive", true, true},
	}
	if DefaultAdaptive {
		for i := range cfgs {
			cfgs[i].adaptive = true
		}
	}
	return cfgs
}

// e23Pass is the accounting of one scan pass.
type e23Pass struct {
	Wall  time.Duration
	Reads int64            // pfs read services issued during the pass
	Seeks int64            // pfs seeks charged during the pass
	Cache drxmp.CacheStats // cumulative cache accounting at pass end
}

// e23Run seeds an n x 32 f64 array (chunked 32x32, so each 8-row slab
// is one contiguous file run) and scans it forward in 8-row slabs,
// `passes` times, on a serial rank. The memory budget is a quarter of
// the array; the spill budget, when enabled, covers the whole working
// set. Returns per-pass wall time and server/cache accounting.
func e23Run(n, servers int, stripe int64, cfg e23Config, passes int) ([]e23Pass, error) {
	const cols = 32
	const slab = 8
	arrayBytes := int64(n) * cols * 8
	var spillB int64
	if cfg.spill {
		spillB = DefaultSpillBytes
		if spillB <= 0 {
			spillB = arrayBytes + arrayBytes/4
		}
	}
	var out []e23Pass
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "e23-"+cfg.name, drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{32, cols}, Bounds: []int{n, cols},
			FS: pfs.Options{
				Servers: servers, StripeSize: stripe, Cost: e20Cost(),
				Scheduler: pfs.Elevator,
			},
			Tuning: drxmp.Tuning{
				CacheBytes: arrayBytes / 4,
				SpillBytes: spillB,
				AdaptiveIO: cfg.adaptive,
			},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		full := drxmp.NewBox([]int{0, 0}, []int{n, cols})
		seed := make([]byte, full.Volume()*8)
		for i := range seed {
			seed[i] = byte(i * 7)
		}
		if err := f.WriteSection(full, seed, drxmp.RowMajor); err != nil {
			return err
		}
		f.FS().ResetStats()
		var prevReads, prevSeeks int64
		for p := 0; p < passes; p++ {
			start := time.Now()
			buf := make([]byte, slab*cols*8)
			for t := 0; t < n/slab; t++ {
				box := drxmp.NewBox([]int{t * slab, 0}, []int{(t + 1) * slab, cols})
				if err := f.ReadSection(box, buf, drxmp.RowMajor); err != nil {
					return err
				}
			}
			wall := time.Since(start)
			st := f.FS().Stats()
			out = append(out, e23Pass{
				Wall:  wall,
				Reads: st.Reads() - prevReads,
				Seeks: st.Seeks() - prevSeeks,
				Cache: f.CacheStats(),
			})
			prevReads, prevSeeks = st.Reads(), st.Seeks()
		}
		return nil
	})
	return out, err
}

// E23TieredCache measures the spill tier and the adaptive controller
// against the RAM-only cache of PR 5 on the oversized-working-set
// re-read.
func E23TieredCache(sc Scale) []*report.Table {
	n := sc.pick(512, 2048)
	const servers = 8
	stripe := int64(512)
	mib := float64(n) * 32 * 8 / (1 << 20)

	tbl := report.New(fmt.Sprintf(
		"E23: tiered-cache re-read of a working set 4x the memory budget, %d slab reads/pass, %dx32 f64, %d real-time servers (2 ms seeks)",
		n/8, n, servers),
		"config", "cold", "warm", "warm MB/s", "warm speedup", "warm srv reads",
		"demoted/promoted", "spill hits", "retunes", "sieve/ra")
	var baseWarm time.Duration
	for _, cfg := range e23Configs() {
		ps, err := e23Run(n, servers, stripe, cfg, 2)
		if err != nil {
			tbl.AddNote("%s: %v", cfg.name, err)
			continue
		}
		cold, warm := ps[0], ps[1]
		if cfg.name == "ram-only" {
			baseWarm = warm.Wall
		}
		cs := warm.Cache
		tbl.AddRow(cfg.name, cold.Wall.Round(time.Microsecond), warm.Wall.Round(time.Microsecond),
			fmt.Sprintf("%.1f", mib*float64(time.Second)/float64(warm.Wall)),
			report.Ratio(float64(baseWarm), float64(warm.Wall)),
			warm.Reads,
			fmt.Sprintf("%s/%s", report.Bytes(cs.SpillDemoted), report.Bytes(cs.SpillPromoted)),
			cs.SpillHits, cs.Retunes,
			fmt.Sprintf("%s/%s", report.Bytes(cs.SieveSize), report.Bytes(cs.ReadAheadBytes)))
	}
	tbl.AddNote("shape check: the RAM-only warm pass re-pays the full server bill (the scan wraps past the LRU budget), the spill warm pass promotes from the local slab file instead — fewer server reads and >= 1.5x MB/s, the tiered-cache acceptance bar; the adaptive row retunes the sieve/read-ahead off the static defaults and its retune count goes quiet within the run")
	return []*report.Table{tbl}
}
