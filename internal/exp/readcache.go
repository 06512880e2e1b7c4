package exp

import (
	"fmt"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
	"drxmp/internal/report"
)

// E20 — the unified-file-cache read ablation. Three tables:
//
//  1. Cold/warm sectioned re-read: a multi-band collective read epoch
//     run twice per config (no cache / cache / cache + read-ahead).
//     The cold pass pays the same server traffic as the baseline
//     (rounded up to sieve blocks), the warm pass is served from the
//     shared extent cache without touching a server — the scan-reuse
//     regime ArrayBridge-style array workloads live in.
//  2. Data sieving on strided column reads: a column section of a
//     row-major chunked array is hundreds of tiny file runs; sieving
//     turns them into a handful of stripe-aligned block fetches, so
//     requests and seeks collapse even on a COLD cache.
//  3. Read-ahead on a forward scan: an independent rank reads the
//     bands in file order; with read-ahead each miss also fetches the
//     next band's blocks, so the scan needs about half the misses (and
//     request rounds) to cover the same bytes.

// DefaultCacheBytes is the cache budget E20 uses; 0 sizes it to the
// array (drxbench -cache overrides it).
var DefaultCacheBytes int64

// e20Cost matches the E18/E19 seek-dominant real-time model.
func e20Cost() pfs.CostModel { return e18Cost() }

// e20Budget resolves the cache budget for an arrayBytes-sized file.
func e20Budget(arrayBytes int64) int64 {
	if DefaultCacheBytes > 0 {
		return DefaultCacheBytes
	}
	return arrayBytes + arrayBytes/4
}

// e20Config is one cache-policy cell of the ablation.
type e20Config struct {
	name  string
	cache func(arrayBytes int64) int64
	ra    int64
}

func e20Configs() []e20Config {
	return []e20Config{
		{"no-cache", func(int64) int64 { return 0 }, 0},
		{"cache", e20Budget, 0},
	}
}

// e20Run executes the two-pass collective read epoch: the array is
// seeded and synced, stats reset, then every chunk-row band is read
// collectively (stride order, one band per collective, each rank its
// column slice) twice. Returned are the wall times of the cold and
// warm passes plus the server/cache accounting of both.
func e20Run(n, ranks, servers int, stripe int64, cache func(int64) int64, ra int64, seq bool) (
	cold, warm time.Duration, reads, seeks, sieveBytes int64, cs drxmp.CacheStats, err error) {
	const chunk = 32
	arrayBytes := int64(n) * int64(n) * 8
	err = cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, fmt.Sprintf("e20-%d-%d", cache(arrayBytes), ra), drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS: pfs.Options{
				Servers: servers, StripeSize: stripe, Cost: e20Cost(),
				Scheduler: pfs.Elevator,
			},
			Tuning: drxmp.Tuning{
				CollectiveParallelism: 8,
				CacheBytes:            cache(arrayBytes),
				ReadAheadBytes:        ra,
			},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		f.IO().CollectiveBufferSize = stripe

		q := n / ranks
		full := drxmp.NewBox([]int{0, c.Rank() * q}, []int{n, (c.Rank() + 1) * q})
		seed := make([]byte, full.Volume()*8)
		for i := range seed {
			seed[i] = byte(c.Rank()*13 + i)
		}
		if err := f.WriteSectionAll(full, seed, drxmp.RowMajor); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			f.FS().ResetStats()
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		bands := n / chunk
		perm := e19Perm(bands) // stride order: the E19 seek-adversarial epoch
		if seq {
			perm = perm[:0]
			for t := 0; t < bands; t++ {
				perm = append(perm, t) // forward scan: the read-ahead regime
			}
		}
		pass := func() (time.Duration, error) {
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			start := time.Now()
			for _, t := range perm {
				box := drxmp.NewBox([]int{t * chunk, c.Rank() * q}, []int{(t + 1) * chunk, (c.Rank() + 1) * q})
				buf := make([]byte, box.Volume()*8)
				if err := f.ReadSectionAll(box, buf, drxmp.RowMajor); err != nil {
					return 0, err
				}
			}
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			return time.Since(start), nil
		}
		coldT, err := pass()
		if err != nil {
			return err
		}
		warmT, err := pass()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			cold, warm = coldT, warmT
			st := f.FS().Stats()
			reads, seeks, sieveBytes = st.Reads(), st.Seeks(), st.SieveBytes()
			cs = f.CacheStats()
		}
		return nil
	})
	return cold, warm, reads, seeks, sieveBytes, cs, err
}

// e20Strided reads a `cols`-column section (strided tiny runs) from a
// seeded array, twice, independently on one rank.
func e20Strided(n, servers int, stripe int64, cache func(int64) int64) (
	cold, warm time.Duration, reads, seeks int64, err error) {
	const chunk = 32
	arrayBytes := int64(n) * int64(n) * 8
	err = cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, fmt.Sprintf("e20s-%d", cache(arrayBytes)), drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS: pfs.Options{
				Servers: servers, StripeSize: stripe, Cost: e20Cost(),
				Scheduler: pfs.Elevator,
			},
			Tuning: drxmp.Tuning{CacheBytes: cache(arrayBytes)},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		full := drxmp.NewBox([]int{0, 0}, []int{n, n})
		seed := make([]byte, full.Volume()*8)
		for i := range seed {
			seed[i] = byte(i)
		}
		if err := f.WriteSection(full, seed, drxmp.RowMajor); err != nil {
			return err
		}
		f.FS().ResetStats()
		// One column of every chunk: n tiny 8-byte runs per column read.
		box := drxmp.NewBox([]int{0, 0}, []int{n, 4})
		buf := make([]byte, box.Volume()*8)
		start := time.Now()
		if err := f.ReadSection(box, buf, drxmp.RowMajor); err != nil {
			return err
		}
		cold = time.Since(start)
		st := f.FS().Stats()
		reads, seeks = st.Reads(), st.Seeks()
		start = time.Now()
		if err := f.ReadSection(box, buf, drxmp.RowMajor); err != nil {
			return err
		}
		warm = time.Since(start)
		return nil
	})
	return cold, warm, reads, seeks, err
}

// e20Scan is the read-ahead study: ONE rank reads every chunk-row
// band in file order through the independent path (each band is one
// vectored cached read), with the cache budget sized to the
// array. Read-ahead extends each miss's fetch toward the next band.
func e20Scan(n, servers int, stripe, ra int64) (
	wall time.Duration, reads, seeks int64, cs drxmp.CacheStats, err error) {
	const chunk = 32
	arrayBytes := int64(n) * int64(n) * 8
	err = cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, fmt.Sprintf("e20r-%d", ra), drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS: pfs.Options{
				Servers: servers, StripeSize: stripe, Cost: e20Cost(),
				Scheduler: pfs.Elevator,
			},
			Tuning: drxmp.Tuning{
				CacheBytes:     e20Budget(arrayBytes),
				ReadAheadBytes: ra,
			},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		full := drxmp.NewBox([]int{0, 0}, []int{n, n})
		seed := make([]byte, full.Volume()*8)
		for i := range seed {
			seed[i] = byte(i)
		}
		if err := f.WriteSection(full, seed, drxmp.RowMajor); err != nil {
			return err
		}
		f.FS().ResetStats()
		start := time.Now()
		for t := 0; t < n/chunk; t++ {
			box := drxmp.NewBox([]int{t * chunk, 0}, []int{(t + 1) * chunk, n})
			buf := make([]byte, box.Volume()*8)
			if err := f.ReadSection(box, buf, drxmp.RowMajor); err != nil {
				return err
			}
		}
		wall = time.Since(start)
		st := f.FS().Stats()
		reads, seeks = st.Reads(), st.Seeks()
		cs = f.CacheStats()
		return nil
	})
	return wall, reads, seeks, cs, err
}

// E20ReadCache measures the read side of the unified extent cache
// against the cache-off baseline of PR 4.
func E20ReadCache(sc Scale) []*report.Table {
	n := sc.pick(192, 384)
	const ranks = 4
	const servers = 8
	stripe := int64(2 << 10)
	mib := float64(n) * float64(n) * 8 / (1 << 20)

	main := report.New(fmt.Sprintf(
		"E20: cold/warm collective re-read ablation, %d bands, %dx%d f64, %d real-time servers (2 ms seeks)",
		n/32, n, n, servers),
		"config", "cold", "warm", "warm MB/s", "warm speedup", "srv reads", "seeks", "sieve bytes", "hit/miss bytes")
	var baseWarm time.Duration
	for _, cfg := range e20Configs() {
		cold, warm, reads, seeks, sieveBytes, cs, err := e20Run(n, ranks, servers, stripe, cfg.cache, cfg.ra, false)
		if err != nil {
			main.AddNote("%s: %v", cfg.name, err)
			continue
		}
		if cfg.name == "no-cache" {
			baseWarm = warm
		}
		main.AddRow(cfg.name, cold.Round(time.Microsecond), warm.Round(time.Microsecond),
			fmt.Sprintf("%.1f", mib*float64(time.Second)/float64(warm)),
			report.Ratio(float64(baseWarm), float64(warm)),
			reads, seeks, report.Bytes(sieveBytes),
			fmt.Sprintf("%s/%s", report.Bytes(cs.HitBytes), report.Bytes(cs.MissBytes)))
	}
	main.AddNote("shape check: the warm pass under the cache issues no further server reads (every band is a hit in the shared extent cache), so warm wall time collapses versus the no-cache re-read — the >= 1.5x acceptance bar of the read-cache tentpole")

	strided := report.New(fmt.Sprintf(
		"E20b: data sieving on a strided 4-column read of a %dx%d row-major chunked array (8-byte file runs)", n, n),
		"config", "cold", "warm", "srv reads", "seeks")
	for _, cfg := range []struct {
		name  string
		cache func(int64) int64
	}{
		{"no-cache", func(int64) int64 { return 0 }},
		{"sieve", e20Budget},
	} {
		cold, warm, reads, seeks, err := e20Strided(n, servers, stripe, cfg.cache)
		if err != nil {
			strided.AddNote("%s: %v", cfg.name, err)
			continue
		}
		strided.AddRow(cfg.name, cold.Round(time.Microsecond), warm.Round(time.Microsecond), reads, seeks)
	}
	strided.AddNote("shape check: sieving fetches whole stripe-aligned blocks once instead of hundreds of 8-byte reads, so requests and seeks collapse on the COLD pass already, and the warm pass touches no server")

	bandBytes := int64(32) * int64(n) * 8
	ra := report.New(fmt.Sprintf(
		"E20c: read-ahead on an independent forward band scan (%d sequential band reads, serial rank)", n/32),
		"config", "wall", "srv reads", "seeks", "cache misses", "sieve bytes")
	for _, cfg := range []struct {
		name string
		ra   int64
	}{
		{"cache", 0},
		{"cache+ra(band)", bandBytes},
	} {
		wall, reads, seeks, cs, err := e20Scan(n, servers, stripe, cfg.ra)
		if err != nil {
			ra.AddNote("%s: %v", cfg.name, err)
			continue
		}
		ra.AddRow(cfg.name, wall.Round(time.Microsecond), reads, seeks, cs.Misses, report.Bytes(cs.SieveFetched))
	}
	ra.AddNote("shape check: with one band of read-ahead every miss also fetches the next band, so the scan covers the same bytes in about half the misses (request rounds), and never re-reads bytes the cache already holds (the fetch plan is clipped against coverage)")

	return []*report.Table{main, strided, ra}
}
