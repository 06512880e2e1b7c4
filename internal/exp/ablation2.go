// ablation2.go holds the design-choice ablations E12, E14 and E15: each
// isolates one decision of the design (record merging, chunk caching,
// the in-process transport shortcut) and measures what the system loses
// without it.
package exp

import (
	"fmt"
	"math/rand"
	"time"

	"drxmp"
	"drxmp/drx"
	"drxmp/internal/cluster"
	"drxmp/internal/core"
	"drxmp/internal/pfs"
	"drxmp/internal/report"
)

// E12MergeAblation quantifies the paper's "uninterrupted extension"
// rule (Section II): repeated growth of one dimension folds into a
// single axial record. Without merging, E (the record count) grows
// with every extension, inflating both the replicated metadata and the
// binary searches inside every F* evaluation (what that costs per
// lookup is BenchmarkMapManyRecords in internal/core).
func E12MergeAblation(sc Scale) []*report.Table {
	runs := sc.pick(24, 64)   // interrupted runs (dimension changes)
	perRun := sc.pick(16, 32) // uninterrupted steps inside each run
	t := report.New(fmt.Sprintf(
		"E12: uninterrupted-expansion merging (%d runs x %d steps, 3-D)", runs, perRun),
		"variant", "records E", "metadata bytes")

	build := func(merge bool) *core.Space {
		s, err := core.NewSpace([]int{2, 2, 2})
		if err != nil {
			panic(err)
		}
		for r := 0; r < runs; r++ {
			dim := r % 3
			for p := 0; p < perRun; p++ {
				if !merge {
					s.BreakMerge()
				}
				if err := s.Extend(dim, 1); err != nil {
					panic(err)
				}
			}
		}
		return s
	}
	merged, unmerged := build(true), build(false)
	if fmt.Sprint(merged.Bounds()) != fmt.Sprint(unmerged.Bounds()) {
		panic("E12: variants diverged")
	}
	// "metadata bytes" counts the records as the address computation
	// holds them in memory: Start + Base + k coefficients, 8 bytes
	// each. The .xmd stores a record as a 12-byte history entry instead.
	row := func(name string, s *core.Space) {
		t.AddRow(name, s.NumRecords(), int64(s.NumRecords())*int64(8+8+3*8))
	}
	row("merged (paper)", merged)
	row("no merging", unmerged)
	t.AddNote("identical final bounds (%v) and identical addresses; only the record count differs", merged.Bounds())
	t.AddNote("shape check: merging keeps E at the number of *interrupted* runs, cutting metadata ~%dx",
		perRun)
	return []*report.Table{t}
}

// E14CacheAblation sweeps the serial library's chunk cache on a random
// element-access workload: the paper's serial DRX "accesses with I/O
// caching using the BerkeleyDB Mpool sub-system". The extent cache
// with a one-chunk sieve block (the stripe is one chunk) plays Mpool:
// every miss reads one whole chunk, and the budget is counted in
// chunks. With a tiny cache nearly every element access pays a chunk
// read; once the cache covers the working set, storage traffic
// collapses to the cold misses.
func E14CacheAblation(sc Scale) []*report.Table {
	n := sc.pick(64, 128) // n x n f64 array
	chunk := 8            // 8x8 chunks -> (n/8)^2 chunks total
	accesses := sc.pick(4000, 20000)
	chunks := (n / chunk) * (n / chunk)
	t := report.New(fmt.Sprintf(
		"E14: chunk cache sweep, %d random element reads on %dx%d f64 (%d chunks of %dx%d)",
		accesses, n, n, chunks, chunk, chunk),
		"cache (chunks)", "hit rate", "chunk reads", "sim time")
	for _, cc := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		if cc > 2*chunks {
			break
		}
		cb := int64(chunk * chunk * 8)
		a, err := drx.Create("e14", drx.Options{
			DType: drx.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS:     pfs.Options{Servers: 4, StripeSize: cb, Cost: pfs.DefaultCost()},
			Tuning: drxmp.Tuning{CacheBytes: int64(cc) * cb},
		})
		if err != nil {
			panic(err)
		}
		full := drx.NewBox([]int{0, 0}, []int{n, n})
		vals := make([]float64, full.Volume())
		for i := range vals {
			vals[i] = float64(i)
		}
		if err := a.WriteFloat64s(full, vals, drx.RowMajor); err != nil {
			panic(err)
		}
		// A write keeps only what is cached warm, so a read pass warms
		// the cache after the fill, as the pool's write-back left it.
		if _, err := a.ReadFloat64s(full, drx.RowMajor); err != nil {
			panic(err)
		}
		preIO := a.FS().Stats()
		preCache := a.CacheStats()
		rng := rand.New(rand.NewSource(99))
		var sink float64
		for i := 0; i < accesses; i++ {
			v, err := a.At([]int{rng.Intn(n), rng.Intn(n)})
			if err != nil {
				panic(err)
			}
			sink += v
		}
		_ = sink
		cs := a.CacheStats()
		hits := cs.Hits - preCache.Hits
		misses := cs.Misses - preCache.Misses
		io := a.FS().Stats().Sub(preIO)
		hitRate := float64(hits) / float64(hits+misses)
		t.AddRow(cc, fmt.Sprintf("%.1f%%", 100*hitRate), io.Requests(), io.Elapsed().Round(time.Microsecond))
		a.Close()
	}
	t.AddNote("shape check: monotone hit-rate growth; traffic collapses once the pool covers the %d-chunk working set", chunks)
	t.AddNote("the pool is warm from a read pass after the fill, so at capacity >= working set every access hits (0 reads)")
	return []*report.Table{t}
}

// E15TransportAblation compares the SPMD runtime's two transports on
// identical communication patterns: direct mailbox delivery (one
// address space) against loopback TCP framing (the cluster-network
// path MPICH2 traffic takes in the paper's testbed). The collective
// I/O experiments use the in-process transport; this ablation bounds
// what that shortcut hides.
func E15TransportAblation(sc Scale) []*report.Table {
	t := report.New("E15: transport ablation — in-process mailboxes vs loopback TCP",
		"pattern", "in-process", "tcp", "tcp/in-process", "tcp wire bytes")
	rounds := sc.pick(200, 1000)

	pingPong := func(size int) (inproc, tcp time.Duration, wire int64) {
		prog := func(c *cluster.Comm) error {
			msg := make([]byte, size)
			peer := 1 - c.Rank()
			for i := 0; i < rounds; i++ {
				if c.Rank() == 0 {
					if err := c.Send(peer, 1, msg); err != nil {
						return err
					}
					if _, _, err := c.Recv(peer, 1); err != nil {
						return err
					}
				} else {
					if _, _, err := c.Recv(peer, 1); err != nil {
						return err
					}
					if err := c.Send(peer, 1, msg); err != nil {
						return err
					}
				}
			}
			return nil
		}
		start := time.Now()
		if err := cluster.Run(2, prog); err != nil {
			panic(err)
		}
		inproc = time.Since(start) / time.Duration(rounds)
		start = time.Now()
		stats, err := cluster.RunTCPStats(2, prog)
		if err != nil {
			panic(err)
		}
		tcp = time.Since(start) / time.Duration(rounds)
		return inproc, tcp, stats.Bytes
	}
	for _, size := range []int{128, 4 << 10, 64 << 10} {
		ip, tc, wire := pingPong(size)
		t.AddRow(fmt.Sprintf("ping-pong %s", report.Bytes(int64(size))),
			ip.Round(time.Microsecond), tc.Round(time.Microsecond),
			report.Ratio(float64(tc), float64(ip)), report.Bytes(wire))
	}

	// One collective pattern: 4-rank allgather of 4 KiB, the building
	// block of metadata replication and collective-I/O run exchange.
	allgather := func() (inproc, tcp time.Duration, wire int64) {
		prog := func(c *cluster.Comm) error {
			blob := make([]byte, 4<<10)
			for i := 0; i < rounds; i++ {
				if _, err := c.Allgather(blob); err != nil {
					return err
				}
			}
			return nil
		}
		start := time.Now()
		if err := cluster.Run(4, prog); err != nil {
			panic(err)
		}
		inproc = time.Since(start) / time.Duration(rounds)
		start = time.Now()
		stats, err := cluster.RunTCPStats(4, prog)
		if err != nil {
			panic(err)
		}
		tcp = time.Since(start) / time.Duration(rounds)
		return inproc, tcp, stats.Bytes
	}
	ip, tc, wire := allgather()
	t.AddRow("allgather 4KiB x4 ranks", ip.Round(time.Microsecond), tc.Round(time.Microsecond),
		report.Ratio(float64(tc), float64(ip)), report.Bytes(wire))

	// The end-to-end check: the paper's Fig. 1 parallel zone read under
	// both transports (pfs simulated time is transport-independent;
	// wall time shows the messaging overhead).
	zoneRead := func(runner func(int, func(*cluster.Comm) error) error) time.Duration {
		start := time.Now()
		if err := runner(4, func(c *cluster.Comm) error {
			f, err := drxmp.Create(c, "e15", drxmp.Options{
				DType: drxmp.Float64, ChunkShape: []int{2, 3}, Bounds: []int{10, 12},
			})
			if err != nil {
				return err
			}
			defer f.Close()
			boxes, err := f.MyZone()
			if err != nil {
				return err
			}
			for _, box := range boxes {
				buf := make([]byte, box.Volume()*8)
				if err := f.ReadSectionAll(box, buf, drxmp.RowMajor); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			panic(err)
		}
		return time.Since(start)
	}
	ipz := zoneRead(cluster.Run)
	tcz := zoneRead(cluster.RunTCP)
	t.AddRow("fig1 collective zone read", ipz.Round(time.Microsecond), tcz.Round(time.Microsecond),
		report.Ratio(float64(tcz), float64(ipz)), "-")
	t.AddNote("semantics identical on both transports (TestTCPMatchesInProcess); TCP adds per-message syscall+framing cost")
	return []*report.Table{t}
}
