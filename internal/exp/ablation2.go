// ablation2.go holds the design-choice ablations E12–E15: each isolates
// one decision of the design (record merging, binary search, chunk
// caching, the in-process transport shortcut) and measures what the
// system loses without it.
package exp

import (
	"fmt"
	"math"
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
// binary searches inside every F* evaluation.
func E12MergeAblation(sc Scale) []*report.Table {
	runs := sc.pick(24, 64)   // interrupted runs (dimension changes)
	perRun := sc.pick(16, 32) // uninterrupted steps inside each run
	iters := sc.pick(20000, 200000)
	t := report.New(fmt.Sprintf(
		"E12: uninterrupted-expansion merging (%d runs x %d steps, 3-D)", runs, perRun),
		"variant", "records E", "metadata bytes", "F* ns/op", "F*⁻¹ ns/op")

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
	measure := func(name string, s *core.Space) {
		b := s.Bounds()
		rng := rand.New(rand.NewSource(12))
		probes := make([][]int, 64)
		for i := range probes {
			probes[i] = []int{rng.Intn(b[0]), rng.Intn(b[1]), rng.Intn(b[2])}
		}
		var sink int64
		start := time.Now()
		for i := 0; i < iters; i++ {
			sink += s.MustMap(probes[i%len(probes)])
		}
		mapNs := perOp(start, iters)
		total := s.Total()
		dst := make([]int, 3)
		start = time.Now()
		for i := 0; i < iters; i++ {
			s.MustInverse((int64(i)*2654435761)%total, dst)
			sink += int64(dst[0])
		}
		invNs := perOp(start, iters)
		_ = sink
		// One axial record is Start + Base + k coefficients, all
		// fixed-width on disk and over the metadata broadcast.
		recBytes := int64(s.NumRecords()) * int64(8+8+3*8)
		t.AddRow(name, s.NumRecords(), recBytes, mapNs, invNs)
	}
	merged, unmerged := build(true), build(false)
	if fmt.Sprint(merged.Bounds()) != fmt.Sprint(unmerged.Bounds()) {
		panic("E12: variants diverged")
	}
	measure("merged (paper)", merged)
	measure("no merging", unmerged)
	t.AddNote("identical final bounds (%v) and identical addresses; only the record count differs", merged.Bounds())
	t.AddNote("shape check: merging keeps E at the number of *interrupted* runs, cutting metadata ~%dx",
		perRun)
	return []*report.Table{t}
}

// linearMap re-implements F* with a linear scan over each axial vector
// instead of the binary search — the baseline for the search ablation
// E13. The caller snapshots the vectors once (vecs[j] = records of
// dimension j) so the scan itself is the only difference measured.
func linearMap(vecs [][]core.Record, idx []int) int64 {
	var rz *core.Record
	z := -1
	for j := range idx {
		recs := vecs[j]
		// Last record with Start <= idx[j], by linear scan.
		rj := &recs[0]
		for r := 1; r < len(recs); r++ {
			if recs[r].Start > idx[j] {
				break
			}
			rj = &recs[r]
		}
		if z < 0 || rj.Base > rz.Base {
			z, rz = j, rj
		}
	}
	q := rz.Base + int64(idx[z]-rz.Start)*rz.Coef[z]
	for j, i := range idx {
		if j != z {
			q += int64(i) * rz.Coef[j]
		}
	}
	return q
}

// E13SearchAblation measures the axial-record lookup inside F*: the
// paper's O(k + log E) binary search against a linear O(k + E) scan,
// as E grows. For small E the two are indistinguishable (E stays small
// precisely because of merging); the gap opens as expansion histories
// lengthen.
func E13SearchAblation(sc Scale) []*report.Table {
	iters := sc.pick(20000, 100000)
	t := report.New("E13: record lookup in F* — binary search vs linear scan",
		"records E", "bsearch ns/op", "linear ns/op", "linear/bsearch")
	for _, steps := range []int{4, 16, 64, 256, sc.pick(512, 2048)} {
		s, err := core.NewSpace([]int{2, 2, 2})
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			// Alternate dimensions so every extension interrupts the
			// previous one and appends a record.
			if err := s.Extend(i%3, 1); err != nil {
				panic(err)
			}
		}
		b := s.Bounds()
		vecs := make([][]core.Record, 3)
		for j := range vecs {
			vecs[j] = s.Records(j)
		}
		rng := rand.New(rand.NewSource(int64(steps)))
		probes := make([][]int, 64)
		for i := range probes {
			probes[i] = []int{rng.Intn(b[0]), rng.Intn(b[1]), rng.Intn(b[2])}
		}
		for _, p := range probes {
			if got, want := linearMap(vecs, p), s.MustMap(p); got != want {
				panic(fmt.Sprintf("E13: linearMap(%v) = %d, want %d", p, got, want))
			}
		}
		// Best of several interleaved passes: a preemption stalls one
		// pass, not the minimum, so a loaded host cannot flip the order.
		var sink int64
		bs, ln := math.Inf(1), math.Inf(1)
		for pass := 0; pass < 5; pass++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				sink += s.MustMap(probes[i%len(probes)])
			}
			bs = math.Min(bs, perOp(start, iters))
			start = time.Now()
			for i := 0; i < iters; i++ {
				sink += linearMap(vecs, probes[i%len(probes)])
			}
			ln = math.Min(ln, perOp(start, iters))
		}
		_ = sink
		t.AddRow(s.NumRecords(), bs, ln, report.Ratio(ln, bs))
	}
	t.AddNote("shape check: bsearch roughly flat in E; linear grows with E, losing by several x from E~256")
	t.AddNote("for the small E that merging maintains, the linear scan is competitive (cache-resident records)")
	return []*report.Table{t}
}

// E14CacheAblation sweeps the serial library's chunk buffer pool (the
// BerkeleyDB-Mpool stand-in) on a random element-access workload: the
// paper's serial DRX "accesses with I/O caching using the BerkeleyDB
// Mpool sub-system". With no cache every element access pays a chunk
// read; once the pool covers the working set, storage traffic collapses
// to the cold misses.
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
		a, err := drx.Create("e14", drx.Options{
			DType: drx.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			CacheChunks: cc,
			FS:          pfs.Options{Servers: 4, StripeSize: 64 << 10, Cost: pfs.DefaultCost()},
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
		if err := a.Sync(); err != nil {
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
	t.AddNote("the pool is warm from the fill, so at capacity >= working set every access hits (0 reads)")
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
