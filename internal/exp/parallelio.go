package exp

import (
	"fmt"
	"time"

	"drxmp/drx"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
	"drxmp/internal/report"
	"drxmp/internal/workload"
)

// DefaultParallelism caps the worker counts E16 sweeps (drxbench -par
// overrides it). It is intentionally above GOMAXPROCS on small
// machines: the workers overlap I/O service time across the striped
// servers, not CPU.
var DefaultParallelism = 8

// e16Cost is a real-time service model scaled for a benchmark run:
// servers actually sleep their charged time, so wall-clock measures how
// well the client overlaps I/O across servers. Seek cost is folded into
// the per-request overhead (the access pattern is the same for serial
// and parallel; only overlap differs).
func e16Cost() pfs.CostModel {
	return pfs.CostModel{
		RequestOverhead: 150 * time.Microsecond,
		ByteTime:        10 * time.Nanosecond,
		RealTime:        true,
	}
}

// E16ParallelIO measures drx's chunk pipeline through the sharded
// buffer pool: one process moving a multi-chunk section with 1..P
// workers. The backing store charges real service time per server, so
// the speedup column is genuine wall-clock overlap across the 8 striped
// servers. (drxmp's independent section I/O has no worker knob to
// sweep: it is one vectored request and the server queues overlap it.)
func E16ParallelIO(sc Scale) []*report.Table {
	n := sc.pick(256, 512)
	const chunk = 64
	const servers = 8
	stripe := int64(32 << 10)
	buf := make([]byte, n*n*8)

	t2 := report.New(fmt.Sprintf("E16: drx chunk pipeline, %dx%d f64, cache smaller than the working set", n, n),
		"op", "workers", "wall", "prefetches", "speedup")
	var base2 time.Duration
	for _, workers := range e16Sweep() {
		a, err := drx.Create("e16drx", drx.Options{
			DType: drx.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			CacheChunks: 12, Parallelism: workers,
			FS: pfs.Options{Servers: servers, StripeSize: stripe, Cost: e16Cost()},
		})
		if err != nil {
			t2.AddNote("workers=%d: %v", workers, err)
			continue
		}
		fullD := drx.NewBox([]int{0, 0}, []int{n, n})
		if err := a.WriteFloat64s(fullD, workload.FillBox(fullD, grid.RowMajor), drx.RowMajor); err != nil {
			a.Close()
			t2.AddNote("workers=%d: %v", workers, err)
			continue
		}
		if err := a.Sync(); err != nil {
			a.Close()
			t2.AddNote("workers=%d: %v", workers, err)
			continue
		}
		pre := a.CacheStats()
		start := time.Now()
		if err := a.Read(fullD, buf, drx.RowMajor); err != nil {
			a.Close()
			t2.AddNote("workers=%d: %v", workers, err)
			continue
		}
		wall := time.Since(start)
		if workers <= 1 {
			base2 = wall
		}
		t2.AddRow("read", a.Parallelism(), wall.Round(time.Microsecond),
			a.CacheStats().Prefetches-pre.Prefetches,
			report.Ratio(float64(base2), float64(wall)))
		a.Close()
	}
	t2.AddNote("the pool caps workers at its safe concurrency; prefetches>0 shows read-ahead overlapping the scatter")
	return []*report.Table{t2}
}

// e16Sweep returns the worker counts to measure: serial, then doubling
// up to DefaultParallelism.
func e16Sweep() []int {
	sweep := []int{-1} // forced serial
	for w := 2; w <= DefaultParallelism; w *= 2 {
		sweep = append(sweep, w)
	}
	if len(sweep) == 1 {
		sweep = append(sweep, 2)
	}
	return sweep
}
