package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/drxclient"
	"drxmp/internal/pfs"
	"drxmp/internal/serve"
)

// passMode selects what a pass does around each op.
type passMode int

const (
	// paired follows every op at once with its reference transfer and
	// keeps the ratio of the two times; the cost model is charged, never
	// slept.
	paired passMode = iota
	// plain runs the ops alone between MemStats and Stats snapshots.
	plain
)

// recorder collects one driver's per-op samples.
type recorder struct {
	ratio [2][]float64 // op wall / reference wall, by opRead/opWrite
	wall  [2][]float64 // op wall seconds, by opRead/opWrite
	ref   [2][]float64 // reference wall seconds
	// hit and miss split read walls by whether the extent cache fetched
	// anything for the op (single-driver workloads only).
	hit, miss []float64
	extend    []float64
	bytes     [2]int64 // payload bytes, by opRead/opWrite
	ops       int
	failed    int
}

// payload is the bytes the recorded ops moved.
func (r *recorder) payload() int64 { return r.bytes[opRead] + r.bytes[opWrite] }

func (r *recorder) merge(o *recorder) {
	for k := range r.ratio {
		r.ratio[k] = append(r.ratio[k], o.ratio[k]...)
		r.wall[k] = append(r.wall[k], o.wall[k]...)
		r.ref[k] = append(r.ref[k], o.ref[k]...)
	}
	r.hit = append(r.hit, o.hit...)
	r.miss = append(r.miss, o.miss...)
	r.extend = append(r.extend, o.extend...)
	r.bytes[opRead] += o.bytes[opRead]
	r.bytes[opWrite] += o.bytes[opWrite]
	r.ops += o.ops
	r.failed += o.failed
}

// drive runs one driver's op list against the instance. Every rank of
// a multi-rank workload calls it with its own list; the lists are
// aligned, so the collective calls and barriers match up.
func (in *instance) drive(d, drivers int, ops []op, mode passMode, rp *replayer, rec *recorder) {
	if rp != nil {
		defer rp.close()
	}
	barrier := func() {
		if err := in.c.Barrier(); err != nil {
			rec.failed++
		}
	}
	buf := make([]byte, in.sp.maxPayload)
	want := make([]byte, in.sp.maxPayload)
	multi := in.c.Size() > 1
	perOpCache := in.tr == nil && in.sp.drivers == 1 && in.f.CacheBytes() > 0
	for k, o := range ops {
		i := k*drivers + d // op identifier, unique across drivers
		switch o.kind {
		case opExtend:
			t0 := time.Now()
			err := in.f.Extend(o.dim, o.by)
			rec.extend = append(rec.extend, time.Since(t0).Seconds())
			if err != nil {
				rec.failed++
			}
			if in.c.Rank() == 0 {
				in.or.extend(o.dim, o.by)
			}
			barrier() // nobody touches the oracle while rank 0 regrows it
			continue
		case opSync:
			if err := in.f.Sync(); err != nil {
				rec.failed++
			}
			continue
		}
		n := o.box.bytes()
		rec.ops++
		rec.bytes[o.kind] += n
		if multi {
			barrier() // start the ranks together
		}
		var before drxmp.CacheStats
		if perOpCache && o.kind == opRead {
			before = in.f.CacheStats()
		}
		root := in.tr.root(i, o.kind)
		ctx := context.Background()
		call := 0
		if in.tr != nil {
			name := "drxmp.section"
			if in.sp.http {
				name = "drxclient.call"
			}
			call = in.tr.begin(name, root, i, false)
			ctx = withTraceRef(ctx, i, call)
		}
		t0 := time.Now()
		got, err := in.exec(ctx, o, buf[:n])
		t1 := time.Now()
		ok := err == nil
		var t2 time.Time
		if mode == paired {
			// The reference follows at once, before any bookkeeping.
			exp, rerr := in.ref(o, want[:n])
			t2 = time.Now()
			ok = ok && rerr == nil && (o.kind == opWrite || bytes.Equal(got, exp))
		} else if o.kind == opWrite {
			in.or.write(o.box, in.payload(o))
		} else {
			ok = ok && in.or.equal(o.box, got)
		}
		in.tr.endAt(call, t1, n)
		opWall := t1.Sub(t0).Seconds()
		rec.wall[o.kind] = append(rec.wall[o.kind], opWall)
		if mode == paired {
			refWall := t2.Sub(t1).Seconds()
			rec.ref[o.kind] = append(rec.ref[o.kind], refWall)
			rec.ratio[o.kind] = append(rec.ratio[o.kind], opWall/refWall)
		}
		if perOpCache && o.kind == opRead {
			if in.f.CacheStats().MissBytes == before.MissBytes {
				rec.hit = append(rec.hit, opWall)
			} else {
				rec.miss = append(rec.miss, opWall)
			}
		}
		if !ok {
			rec.failed++
		}
		if rp != nil {
			rp.replay(in, root, i, o)
		}
		in.tr.endAt(root, time.Now(), n)
	}
}

// passStats are the deltas taken around one pass, summed over its
// episodes.
type passStats struct {
	rec  recorder
	wall time.Duration
	// allocBytes and mallocs are runtime.MemStats TotalAlloc and Mallocs.
	allocBytes, mallocs uint64
	fs                  pfs.Stats
	cache               drxmp.CacheStats // gauges: the last episode's
	// serve and client are the serving tier's and drxclient's counters.
	serve struct{ waits, shed, batched, merged, fills, hits int64 }
	cl    drxclient.ClientStats
	// records is core's expansion-record count when the pass ended.
	records int
	// verifyBad counts whole-array bands that differed after an episode.
	verifyBad int
	// setups are the episodes' set-up times.
	setups []time.Duration
}

// runner holds one workload run's generated inputs.
type runner struct {
	sp   *spec
	seed int64
	dir  string
	pool []byte
	host hostProbe
}

func newRunner(sp *spec, seed int64, dir string) *runner {
	rng := rand.New(rand.NewSource(seed))
	return &runner{sp: sp, seed: seed, dir: dir, pool: genPool(rng, sp.maxPayload)}
}

// ops draws the op lists for n units. The stream is seeded from the
// run's seed alone, so every pass of a run walks a prefix of the same
// sequence.
func (r *runner) ops(n int) [][]op {
	return r.sp.gen(rand.New(rand.NewSource(r.seed^0x5eed)), n)
}

// withInstance sets up a fresh array and oracle on the workload's
// ranks, times the set-up on rank 0, runs body on every rank and closes
// the array.
func (r *runner) withInstance(realTime bool, tr *tracer, body func(in *instance) error) (time.Duration, error) {
	or := newOracle(r.sp.dim, r.sp.dim, r.pool[:poolBytes])
	var setup time.Duration
	err := cluster.Run(r.sp.ranks, func(c *cluster.Comm) error {
		t0 := time.Now()
		in, err := open(c, r.sp, or, r.pool, r.dir, realTime, tr)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			setup = time.Since(t0)
		}
		if body != nil {
			err = body(in)
		}
		if cerr := in.close(); err == nil {
			err = cerr
		}
		return err
	})
	return setup, err
}

// pass runs one pass of n units. A workload with an episode length
// runs it as several episodes, each a fresh instance walking the next
// stretch of the op lists, and the deltas add up.
func (r *runner) pass(n int, mode passMode, realTime bool, tr *tracer, replays bool) (*passStats, error) {
	lists := r.ops(n)
	per := len(lists[0])
	if r.sp.episode > 0 {
		per = r.sp.episode
	}
	ps := &passStats{}
	for at := 0; at < len(lists[0]); at += per {
		part := make([][]op, len(lists))
		for d := range lists {
			part[d] = lists[d][at:min(at+per, len(lists[d]))]
		}
		if err := r.episode(ps, part, mode, realTime, tr, replays); err != nil {
			return nil, fmt.Errorf("%s: %w", r.sp.name, err)
		}
	}
	return ps, nil
}

// episode runs the op lists on a fresh instance and adds its samples
// and the deltas of its counters to ps.
func (r *runner) episode(ps *passStats, lists [][]op, mode passMode, realTime bool, tr *tracer, replays bool) error {
	var mu sync.Mutex
	setup, err := r.withInstance(realTime, tr, func(in *instance) error {
		rank0 := in.c.Rank() == 0
		// One replayer per driver, built before the snapshots.
		rps := make([]*replayer, len(lists))
		for d := range rps {
			if replays && (in.c.Size() == 1 || d == in.c.Rank()) {
				var err error
				if rps[d], err = newReplayer(in, r.dir); err != nil {
					return err
				}
			}
		}
		var fs0 pfs.Stats
		var cache0 drxmp.CacheStats
		var srv0 serve.ArrayStats
		var cl0 drxclient.ClientStats
		var mem0, mem1 runtime.MemStats
		if rank0 {
			r.host.probe()
			fs0, cache0 = in.f.FS().Stats(), in.f.CacheStats()
			if in.sp.http {
				srv0, cl0 = in.srv.Stats().Arrays[0], in.cl.Stats()
			}
			runtime.ReadMemStats(&mem0)
		}
		if err := in.c.Barrier(); err != nil {
			return err
		}
		t0 := time.Now()
		recs := make([]recorder, len(lists))
		if in.c.Size() > 1 {
			d := in.c.Rank()
			in.drive(d, len(lists), lists[d], mode, rps[d], &recs[d])
			if !rank0 {
				// A collective op is one op, timed on rank 0; the other
				// ranks add only the bytes they moved and their failures.
				recs[d] = recorder{bytes: recs[d].bytes, failed: recs[d].failed}
			}
		} else {
			var wg sync.WaitGroup
			for d := range lists {
				wg.Add(1)
				go func() {
					defer wg.Done()
					in.drive(d, len(lists), lists[d], mode, rps[d], &recs[d])
				}()
			}
			wg.Wait()
		}
		if err := in.c.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if rank0 {
			ps.wall += time.Since(t0)
			runtime.ReadMemStats(&mem1)
			ps.allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
			ps.mallocs += mem1.Mallocs - mem0.Mallocs
			// a - (0 - b) adds two Stats with the Sub they already have.
			fs1, cache1 := in.f.FS().Stats(), in.f.CacheStats()
			zero := pfs.Stats{PerServer: make([]pfs.ServerStats, len(fs1.PerServer))}
			ps.fs = fs1.Sub(fs0).Sub(zero.Sub(ps.fs))
			ps.cache = cache1.Sub(cache0).Sub(drxmp.CacheStats{}.Sub(ps.cache))
			if in.sp.http {
				srv1, cl1 := in.srv.Stats().Arrays[0], in.cl.Stats()
				ps.serve.waits += srv1.Admission.Waits - srv0.Admission.Waits
				ps.serve.shed += srv1.Admission.Shed - srv0.Admission.Shed
				ps.serve.batched += srv1.Coalesce.Batched - srv0.Coalesce.Batched
				ps.serve.merged += srv1.Coalesce.Merged - srv0.Coalesce.Merged
				ps.serve.fills += srv1.SingleFlight.Fills - srv0.SingleFlight.Fills
				ps.serve.hits += srv1.SingleFlight.Hits - srv0.SingleFlight.Hits
				ps.cl.Calls += cl1.Calls - cl0.Calls
				ps.cl.Attempts += cl1.Attempts - cl0.Attempts
				ps.cl.Retries += cl1.Retries - cl0.Retries
				ps.cl.Hedges += cl1.Hedges - cl0.Hedges
			}
			ps.records = in.f.Meta().Space.NumRecords()
			ps.verifyBad += in.verifyAll()
			r.host.probe()
		}
		for d := range recs {
			ps.rec.merge(&recs[d])
		}
		return nil
	})
	ps.setups = append(ps.setups, setup)
	return err
}

// hostProbe times a fixed copy kernel around every pass, so a run
// disturbed by a noisy neighbour can be recognised from its output.
type hostProbe struct {
	src, dst []byte
	mbps     []float64
}

func (h *hostProbe) probe() {
	if h.src == nil {
		// 8 MiB each way: well past this box's L2, so the copy runs at
		// memory speed like the reference transfers do.
		h.src, h.dst = make([]byte, 8<<20), make([]byte, 8<<20)
	}
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		copy(h.dst, h.src)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	h.mbps = append(h.mbps, float64(len(h.src))/1e6/best.Seconds())
}
