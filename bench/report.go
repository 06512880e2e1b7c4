package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement. N is the number of samples (or
// ops) behind the value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// metrics is an ordered metric list; add drops undefined values (a
// zero denominator yields NaN or Inf), so a metric that does not
// exist on a workload is omitted, not zero-filled.
type metrics []metric

func (m *metrics) add(name, unit string, value float64, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	*m = append(*m, metric{name, unit, value, n})
}

func (m metrics) get(name string) (metric, bool) {
	for _, x := range m {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// environment identifies the machine and build a result came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() environment {
	e := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		e.Commit = c // run.sh builds without VCS stamping and passes it
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// result is one run of one workload.
type result struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   int            `json:"seconds"`
	Traced    bool           `json:"traced"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Counts    map[string]int `json:"counts"`
	EndToEnd  metrics        `json:"end_to_end,omitempty"`
	PerLayer  metrics        `json:"per_layer,omitempty"`
	Env       environment    `json:"env"`
	WallSecs  float64        `json:"wall_s"`
}

// print writes every metric by name with its unit, one per line:
// "<workload> <section> <name> <value> <unit> n=<samples>".
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%d traced=%v nproc=%d GOMAXPROCS=%d %s commit=%s wall=%.1fs\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit, r.WallSecs)
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s count %s %d count\n", r.Workload, k, r.Counts[k])
	}
	for _, sec := range []struct {
		name string
		ms   metrics
	}{{"end_to_end", r.EndToEnd}, {"per_layer", r.PerLayer}} {
		for _, m := range sec.ms {
			fmt.Fprintf(w, "%s %s %s %.6g %s n=%d\n", r.Workload, sec.name, m.Name, m.Value, m.Unit, m.N)
		}
	}
	fmt.Fprintf(w, "%s count attempted %d count\n%s count failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
}

func div(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the end-to-end metrics from the set-up times, the
// paired pass and the plain pass.
func endToEnd(setups []float64, pp, pl *passStats) metrics {
	var m metrics
	ops, payload := float64(pl.rec.ops), float64(pl.rec.payload())
	m.add("setup_s", "s", median(setups), len(setups))
	m.add("read_x_ref", "ratio", median(pp.rec.ratio[opRead]), len(pp.rec.ratio[opRead]))
	m.add("write_x_ref", "ratio", median(pp.rec.ratio[opWrite]), len(pp.rec.ratio[opWrite]))
	m.add("sim_ms_per_op", "ms", div(ms(pl.fs.BusySum()), ops*float64(len(pl.fs.PerServer))), pl.rec.ops)
	m.add("dev_b_per_payload_b", "B/B", div(float64(pl.fs.Bytes()), payload), pl.rec.ops)
	m.add("alloc_b_per_payload_b", "B/B", div(float64(pl.allocBytes), payload), pl.rec.ops)
	m.add("allocs_per_op", "1/op", div(float64(pl.mallocs), ops), pl.rec.ops)
	attempted := pp.rec.ops + pl.rec.ops
	m.add("fail_frac", "ratio", div(float64(pp.rec.failed+pl.rec.failed), float64(attempted)), attempted)
	return m
}

// pairedDiagnostics are the paired pass's raw numbers, reported under
// their layer: they do not repeat on a shared host, but payload MB/s is
// recoverable from them as reference MB/s / *_x_ref.
func pairedDiagnostics(m *metrics, pp *passStats) {
	for k, name := range []string{"read", "write"} {
		if n := len(pp.rec.ref[k]); n > 0 {
			bytes := float64(pp.rec.bytes[k]) / float64(n) // mean payload of the kind
			m.add("ref."+name+"_p50_us", "us", median(pp.rec.ref[k])*1e6, n)
			m.add("ref."+name+"_mbps", "MB/s", div(bytes/1e6, median(pp.rec.ref[k])), n)
			m.add("drxmp.paired_"+name+"_mbps", "MB/s", div(bytes/1e6, median(pp.rec.wall[k])), n)
		}
	}
}

// statsLayers computes the per-layer metrics that come from Stats
// deltas and wall clocks around the plain pass.
func statsLayers(m *metrics, sp *spec, units int, pl *passStats, host []float64) {
	rec := &pl.rec
	ops, payload := float64(rec.ops), float64(rec.payload())
	m.add("core.records", "count", float64(pl.records), 1)

	call := "drxmp"
	if sp.http {
		call = "drxclient" // the outermost call is the client's
	}
	for k, name := range []string{"read", "write"} {
		w := rec.wall[k]
		pre := call + "." + name
		if sp.http {
			pre = call + ".call_" + name
		}
		m.add(pre+"_p50_ms", "ms", median(w)*1e3, len(w))
		if v, ok := p95(w); ok {
			m.add(pre+"_p95_ms", "ms", v*1e3, len(w))
		}
	}
	m.add("drxmp.payload_mbps", "MB/s", div(payload/1e6, pl.wall.Seconds()), rec.ops)
	m.add("drxmp.ops_per_s", "1/s", div(ops, pl.wall.Seconds()), rec.ops)
	m.add("drxmp.extend_us", "us", median(rec.extend)*1e6, len(rec.extend))

	fs := pl.fs
	m.add("pfs.reqs_per_op", "1/op", div(float64(fs.Requests()), ops), rec.ops)
	m.add("pfs.seeks_per_op", "1/op", div(float64(fs.Seeks()), ops), rec.ops)
	m.add("pfs.busy_ms_per_op", "ms", div(ms(fs.BusySum()), ops), rec.ops)
	m.add("pfs.elapsed_ms_per_op", "ms", div(ms(fs.Elapsed()), ops), rec.ops)
	m.add("pfs.imbalance", "ratio", div(float64(fs.Elapsed())*float64(len(fs.PerServer)), float64(fs.BusySum())), rec.ops)
	m.add("pfs.req_size_p50_b", "B", histQuantile(fs.ReqSizes().Counts(), 0.5), int(fs.Requests()))
	m.add("pfs.svc_p50_us", "us", histQuantile(fs.SvcTimes().Counts(), 0.5), int(fs.Requests()))
	m.add("pfs.flush_b_per_payload_b", "B/B", div(float64(fs.FlushBytes()), payload), rec.ops)
	m.add("pfs.sieve_b_per_payload_b", "B/B", div(float64(fs.SieveBytes()), payload), rec.ops)
	m.add("pfs.degraded_reads_per_op", "1/op", div(float64(fs.DegradedReads), ops), rec.ops)
	m.add("pfs.reconstruct_b_per_payload_b", "B/B", div(float64(fs.ReconstructBytes), payload), rec.ops)
	local, remote := float64(fs.DomainLocalBytes()), float64(fs.DomainRemoteBytes())
	m.add("pfs.domain_local_frac", "ratio", div(local, local+remote), rec.ops)

	if sp.tuning.CacheBytes > 0 {
		c := pl.cache
		lookups := float64(c.Hits + c.Misses)
		m.add("cache.hit_ratio", "ratio", div(float64(c.Hits), lookups), int(lookups))
		m.add("cache.hit_b_frac", "ratio", div(float64(c.HitBytes), float64(c.HitBytes+c.MissBytes)), int(lookups))
		m.add("cache.sieve_b_per_miss_b", "B/B", div(float64(c.SieveFetched), float64(c.MissBytes)), int(c.Misses))
		m.add("cache.evicted_b_per_payload_b", "B/B", div(float64(c.Evicted), payload), rec.ops)
		m.add("cache.absorbed_b_per_written_b", "B/B", div(float64(c.Absorbed), float64(rec.bytes[opWrite])), len(rec.wall[opWrite]))
		if sp.unit == "sweeps" {
			m.add("cache.flushes_per_sweep", "1/sweep", div(float64(c.Flushes), float64(units)), units)
		}
		m.add("cache.hit_read_ms", "ms", median(rec.hit)*1e3, len(rec.hit))
		m.add("cache.miss_read_ms", "ms", median(rec.miss)*1e3, len(rec.miss))
		m.add("tune.retunes", "count", float64(c.Retunes), 1)
		m.add("tune.final_sieve_b", "B", float64(c.SieveSize), 1)
		m.add("tune.final_readahead_b", "B", float64(c.ReadAheadBytes), 1)
		if sp.spill {
			m.add("spill.hit_ratio", "ratio", div(float64(c.SpillHits), lookups), int(lookups))
			m.add("spill.demoted_b_per_payload_b", "B/B", div(float64(c.SpillDemoted), payload), rec.ops)
			m.add("spill.promoted_b_per_payload_b", "B/B", div(float64(c.SpillPromoted), payload), rec.ops)
			m.add("spill.rejected", "count", float64(c.SpillRejected), 1)
		}
	}

	if sp.http {
		sv := pl.serve
		m.add("serve.admission_waits_per_op", "1/op", div(float64(sv.waits), ops), rec.ops)
		m.add("serve.shed_per_op", "1/op", div(float64(sv.shed), ops), rec.ops)
		m.add("serve.coalesce_ratio", "ratio", div(float64(sv.merged), float64(sv.batched)), int(sv.batched))
		m.add("serve.singleflight_hit_ratio", "ratio", div(float64(sv.hits), float64(sv.fills+sv.hits)), int(sv.fills+sv.hits))
		calls := float64(pl.cl.Calls)
		m.add("drxclient.attempts_per_call", "1/call", div(float64(pl.cl.Attempts), calls), int(calls))
		m.add("drxclient.retries_per_call", "1/call", div(float64(pl.cl.Retries), calls), int(calls))
		m.add("drxclient.hedges_per_call", "1/call", div(float64(pl.cl.Hedges), calls), int(calls))
	}

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range host {
		lo, hi = min(lo, v), max(hi, v)
	}
	m.add("host.memcpy_mbps_min", "MB/s", lo, len(host))
	m.add("host.memcpy_mbps_max", "MB/s", hi, len(host))
}

// spanSums totals span durations and work counts by name.
type spanSum struct {
	dur   time.Duration
	n     int64
	count int
}

func sumSpans(spans []span) map[string]*spanSum {
	out := map[string]*spanSum{}
	for _, s := range spans {
		key := s.Name
		if s.Replay {
			key = "replay:" + s.Name
		}
		ss := out[key]
		if ss == nil {
			ss = &spanSum{}
			out[key] = ss
		}
		ss.dur += s.dur()
		ss.n += s.N
		ss.count++
	}
	return out
}

// spanLayers computes the per-layer metrics that come from the traced
// pass: paired replays of each layer's public functions on the ops' own
// inputs, and the wrapper spans around client, wire and handler.
func spanLayers(m *metrics, sp *spec, units int, spans []span) {
	sums := sumSpans(spans)
	per := func(name, metric string) { // mean ns per unit of work
		if s := sums["replay:"+name]; s != nil {
			m.add(metric, "ns", div(float64(s.dur), float64(s.n)), s.count)
		}
	}
	rate := func(name, metric string) { // MB/s over the replayed bytes
		if s := sums["replay:"+name]; s != nil {
			m.add(metric, "MB/s", div(float64(s.n)/1e6, s.dur.Seconds()), s.count)
		}
	}
	perCall := func(name, metric string) { // mean µs per call
		if s := sums["replay:"+name]; s != nil {
			m.add(metric, "us", div(float64(s.dur)/1e3, float64(s.count)), s.count)
		}
	}
	per("core.map", "core.map_ns")
	per("core.inverse", "core.inverse_ns")
	per("extent.coalesce", "extent.coalesce_ns_per_run")
	rate("pfs.readv", "pfs.readv_mbps")
	rate("pfs.writev", "pfs.writev_mbps")
	perCall("place.carve", "place.carve_us")
	perCall("cluster.allgather", "cluster.allgather_us")
	perCall("cluster.alltoallv", "cluster.alltoallv_us")
	perCall("cluster.barrier", "cluster.barrier_us")
	rate("ec.encode", "ec.encode_mbps")
	rate("ec.reconstruct", "ec.reconstruct_mbps")
	rate("spill.put", "spill.put_mbps")
	rate("spill.take", "spill.take_mbps")

	// An op's root span carries its kind and payload bytes.
	var payload, writes float64
	for _, s := range spans {
		if s.Name == "op" {
			payload += float64(s.N)
			if s.Kind == "write" {
				writes++
			}
		}
	}
	if s := sums["replay:cluster.alltoallv"]; s != nil {
		m.add("cluster.exchange_b_per_payload_b", "B/B", div(float64(s.n), payload), s.count)
		// What the collective costs beyond the exchange and the device
		// path it drives, per step (one write and one read).
		rest := sums["drxmp.section"].dur - s.dur - sums["replay:cluster.allgather"].dur - sums["replay:cluster.barrier"].dur
		for _, name := range []string{"replay:pfs.readv", "replay:pfs.writev"} {
			if p := sums[name]; p != nil {
				rest -= p.dur
			}
		}
		m.add("mpiio.self_ms_per_step", "ms", div(ms(rest), float64(units)), units)
	}
	if s := sums["replay:ec.encode"]; s != nil {
		rowBytes := float64(sp.fs.Servers-sp.fs.Parity) * float64(sp.fs.StripeSize)
		m.add("ec.rows_per_write", "1/op", div(float64(s.n)/rowBytes, writes), int(writes))
	}

	if !sp.http {
		return
	}
	// Join each op's spans across the wire: call -> roundtrip -> handler,
	// plus the direct File replay of the same box.
	type opSpans struct {
		kind                        string
		call, trip, handler, direct time.Duration
	}
	byOp := map[int]*opSpans{}
	for _, s := range spans {
		o := byOp[s.Op]
		if o == nil {
			o = &opSpans{}
			byOp[s.Op] = o
		}
		switch {
		case s.Name == "op":
			o.kind = s.Kind
		case s.Name == "drxclient.call":
			o.call += s.dur()
		case s.Name == "http.roundtrip":
			o.trip += s.dur()
		case s.Name == "serve.handler":
			o.handler += s.dur()
		case s.Name == "drxmp.section" && s.Replay:
			o.direct += s.dur()
		}
	}
	var clientSelf []float64
	handler, self, direct := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, o := range byOp {
		handler[o.kind] = append(handler[o.kind], o.handler.Seconds())
		self[o.kind] = append(self[o.kind], (o.handler - o.direct).Seconds())
		direct[o.kind] = append(direct[o.kind], o.direct.Seconds())
		clientSelf = append(clientSelf, (o.call - o.trip).Seconds())
	}
	// Reads and writes differ by an order of magnitude here, so a pooled
	// median would describe neither: GETs keep the plain name.
	for _, k := range []struct{ kind, infix string }{{"read", ""}, {"write", "put_"}} {
		m.add("serve.handler_"+k.infix+"p50_ms", "ms", median(handler[k.kind])*1e3, len(handler[k.kind]))
		m.add("serve.self_"+k.infix+"p50_ms", "ms", median(self[k.kind])*1e3, len(self[k.kind]))
		m.add("drxmp."+k.kind+"_p50_ms", "ms", median(direct[k.kind])*1e3, len(direct[k.kind]))
	}
	m.add("drxclient.self_p50_ms", "ms", median(clientSelf)*1e3, len(clientSelf))
}

// shares turns a traced pass's spans into per-layer shares of the time
// spent in the program's outermost call (drxmp.section, or
// drxclient.call over HTTP). A span's self time is its duration minus
// the part its children cover. Replays run right after the op, so a
// replayed layer's share says what its public functions cost on the
// op's own inputs relative to the op; share.rest is what the direct
// path's replays (core, extent, pfs, place, cluster) leave of the call:
// drxmp's and mpiio's own work (negative where a cache makes the op
// cheaper than the bare device path). Over HTTP, share.serve is the
// handler minus the direct File replay of the same box, and dev is how
// far client self + wire self + handler are from the call, as a share
// of the call.
func shares(spans []span, http bool) (m metrics, dev float64) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	covered := make(map[int]time.Duration) // span id -> time its children cover
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			if lo, hi := max(s.Start, p.Start), min(s.End, p.End); hi > lo {
				covered[p.ID] += time.Duration(hi - lo)
			}
		}
	}
	outer := "drxmp.section"
	if http {
		outer = "drxclient.call"
	}
	self, count := map[string]time.Duration{}, map[string]int{}
	var total, handler time.Duration
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		switch {
		case s.Name == "op":
			continue
		case s.Name == outer && !s.Replay:
			total += s.dur()
			if !http {
				continue // its share is what the replays leave: share.rest
			}
		case s.Name == "serve.handler":
			handler += s.dur()
		}
		self[layer] += s.dur() - covered[s.ID]
		count[layer]++
	}
	layers := []string{"core", "extent", "pfs", "place", "cluster", "ec", "spill"}
	if http {
		// The handler's own share excludes the direct replay of the box.
		self["serve"] -= self["drxmp"]
		layers = append([]string{"drxclient", "http", "serve", "drxmp"}, layers...)
	}
	rest := total
	for _, l := range layers {
		if count[l] > 0 {
			m.add("share."+l, "share", div(float64(self[l]), float64(total)), count[l])
		}
		switch l {
		case "core", "extent", "pfs", "place", "cluster":
			rest -= self[l]
		}
	}
	if !http {
		m.add("share.rest", "share", div(float64(rest), float64(total)), count["core"])
		return m, 0
	}
	sum := self["drxclient"] + self["http"] + handler
	return m, math.Abs(float64(sum-total)) / float64(total)
}
