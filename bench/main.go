// Command bench is the repository's benchmark: five workloads driven
// through the public functions of drxmp and its internal layers, each
// checked against a flat in-memory oracle, scored by paired cost
// ratios, modeled device time and allocation counts rather than by raw
// wall clock. See README.md in this directory.
//
//	go run . -workload section_mixed -seed 1 -seconds 10 -trace 0
//	go run . -seed 1 -json runs.jsonl          all workloads, scored
//	go run . -trace 1 -spans out.json          traced run
//	go run . -compare a.jsonl b.jsonl
//	go run . -selfcheck 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	spansOut  string
	jsonOut   string
	benchJSON string
	compare   bool
	selfcheck int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the op lists and payloads are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "run length: fixes the op counts of the two passes")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run printing the per-layer metrics; 0: scored run")
	flag.StringVar(&o.spansOut, "spans", "", "traced run: write the spans to this file as JSON")
	flag.StringVar(&o.jsonOut, "json", "", "append each result to this file, one JSON object per line")
	flag.StringVar(&o.benchJSON, "benchmark", "", "BENCHMARK.json to read metric lists and bounds from (default: found in the working directory or its parent)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare a.jsonl b.jsonl")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run two interleaved sets of N full runs and check they agree within the bounds")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, o.benchJSON, flag.Arg(0), flag.Arg(1))
	}
	if o.selfcheck > 0 {
		return runSelfcheck(os.Stdout, o.benchJSON, o.selfcheck, o.seconds)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	todo := specs
	if o.workload != "" {
		sp := specByName(o.workload)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []*spec{sp}
	}
	dir, err := os.MkdirTemp("", "drxbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var all []span
	var last *result
	failed := false
	for _, sp := range todo {
		cfg := runConfig{sp: sp, seed: o.seed, seconds: o.seconds, scale: 1, dir: dir}
		var res *result
		var spans []span
		if o.trace == 1 {
			res, spans, err = cfg.traced()
		} else {
			res, err = cfg.scored()
		}
		if err != nil {
			return err
		}
		res.print(os.Stdout)
		all = append(all, spans...)
		if o.jsonOut != "" {
			if err := appendJSON(o.jsonOut, res); err != nil {
				return err
			}
		}
		failed = failed || !res.Correct
		last = res
	}
	if o.spansOut != "" {
		if err := writeSpans(o.spansOut, all); err != nil {
			return err
		}
	}
	if o.workload != "" {
		if err := contractLine(os.Stdout, o.benchJSON, last); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("outputs differ from the oracle")
	}
	return nil
}

func appendJSON(path string, v any) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// contractLine prints the one-line JSON result a benchmark driver
// reads: the metrics BENCHMARK.json lists for this kind of run, by
// name. A listed per-layer metric the workload does not have (no cache,
// no parity, no HTTP) reads 0 there; the report above omits it.
func contractLine(w io.Writer, benchJSON string, r *result) error {
	bm, err := loadBenchmark(benchJSON)
	if err != nil {
		return err
	}
	listed, have := bm.EndToEnd, r.EndToEnd
	if r.Traced {
		listed, have = bm.PerLayer, r.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, l := range listed {
		m, _ := have.get(l.Name)
		out.Metrics[l.Name] = value{m.Value, l.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runConfig is one workload run's inputs.
type runConfig struct {
	sp      *spec
	seed    int64
	seconds int
	scale   float64 // multiplies every op count; the smoke test runs at toy size
	dir     string
}

// units turns a per-second rate into this run's fixed unit count, a
// whole number of the workload's blocks.
func (c runConfig) units(rate float64) int {
	b := max(c.sp.block, 1)
	return max(1, int(math.Round(rate*float64(c.seconds)*c.scale/float64(b)))) * b
}

// A scored run times at least minSetups set-ups and keeps going, up to
// maxSetups, until they add up to setupBudget, so that a set-up of a few
// milliseconds is sampled more often; setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 40
	setupBudget = 1.0 // seconds
)

// scored is the scored run: set-ups spread through the run (before,
// with each pass, after), the paired pass, the plain pass, and the
// whole array compared with the oracle after each pass.
func (c runConfig) scored() (*result, error) {
	start := time.Now()
	r := newRunner(c.sp, c.seed, c.dir)
	var setups []float64
	setupOnly := func() error {
		d, err := r.withInstance(false, nil, nil)
		setups = append(setups, d.Seconds())
		return err
	}
	for i := 0; i < 2; i++ {
		if err := setupOnly(); err != nil {
			return nil, err
		}
	}
	nPaired, nPlain := c.units(c.sp.pairedRate), c.units(c.sp.plainRate)
	pp, err := r.pass(nPaired, paired, false, nil, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, pp.setups[0].Seconds())
	if err := setupOnly(); err != nil {
		return nil, err
	}
	pl, err := r.pass(nPlain, plain, c.sp.realTimePlain, nil, false)
	if err != nil {
		return nil, err
	}
	if !c.sp.realTimePlain { // the sleeping model's set-up is not the one scored
		setups = append(setups, pl.setups[0].Seconds())
	}
	budget := setupBudget * min(c.scale, 1)
	for len(setups) < minSetups || (sum(setups) < budget && len(setups) < maxSetups) {
		if err := setupOnly(); err != nil {
			return nil, err
		}
	}
	res := c.result(false, pp, pl)
	res.Counts = map[string]int{
		"paired_" + c.sp.unit: nPaired, "plain_" + c.sp.unit: nPlain,
		"paired_ops": pp.rec.ops, "plain_ops": pl.rec.ops, "setups": len(setups),
	}
	res.EndToEnd = endToEnd(setups, pp, pl)
	pairedDiagnostics(&res.PerLayer, pp)
	statsLayers(&res.PerLayer, c.sp, nPlain, pl, r.host.mbps)
	res.WallSecs = time.Since(start).Seconds()
	return res, nil
}

// result fills in what every kind of run reports from its passes.
func (c runConfig) result(traced bool, passes ...*passStats) *result {
	res := &result{Workload: c.sp.name, Seed: c.seed, Seconds: c.seconds, Traced: traced, Env: currentEnv()}
	for _, ps := range passes {
		// Each pass ends with the whole array read back: one more attempt.
		res.Attempted += ps.rec.ops + 1
		res.Failed += ps.rec.failed
		if ps.verifyBad > 0 {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// traced is the traced run, separate from the scored one: the plain
// pass again for the Stats-delta metrics, then at most 300 ops paired
// twice, untraced and traced, the traced pass replaying each layer's
// public functions on every op's own inputs. The ratio of the two
// passes' *_x_ref is the tracing overhead.
func (c runConfig) traced() (*result, []span, error) {
	start := time.Now()
	r := newRunner(c.sp, c.seed, c.dir)
	nPlain := c.units(c.sp.plainRate)
	nTraced := min(c.sp.tracedUnits, c.units(c.sp.pairedRate))
	pl, err := r.pass(nPlain, plain, c.sp.realTimePlain, nil, false)
	if err != nil {
		return nil, nil, err
	}
	pu, err := r.pass(nTraced, paired, false, nil, false)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer(c.sp.name)
	pt, err := r.pass(nTraced, paired, false, tr, true)
	if err != nil {
		return nil, nil, err
	}
	res := c.result(true, pl, pu, pt)
	res.Counts = map[string]int{"plain_" + c.sp.unit: nPlain, "plain_ops": pl.rec.ops,
		"traced_" + c.sp.unit: nTraced, "traced_ops": pt.rec.ops, "spans": len(tr.spans)}
	statsLayers(&res.PerLayer, c.sp, nPlain, pl, r.host.mbps)
	spanLayers(&res.PerLayer, c.sp, nTraced, tr.spans)
	for k, name := range []string{"read", "write"} {
		res.PerLayer.add("trace.overhead_"+name+"_x", "ratio",
			div(median(pt.rec.ratio[k]), median(pu.rec.ratio[k])), len(pt.rec.ratio[k]))
	}
	sh, dev := shares(tr.spans, c.sp.http)
	res.PerLayer = append(res.PerLayer, sh...)
	if c.sp.http {
		res.PerLayer.add("share.call_sum_dev", "share", dev, len(tr.spans))
	}
	if dev > 0.05 {
		res.Correct = false
		return res, tr.spans, fmt.Errorf("%s: client self + wire self + handler differ from the call by %.1f%% (limit 5%%)", c.sp.name, dev*100)
	}
	res.WallSecs = time.Since(start).Seconds()
	return res, tr.spans, nil
}
