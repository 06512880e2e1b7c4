// Command drxbench regenerates every figure and experiment of the
// reproduction (see DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	drxbench -exp all            # everything (figures + E1..E24)
//	drxbench -exp fig1           # one experiment
//	drxbench -exp e4 -scale full # full-size run
//	drxbench -exp e7 -csv        # CSV output
//	drxbench -exp e16 -par 16    # drx chunk pipeline, wider sweep
//	drxbench -exp e17 -cpar 16   # parallel collective, wider sweep
//	drxbench -exp e20 -cache 4194304  # read-cache ablation, fixed 4 MiB budget
//	drxbench -exp e23 -spill 8388608  # tiered cache, fixed 8 MiB spill budget
//	drxbench -exp e23 -adaptive      # tiered cache, adaptive controller everywhere
//	drxbench -benchjson BENCH_collective.json  # collective perf artifact
//	                             # (scheduler/cb_nodes + e19 write-behind
//	                             #  + e20 read-cache + e23 tiered-cache
//	                             #  + e24 placement rows)
//
// Experiments: fig1 fig2 fig3 e1..e24 (e11-e15 are design ablations,
// e16 is the drx parallel-vs-serial chunk-pipeline study, e17 the parallel
// two-phase collective study, e18 the elevator-scheduler / adaptive
// cb_nodes ablation, e19 the write-behind collective-buffering
// ablation, e20 the unified-file-cache read ablation: cold/warm
// re-reads, data sieving on strided reads, and read-ahead scans, e21
// the erasure-coded degraded-read ablation: straggler avoidance and
// dead-server reconstruction vs wait-on-straggler reads, e22 the
// resilient-client ablation: plain vs retrying vs hedged clients
// against a straggling, flaky serving tier, e23 the tiered-cache
// ablation: RAM-only vs local-disk spill vs spill plus the adaptive
// sieve/read-ahead controller on an oversized-working-set re-read,
// e24 the aggregator-placement ablation: byte-cyclic vs zone-curve vs
// cache-affinity domains on repeated slab rewrites, plus elected vs
// uncoordinated watermark flushers).
//
// Flags: -exp, -scale, -csv, -list, -par (e16 worker sweep bound),
// -cpar (e17 worker sweep bound), -cache (e20 cache budget in bytes;
// 0 sizes the budget to the array), -spill (e23 spill-tier budget in
// bytes; 0 sizes it to the array), -adaptive (force the adaptive
// controller on in every cached e23 config), -benchjson (write the
// collective perf artifact and exit).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"drxmp/internal/exp"
	"drxmp/internal/report"
)

var experiments = []struct {
	name string
	desc string
	run  func(exp.Scale) []*report.Table
}{
	{"fig1", "Fig. 1: 2-D extendible array layout + 4-process zones", func(exp.Scale) []*report.Table { return exp.Fig1() }},
	{"fig2", "Fig. 2: the four allocation schemes on 8x8", func(exp.Scale) []*report.Table { return exp.Fig2() }},
	{"fig3", "Fig. 3: 3-D extendible array + axial vectors", func(exp.Scale) []*report.Table { return exp.Fig3() }},
	{"e1", "extension cost: axial vs reorganizing formats", exp.E1ExtendCost},
	{"e2", "access order: row-major file vs chunked axial file", exp.E2AccessOrder},
	{"e3", "address resolution latency: F* vs row-major vs B-tree", exp.E3MapLatency},
	{"e4", "collective zone-read scaling over P ranks", exp.E4Scaling},
	{"e5", "independent vs two-phase collective I/O", exp.E5Collective},
	{"e6", "chunk size vs stripe size", exp.E6ChunkStripe},
	{"e7", "format comparison workload set", exp.E7Formats},
	{"e8", "element access paths: local / RMA / file", exp.E8RMA},
	{"e9", "parallel extension, no-reorganization invariant", exp.E9ParallelExtend},
	{"e10", "on-the-fly transposition vs explicit transpose", exp.E10Transpose},
	{"e11", "layout ablation under arbitrary growth (Fig. 2 quantified)", exp.E11LayoutAblation},
	{"e12", "uninterrupted-expansion merging ablation", exp.E12MergeAblation},
	{"e13", "record lookup: binary search vs linear scan", exp.E13SearchAblation},
	{"e14", "chunk cache (Mpool) size sweep", exp.E14CacheAblation},
	{"e15", "transport ablation: in-process vs loopback TCP", exp.E15TransportAblation},
	{"e16", "parallel vs serial drx chunk pipeline (sharded pool)", exp.E16ParallelIO},
	{"e17", "parallel two-phase collective (per-aggregator workers + pfs server queues)", exp.E17CollectiveParallelism},
	{"e18", "elevator scheduling + adaptive cb_nodes ablation (incl. straggler servers)", exp.E18SchedulerCBNodes},
	{"e19", "write-behind collective buffering ablation (immediate / watermark / close-only)", exp.E19WriteBehind},
	{"e20", "unified file cache read ablation (cold/warm re-read, data sieving, read-ahead)", exp.E20ReadCache},
	{"e21", "erasure-coded degraded reads (healthy / wait-straggler / degraded-straggler / degraded-dead)", exp.E21DegradedReads},
	{"e22", "resilient client vs straggling/flaky serving tier (plain / retry / hedged)", exp.E22RetryHedge},
	{"e23", "tiered extent cache (RAM-only / local-disk spill / spill + adaptive sieve & read-ahead)", exp.E23TieredCache},
	{"e24", "aggregator placement (byte-cyclic / zone-curve / cache-affinity) + elected per-region flushers", exp.E24Placement},
}

func main() {
	which := flag.String("exp", "all", "experiment to run (all, fig1..fig3, e1..e24)")
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	list := flag.Bool("list", false, "list experiments and exit")
	parFlag := flag.Int("par", exp.DefaultParallelism, "max drx chunk-pipeline parallelism swept by e16")
	cparFlag := flag.Int("cpar", exp.DefaultCollectiveParallelism, "max collective parallelism swept by e17")
	cacheFlag := flag.Int64("cache", 0, "read-cache budget in bytes for e20 (0 sizes it to the array)")
	spillFlag := flag.Int64("spill", 0, "spill-tier budget in bytes for e23 (0 sizes it to the array)")
	adaptiveFlag := flag.Bool("adaptive", false, "force the adaptive sieve/read-ahead controller on in every cached e23 config")
	benchJSON := flag.String("benchjson", "", "write the collective benchmark rows (scheduler/cb_nodes, e19 write-behind, e20 read-cache) to this JSON file and exit")
	flag.Parse()
	if *parFlag > 0 {
		exp.DefaultParallelism = *parFlag
	}
	if *cparFlag > 0 {
		exp.DefaultCollectiveParallelism = *cparFlag
	}
	if *cacheFlag > 0 {
		exp.DefaultCacheBytes = *cacheFlag
	}
	if *spillFlag > 0 {
		exp.DefaultSpillBytes = *spillFlag
	}
	exp.DefaultAdaptive = *adaptiveFlag

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-6s %s\n", e.name, e.desc)
		}
		return
	}
	var sc exp.Scale
	switch *scaleFlag {
	case "quick":
		sc = exp.Quick
	case "full":
		sc = exp.Full
	default:
		fmt.Fprintf(os.Stderr, "drxbench: unknown scale %q (quick|full)\n", *scaleFlag)
		os.Exit(2)
	}

	if *benchJSON != "" {
		if err := exp.WriteCollectiveBenchJSON(*benchJSON, sc); err != nil {
			fmt.Fprintf(os.Stderr, "drxbench: benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *benchJSON)
		return
	}

	names := strings.Split(strings.ToLower(*which), ",")
	ran := 0
	for _, e := range experiments {
		if !selected(names, e.name) {
			continue
		}
		ran++
		fmt.Printf("### %s — %s\n\n", e.name, e.desc)
		for _, t := range e.run(sc) {
			if *csv {
				t.RenderCSV(os.Stdout)
				fmt.Println()
			} else {
				t.Render(os.Stdout)
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "drxbench: no experiment matches %q (use -list)\n", *which)
		os.Exit(2)
	}
}

func selected(names []string, name string) bool {
	for _, n := range names {
		if n == "all" || n == name {
			return true
		}
	}
	return false
}
