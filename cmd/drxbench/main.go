// Command drxbench regenerates the paper's figures and tables: the
// three layout figures as exact structural reproductions, and
// E1..E15, the extension, access-order, address-resolution and
// collective-zone-read comparisons against conventional array files,
// counted in charged requests, seeks and bytes.
//
// The benchmark that scores a change is a different program: bench/
// (bash bench/run.sh), whose binary is also called drxbench.
//
// Usage:
//
//	drxbench -exp all            # everything (figures + E1..E15)
//	drxbench -exp fig1           # one experiment
//	drxbench -exp e4 -scale full # full-size run
//	drxbench -exp e7 -csv        # CSV output
//
// Experiments: fig1 fig2 fig3 e1..e15 (e11-e15 are design ablations).
//
// Flags: -exp, -scale, -csv, -list.
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
}

func main() {
	which := flag.String("exp", "all", "experiment to run (all, fig1..fig3, e1..e15)")
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

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
