// Command drxbench regenerates the paper's figures and tables: the
// three layout figures as exact structural reproductions, and
// E1..E15 (E13 became a benchmark of internal/core), the extension,
// access-order, address-resolution and collective-zone-read comparisons
// against conventional array files, counted in charged requests, seeks
// and bytes. Only e15 reads the wall clock.
//
// The benchmark that scores a change is a different program: bench/
// (bash bench/run.sh), whose binary is also called drxbench.
//
// Usage:
//
//	drxbench -exp all            # everything (figures + tables)
//	drxbench -exp fig1           # one experiment
//	drxbench -exp e4 -scale full # full-size run
//	drxbench -exp e7 -csv        # CSV output
//
// Experiments: fig1 fig2 fig3 e1..e12 e14 e15 (e11 onwards are design
// ablations); -list prints them.
//
// Flags: -exp, -scale, -csv, -list.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"drxmp/internal/exp"
)

func main() {
	which := flag.String("exp", "all", "experiments to run, comma-separated (all, or names from -list)")
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range exp.All {
			fmt.Printf("%-6s %s\n", e.Name, e.Desc)
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
	for _, e := range exp.All {
		if !selected(names, e.Name) {
			continue
		}
		ran++
		fmt.Printf("### %s — %s\n\n", e.Name, e.Desc)
		for _, t := range e.Run(sc) {
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
