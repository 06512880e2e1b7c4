// One testing.B target per reproduced figure / paper table (fig1..fig3,
// E1..E15). Each benchmark drives the same code as cmd/drxbench, so
// `go test -bench=.` regenerates every table it prints; custom metrics
// carry the simulated I/O costs that wall-clock time alone cannot show.
// Performance of the stack itself is bench/'s job, not this file's.
package drxmp_test

import (
	"testing"
	"time"

	"drxmp/internal/exp"
	"drxmp/internal/report"
)

func scale(b *testing.B) exp.Scale {
	if testing.Short() {
		return exp.Quick
	}
	return exp.Quick // Full is available via cmd/drxbench -scale full
}

// run executes an experiment b.N times and sanity-checks row counts.
func run(b *testing.B, minRows int, fn func(exp.Scale) []*report.Table) []*report.Table {
	b.Helper()
	var tables []*report.Table
	for i := 0; i < b.N; i++ {
		tables = fn(scale(b))
	}
	if len(tables) == 0 || len(tables[0].Rows) < minRows {
		b.Fatalf("experiment produced too few rows: %+v", tables)
	}
	return tables
}

func BenchmarkFig1Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := exp.Fig1Space().MustMap([]int{4, 2}); got != 18 {
			b.Fatalf("F*(4,2) = %d", got)
		}
	}
}

func BenchmarkFig2Layouts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tables := exp.Fig2(); len(tables) != 4 {
			b.Fatalf("fig2 tables = %d", len(tables))
		}
	}
}

func BenchmarkFig3Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.Fig3Space()
		if got := s.MustMap([]int{4, 2, 2}); got != 56 {
			b.Fatalf("F*(4,2,2) = %d", got)
		}
	}
}

func BenchmarkE1ExtendVsReorg(b *testing.B) {
	run(b, 8, exp.E1ExtendCost)
}

func BenchmarkE2AccessOrder(b *testing.B) {
	tables := run(b, 4, exp.E2AccessOrder)
	reportSimTimes(b, tables[0], 4, 0)
}

func BenchmarkE3MapLatency(b *testing.B) {
	run(b, 5, exp.E3MapLatency)
}

func BenchmarkE4Scaling(b *testing.B) {
	tables := run(b, 5, exp.E4Scaling)
	reportSimTimes(b, tables[0], 3, 0)
}

func BenchmarkE5Collective(b *testing.B) {
	tables := run(b, 2, exp.E5Collective)
	reportSimTimes(b, tables[0], 3, 0)
}

func BenchmarkE6ChunkStripe(b *testing.B) {
	run(b, 3, exp.E6ChunkStripe)
}

func BenchmarkE7Formats(b *testing.B) {
	run(b, 4, exp.E7Formats)
}

func BenchmarkE8RMA(b *testing.B) {
	run(b, 3, exp.E8RMA)
}

func BenchmarkE9ParallelExtend(b *testing.B) {
	tables := run(b, 2, exp.E9ParallelExtend)
	if tables[0].Rows[1][3] != "0" {
		b.Fatalf("no-reorganization invariant violated: %v old bytes changed", tables[0].Rows[1][3])
	}
}

func BenchmarkE10Transpose(b *testing.B) {
	run(b, 2, exp.E10Transpose)
}

func BenchmarkE11LayoutAblation(b *testing.B) {
	tables := run(b, 4, exp.E11LayoutAblation)
	// The axial row must show zero waste, zero moves, zero refusals.
	ax := tables[0].Rows[0]
	if ax[4] != "0" || ax[5] != "0" || ax[6] != "0" {
		b.Fatalf("axial ablation row not clean: %v", ax)
	}
}

func BenchmarkE12MergeAblation(b *testing.B) {
	tables := run(b, 2, exp.E12MergeAblation)
	rows := tables[0].Rows
	if len(rows) != 2 || rows[0][1] == rows[1][1] {
		b.Fatalf("E12: merged and unmerged record counts indistinguishable: %v", rows)
	}
}

func BenchmarkE13SearchAblation(b *testing.B) {
	run(b, 2, exp.E13SearchAblation)
}

func BenchmarkE14CacheAblation(b *testing.B) {
	run(b, 2, exp.E14CacheAblation)
}

func BenchmarkE15TransportAblation(b *testing.B) {
	run(b, 1, exp.E15TransportAblation)
}

// reportSimTimes surfaces a table's simulated-time column as custom
// benchmark metrics (ns), keyed by the row's first column.
func reportSimTimes(b *testing.B, t *report.Table, col, _ int) {
	b.Helper()
	for _, row := range t.Rows {
		if col >= len(row) {
			continue
		}
		if d, err := time.ParseDuration(row[col]); err == nil {
			b.ReportMetric(float64(d.Nanoseconds()), "simns_"+sanitize(row[0]))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
