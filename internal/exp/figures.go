// Package exp holds what reproduces the paper: its three figures as
// exact structural reproductions, experiments E1–E10 turning its
// performance claims into tables of charged requests, seeks and bytes
// against conventional array files, and the design ablations E11–E15.
// Both cmd/drxbench and the root bench_test.go drive these functions,
// so the command and the `go test -bench` targets always agree. How
// fast the stack itself runs is bench/'s question, not this package's.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"drxmp/internal/core"
	"drxmp/internal/order"
	"drxmp/internal/report"
	"drxmp/internal/zone"

	"drxmp/internal/grid"
)

// Fig1Space reconstructs the paper's Fig. 1 extendible chunk space: a
// 2-D array of 2x3-element chunks grown from one chunk to a 5x4 grid by
// the stated history.
func Fig1Space() *core.Space {
	s, err := core.NewSpace([]int{1, 1})
	if err != nil {
		panic(err)
	}
	for _, st := range []struct{ dim, by int }{
		{1, 1}, {0, 1}, {0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 1},
	} {
		if err := s.Extend(st.dim, st.by); err != nil {
			panic(err)
		}
	}
	return s
}

// Fig1GlobalMap returns the paper's Section IV per-process chunk lists
// (globalMap) computed from the BLOCK decomposition — these must equal
// the hard-coded arrays of the paper's code listing.
func Fig1GlobalMap() ([][]int64, error) {
	s := Fig1Space()
	d, err := zone.New(zone.Block, grid.Shape(s.Bounds()), 4, 0)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, 4)
	for r := 0; r < 4; r++ {
		for _, b := range d.ZoneOf(r) {
			b.Iterate(grid.RowMajor, func(ci []int) bool {
				out[r] = append(out[r], s.MustMap(ci))
				return true
			})
		}
		// The paper's listing (and any sequential file scan) orders each
		// process's chunks by ascending linear address.
		sort.Slice(out[r], func(i, j int) bool { return out[r][i] < out[r][j] })
	}
	return out, nil
}

// Fig1 renders the Fig. 1 reproduction: the chunk-address grid and the
// four zones with their chunk lists.
func Fig1() []*report.Table {
	s := Fig1Space()
	grids := report.New("FIG1: chunk addresses of the 2-D extendible array (5x4 chunks of 2x3 elements)")
	grids.Columns = []string{"I0\\I1", "0", "1", "2", "3"}
	for i := 0; i < s.Bound(0); i++ {
		row := []any{fmt.Sprint(i)}
		for j := 0; j < s.Bound(1); j++ {
			row = append(row, s.MustMap([]int{i, j}))
		}
		grids.AddRow(row...)
	}
	grids.AddNote("paper worked value: F*(4,2) = %d (expected 18)", s.MustMap([]int{4, 2}))

	zones := report.New("FIG1: BLOCK zones of 4 processes (paper's globalMap)", "process", "chunks")
	gm, err := Fig1GlobalMap()
	if err != nil {
		zones.AddNote("error: %v", err)
	} else {
		for r, chunks := range gm {
			parts := make([]string, len(chunks))
			for i, q := range chunks {
				parts[i] = fmt.Sprint(q)
			}
			zones.AddRow(fmt.Sprintf("P%d", r), strings.Join(parts, ","))
		}
		zones.AddNote("paper lists P0={0,1,2,3,4,5} P1={6,7,8,12,13,14} P2={9,10,16,17} P3={11,15,18,19}")
	}
	return []*report.Table{grids, zones}
}

// Fig2 renders the four allocation schemes of Fig. 2 on an 8x8 grid.
func Fig2() []*report.Table {
	var tables []*report.Table
	add := func(name string, l order.Layout, note string) {
		t := report.New("FIG2: " + name)
		t.Columns = []string{"grid"}
		for _, line := range strings.Split(strings.TrimRight(order.RenderGrid(l), "\n"), "\n") {
			t.AddRow(line)
		}
		if note != "" {
			t.AddNote("%s", note)
		}
		tables = append(tables, t)
	}
	add("(a) row-major sequence order", order.NewRowMajor([]int{8, 8}),
		"extendible along dimension 0 only")
	m, _ := order.NewMorton([]int{8, 8})
	add("(b) Z (Morton) sequence order", m,
		"grows only by doubling, cyclically")
	sh, _ := order.NewSymmetricShell(8, 8)
	add("(c) symmetric linear shell sequence order", sh,
		"grows linearly but only in cyclic dimension order")
	ax, _ := order.NewAxial([]int{2, 2})
	for _, st := range []struct{ dim, by int }{{0, 2}, {1, 2}, {0, 4}, {1, 4}} {
		_ = ax.Extend(st.dim, st.by)
	}
	add("(d) arbitrary linear shell (axial vectors), history [2,2]+D0(2)+D1(2)+D0(4)+D1(4)", ax,
		"grows along any dimension by any amount — the paper's scheme")
	return tables
}

// Fig3Space reconstructs the paper's Fig. 3 history: initial A[4][3][1],
// D2+1, D2+1 (uninterrupted), D1+1, D0+2, D2+1.
func Fig3Space() *core.Space {
	s, err := core.NewSpace([]int{4, 3, 1})
	if err != nil {
		panic(err)
	}
	for _, st := range []struct{ dim, by int }{
		{2, 1}, {2, 1}, {1, 1}, {0, 2}, {2, 1},
	} {
		if err := s.Extend(st.dim, st.by); err != nil {
			panic(err)
		}
	}
	return s
}

// Fig3 renders the 3-D storage allocation (one I2-plane per table
// block) and the axial-vector table of Fig. 3b.
func Fig3() []*report.Table {
	s := Fig3Space()
	var tables []*report.Table
	for k := 0; k < s.Bound(2); k++ {
		t := report.New(fmt.Sprintf("FIG3a: chunk addresses, plane I2=%d", k))
		t.Columns = []string{"I0\\I1", "0", "1", "2", "3"}
		for i := 0; i < s.Bound(0); i++ {
			row := []any{fmt.Sprint(i)}
			for j := 0; j < s.Bound(1); j++ {
				row = append(row, s.MustMap([]int{i, j, k}))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	av := report.New("FIG3b: axial vectors", "dimension", "records (start; base; coefficients)")
	for d := s.Rank() - 1; d >= 0; d-- {
		var parts []string
		for _, r := range s.Records(d) {
			cs := make([]string, len(r.Coef))
			for i, c := range r.Coef {
				cs[i] = fmt.Sprint(c)
			}
			parts = append(parts, fmt.Sprintf("(%d; %d; %s)", r.Start, r.Base, strings.Join(cs, " ")))
		}
		av.AddRow(fmt.Sprintf("D%d", d), strings.Join(parts, "  "))
	}
	av.AddNote("worked values: F*(2,1,0)=%d (paper: 7), F*(3,1,2)=%d (paper: 34), F*(4,2,2)=%d (paper: 56)",
		s.MustMap([]int{2, 1, 0}), s.MustMap([]int{3, 1, 2}), s.MustMap([]int{4, 2, 2}))
	tables = append(tables, av)
	return tables
}
