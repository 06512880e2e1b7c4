// Package exp holds what reproduces the paper: its three figures as
// exact structural reproductions, experiments E1–E10 turning its
// performance claims into tables of charged requests, seeks and bytes
// against conventional array files, and the design ablations E11–E15
// (E13, the record search, is BenchmarkMapManyRecords in internal/core).
// All lists them: cmd/drxbench prints them, and TestPaperGolden pins
// every table but E15's in testdata/paper.golden. E15 is the only one
// that reads the wall clock. How fast the stack itself runs is bench/'s
// question, not this package's.
package exp

import "drxmp/internal/report"

// Experiment is one reproduced figure or table set.
type Experiment struct {
	Name string // what drxbench -exp selects it by
	Desc string
	Run  func(Scale) []*report.Table
}

// All is every experiment, in the order drxbench prints them.
var All = []Experiment{
	{"fig1", "Fig. 1: 2-D extendible array layout + 4-process zones", func(Scale) []*report.Table { return Fig1() }},
	{"fig2", "Fig. 2: the four allocation schemes on 8x8", func(Scale) []*report.Table { return Fig2() }},
	{"fig3", "Fig. 3: 3-D extendible array + axial vectors", func(Scale) []*report.Table { return Fig3() }},
	{"e1", "extension cost: axial vs reorganizing formats", E1ExtendCost},
	{"e2", "access order: row-major file vs chunked axial file", E2AccessOrder},
	{"e3", "address resolution: F* vs row-major vs B-tree", E3MapCost},
	{"e4", "collective zone-read scaling over P ranks", E4Scaling},
	{"e5", "independent vs two-phase collective I/O", E5Collective},
	{"e6", "chunk size vs stripe size", E6ChunkStripe},
	{"e7", "format comparison workload set", E7Formats},
	{"e8", "element access paths: local / RMA / file", E8RMA},
	{"e9", "parallel extension, no-reorganization invariant", E9ParallelExtend},
	{"e10", "on-the-fly transposition vs explicit transpose", E10Transpose},
	{"e11", "layout ablation under arbitrary growth (Fig. 2 quantified)", E11LayoutAblation},
	{"e12", "uninterrupted-expansion merging ablation", E12MergeAblation},
	{"e14", "chunk cache (Mpool) size sweep", E14CacheAblation},
	{"e15", "transport ablation: in-process vs loopback TCP", E15TransportAblation},
}
