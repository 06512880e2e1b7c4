package pfs

import (
	"bytes"
	"testing"
)

// TestReorderWindowStragglerScaling pins the SlowFactor-aware elevator
// window: a straggler server's effective reorder window is its base
// window (fixed or auto) scaled up by its slow factor (ceiling), while
// nominal servers keep the base window untouched.
func TestReorderWindowStragglerScaling(t *testing.T) {
	mk := func(slow float64, fixed int) *server {
		opts := Options{Scheduler: Elevator, WindowSize: fixed,
			Cost: CostModel{SlowFactor: []float64{slow}}}
		return newServer(0, opts)
	}
	cases := []struct {
		name    string
		slow    float64
		fixed   int
		backlog int
		want    int
	}{
		{"nominal-fixed", 1, 8, 100, 8},
		{"nominal-auto", 1, 0, 5, 6}, // 1 + backlog
		{"slow4-fixed", 4, 8, 100, 32},
		{"slow4-auto", 4, 0, 5, 24}, // (1+5) * 4
		{"slow1.5-fixed-ceils", 1.5, 3, 0, 5},
		{"slow-zero-entry-nominal", 0, 8, 0, 8}, // <= 0 means nominal
		{"subunit-never-shrinks", 0.5, 8, 0, 8},
	}
	for _, tc := range cases {
		if got := mk(tc.slow, tc.fixed).reorderWindow(tc.backlog); got != tc.want {
			t.Errorf("%s: reorderWindow(%d) = %d, want %d", tc.name, tc.backlog, got, tc.want)
		}
	}
}

// TestStragglerWindowSweepsMergeMore is the behavioral half: the same
// interleaved two-stream write pattern, serviced through the post-Close
// synchronous elevator path after being split into window-sized frozen
// batches, charges fewer seeks when the window is wider — the property
// the straggler scaling buys the slow server. The batches are formed
// deterministically here (the queue path's batches depend on arrival
// timing), using the same sweep the queue workers run.
func TestStragglerWindowSweepsMergeMore(t *testing.T) {
	// Two interleaved streams of 8 contiguous 64-byte segments each, as
	// one server's batch of a write.
	mkBatch := func() *batch {
		d := &dispatch{mem: Contig(bytes.Repeat([]byte{1}, 16*64)), write: true,
			batches: make([]batch, 1), done: make(chan struct{}, 1)}
		b := &d.batches[0]
		b.d = d
		for i := 0; i < 8; i++ {
			for s := 0; s < 2; s++ {
				b.idx = append(b.idx, int32(len(d.segs)))
				d.segs = append(d.segs, ioSeg{off: int64(s)*4096 + int64(i)*64, n: 64, mo: int64(len(d.segs)) * 64})
			}
		}
		b.left = len(b.idx)
		return b
	}
	seeksWithWindow := func(window int) int64 {
		sv := newServer(0, Options{Scheduler: Elevator, Cost: schedCost()})
		for pending := admit(nil, mkBatch()); len(pending) > 0; {
			pending = sv.sweep(pending, window)
		}
		return sv.stats.Seeks
	}
	narrow := seeksWithWindow(2) // base window of the nominal server
	wide := seeksWithWindow(8)   // the same base scaled 4x for a straggler
	if wide >= narrow {
		t.Fatalf("wider window did not merge more: %d seeks at window 8, %d at window 2", wide, narrow)
	}
}
