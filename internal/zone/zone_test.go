package zone

import (
	"reflect"
	"testing"
	"testing/quick"

	"drxmp/internal/grid"
)

func TestDimsCreate(t *testing.T) {
	cases := []struct {
		n, k int
		want []int
	}{
		{4, 2, []int{2, 2}},
		{6, 2, []int{3, 2}},
		{8, 2, []int{4, 2}},
		{8, 3, []int{2, 2, 2}},
		{12, 2, []int{4, 3}},
		{12, 3, []int{3, 2, 2}},
		{7, 2, []int{7, 1}},
		{1, 3, []int{1, 1, 1}},
		{16, 1, []int{16}},
	}
	for _, c := range cases {
		got, err := dimsCreate(c.n, c.k)
		if err != nil {
			t.Fatalf("dimsCreate(%d,%d): %v", c.n, c.k, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("dimsCreate(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if _, err := dimsCreate(0, 2); err == nil {
		t.Error("dimsCreate(0,2) accepted")
	}
	if _, err := dimsCreate(4, 0); err == nil {
		t.Error("dimsCreate(4,0) accepted")
	}
}

func TestQuickDimsCreateProduct(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n := int(n8)%63 + 1
		k := int(k8)%4 + 1
		dims, err := dimsCreate(n, k)
		if err != nil {
			return false
		}
		prod := 1
		for _, d := range dims {
			prod *= d
		}
		return prod == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFig1Zones verifies that the BLOCK decomposition of the paper's
// Fig. 1 (5x4 chunk grid, 4 processes) produces exactly the depicted
// zones.
func TestFig1Zones(t *testing.T) {
	d, err := New(Block, grid.Shape{5, 4}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []grid.Box{
		grid.NewBox([]int{0, 0}, []int{3, 2}), // P0: chunks 0..5
		grid.NewBox([]int{0, 2}, []int{3, 4}), // P1: 6,7,8,12,13,14
		grid.NewBox([]int{3, 0}, []int{5, 2}), // P2: 9,10,16,17
		grid.NewBox([]int{3, 2}, []int{5, 4}), // P3: 11,15,18,19
	}
	for r, wb := range want {
		zs := d.ZoneOf(r)
		if len(zs) != 1 || !zs[0].Equal(wb) {
			t.Errorf("zone of P%d = %v, want %v", r, zs, wb)
		}
	}
}

// checkPartition verifies zones tile the chunk grid exactly and Owner
// agrees with ZoneOf.
func checkPartition(t *testing.T, d *Decomp, bounds grid.Shape, nprocs int) {
	t.Helper()
	owner := map[string]int{}
	var covered int64
	for r := 0; r < nprocs; r++ {
		for _, b := range d.ZoneOf(r) {
			covered += b.Volume()
			b.Iterate(grid.RowMajor, func(idx []int) bool {
				key := grid.Shape(idx).String()
				if prev, dup := owner[key]; dup {
					t.Fatalf("chunk %v owned by both %d and %d", idx, prev, r)
				}
				owner[key] = r
				got, err := d.Owner(idx)
				if err != nil {
					t.Fatalf("Owner(%v): %v", idx, err)
				}
				if got != r {
					t.Fatalf("Owner(%v) = %d, but zone of %d contains it", idx, got, r)
				}
				return true
			})
		}
	}
	if covered != bounds.Volume() {
		t.Fatalf("zones cover %d chunks, grid has %d", covered, bounds.Volume())
	}
}

func TestBlockPartitionExact(t *testing.T) {
	for _, tc := range []struct {
		bounds grid.Shape
		nprocs int
	}{
		{grid.Shape{5, 4}, 4},
		{grid.Shape{7, 3}, 6},
		{grid.Shape{10}, 3},
		{grid.Shape{4, 4, 4}, 8},
		{grid.Shape{3, 5, 2}, 5},
		{grid.Shape{2, 2}, 9}, // more processes than chunks: empty zones
	} {
		d, err := New(Block, tc.bounds, tc.nprocs, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, d, tc.bounds, tc.nprocs)
	}
}

func TestBlockCyclicPartitionExact(t *testing.T) {
	for _, tc := range []struct {
		bounds grid.Shape
		nprocs int
		block  int
	}{
		{grid.Shape{8, 8}, 4, 1},
		{grid.Shape{8, 8}, 4, 2},
		{grid.Shape{9, 5}, 4, 2},
		{grid.Shape{16}, 4, 3},
		{grid.Shape{6, 6, 6}, 8, 2},
	} {
		d, err := New(BlockCyclic, tc.bounds, tc.nprocs, tc.block)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, d, tc.bounds, tc.nprocs)
	}
}

func TestBlockCyclicInterleaves(t *testing.T) {
	// 1-D deal of blocks of 2 over 2 procs: P0 gets [0,2),[4,6),...
	d, err := New(BlockCyclic, grid.Shape{8}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	z0 := d.ZoneOf(0)
	want := []grid.Box{
		grid.NewBox([]int{0}, []int{2}),
		grid.NewBox([]int{4}, []int{6}),
	}
	if len(z0) != 2 || !z0[0].Equal(want[0]) || !z0[1].Equal(want[1]) {
		t.Fatalf("cyclic zone of P0 = %v", z0)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Block, grid.Shape{0, 4}, 4, 0); err == nil {
		t.Error("zero bound accepted")
	}
	if _, err := New(Block, grid.Shape{4, 4}, 0, 0); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := New(BlockCyclic, grid.Shape{4, 4}, 2, 0); err == nil {
		t.Error("zero cyclic block accepted")
	}
	d, _ := New(Block, grid.Shape{4, 4}, 4, 0)
	if _, err := d.Owner([]int{1}); err == nil {
		t.Error("rank-mismatched Owner accepted")
	}
	if _, err := d.Owner([]int{9, 0}); err == nil {
		t.Error("out-of-bounds Owner accepted")
	}
	if z := d.ZoneOf(-1); z != nil {
		t.Error("negative rank has a zone")
	}
	if z := d.ZoneOf(99); z != nil {
		t.Error("out-of-range rank has a zone")
	}
}

func TestOrientationFollowsBounds(t *testing.T) {
	// A long-thin grid over 4 procs should split the long dimension 4 ways.
	d, err := New(Block, grid.Shape{2, 100}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	dims := d.dims
	if dims[1] < dims[0] {
		t.Fatalf("process grid %v does not follow the long dimension", dims)
	}
}

func TestImbalance(t *testing.T) {
	even, _ := New(Block, grid.Shape{8, 8}, 4, 0)
	if got := even.Imbalance(); got != 1.0 {
		t.Fatalf("even imbalance = %v", got)
	}
	odd, _ := New(Block, grid.Shape{5, 4}, 4, 0)
	if got := odd.Imbalance(); got <= 1.0 || got > 1.5 {
		t.Fatalf("odd imbalance = %v", got)
	}
	// BLOCK_CYCLIC with small blocks balances a skewed grid better than
	// BLOCK when the grid is much larger than the process grid.
	big := grid.Shape{37, 23}
	blk, _ := New(Block, big, 4, 0)
	cyc, _ := New(BlockCyclic, big, 4, 1)
	if cyc.Imbalance() > blk.Imbalance() {
		t.Fatalf("cyclic imbalance %v > block %v", cyc.Imbalance(), blk.Imbalance())
	}
}

func TestVolumesSum(t *testing.T) {
	d, _ := New(BlockCyclic, grid.Shape{7, 9}, 5, 2)
	var sum int64
	for _, v := range d.Volumes() {
		sum += v
	}
	if sum != 63 {
		t.Fatalf("volumes sum = %d", sum)
	}
}

func TestQuickOwnerInZone(t *testing.T) {
	f := func(b0, b1, p8, kind8, c0, c1 uint8) bool {
		bounds := grid.Shape{int(b0)%9 + 1, int(b1)%9 + 1}
		nprocs := int(p8)%7 + 1
		kind := Block
		block := 0
		if kind8%2 == 1 {
			kind = BlockCyclic
			block = int(kind8)%3 + 1
		}
		d, err := New(kind, bounds, nprocs, block)
		if err != nil {
			return false
		}
		ci := []int{int(c0) % bounds[0], int(c1) % bounds[1]}
		r, err := d.Owner(ci)
		if err != nil {
			return false
		}
		for _, b := range d.ZoneOf(r) {
			if b.Contains(ci) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Volumes returns the number of chunks owned by each rank (a load-
// balance metric).
func (d *Decomp) Volumes() []int64 {
	out := make([]int64, d.gridVolume())
	for r := range out {
		for _, b := range d.ZoneOf(r) {
			out[r] += b.Volume()
		}
	}
	return out
}

// Imbalance returns max/mean of per-rank chunk counts (1.0 = perfect).
func (d *Decomp) Imbalance() float64 {
	vols := d.Volumes()
	var sum, maxV int64
	for _, v := range vols {
		sum += v
		if v > maxV {
			maxV = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(vols))
	return float64(maxV) / mean
}
