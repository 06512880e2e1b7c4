// Package zone partitions the principal array's chunk space into the
// rectilinear per-process regions the paper calls zones.
//
// "The entire array file is partitioned into disjoint rectilinear
// regions where each region is composed of a set of adjacent connected
// chunks referred to as a zone. Each process is then assigned a zone of
// the array where it becomes the primary owner." (Section II-A)
//
// Two decompositions are provided:
//
//   - BLOCK: the chunk grid is divided into a process grid (factorized
//     near-square, as MPI_Dims_create) of contiguous blocks — the
//     distribution of the paper's Fig. 1.
//   - BLOCK_CYCLIC(k): blocks of k chunk indices per dimension dealt
//     round-robin to the process grid — the HPF-style distribution the
//     paper lists as Panda's feature and as DRX-MP future work.
//
// Every process holds the same replicated metadata, so every process
// computes the same decomposition and can locate the owner of any chunk
// without communication — the property the paper uses for one-sided
// element access.
package zone

import (
	"fmt"
	"sort"

	"drxmp/internal/grid"
)

// Kind selects the decomposition.
type Kind int

const (
	// Block is the BLOCK × BLOCK × ... decomposition.
	Block Kind = iota
	// BlockCyclic is the BLOCK_CYCLIC(k) decomposition.
	BlockCyclic
)

func (k Kind) String() string {
	switch k {
	case Block:
		return "BLOCK"
	case BlockCyclic:
		return "BLOCK_CYCLIC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// dimsCreate factorizes nprocs into a k-dimensional process grid with
// factors as close to each other as possible, larger factors first
// (mirroring MPI_Dims_create).
func dimsCreate(nprocs, k int) ([]int, error) {
	if nprocs < 1 || k < 1 {
		return nil, fmt.Errorf("zone: dimsCreate(%d, %d)", nprocs, k)
	}
	dims := make([]int, k)
	for i := range dims {
		dims[i] = 1
	}
	// Greedy: repeatedly strip the largest prime factor and assign it to
	// the currently smallest grid dimension.
	factors := primeFactors(nprocs)
	// Assign large factors first.
	sort.Sort(sort.Reverse(sort.IntSlice(factors)))
	for _, f := range factors {
		minI := 0
		for i := 1; i < k; i++ {
			if dims[i] < dims[minI] {
				minI = i
			}
		}
		dims[minI] *= f
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dims)))
	return dims, nil
}

func primeFactors(n int) []int {
	var fs []int
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			fs = append(fs, p)
			n /= p
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// Decomp is one decomposition of a chunk grid over a process grid. It
// is computed deterministically from (chunk bounds, nprocs, kind,
// block), so replicas on every process agree.
type Decomp struct {
	kind   Kind
	bounds grid.Shape // chunk-space bounds
	dims   []int      // process grid
	block  int        // BLOCK_CYCLIC block size (chunk indices per deal)
}

// New builds a decomposition of the given chunk-space bounds over
// nprocs processes. For BlockCyclic, block is the per-dimension block
// size (>= 1); it is ignored for Block.
func New(kind Kind, bounds grid.Shape, nprocs, block int) (*Decomp, error) {
	if err := bounds.Validate(); err != nil {
		return nil, err
	}
	if !bounds.Positive() {
		return nil, fmt.Errorf("zone: bounds %v must be positive", bounds)
	}
	if nprocs < 1 {
		return nil, fmt.Errorf("zone: %d processes", nprocs)
	}
	if kind == BlockCyclic && block < 1 {
		return nil, fmt.Errorf("zone: BLOCK_CYCLIC block %d", block)
	}
	dims, err := dimsCreate(nprocs, len(bounds))
	if err != nil {
		return nil, err
	}
	// Orient the process grid so longer array dimensions get more
	// processes: sort grid dims descending by bounds order.
	type di struct{ dim, bound int }
	byBound := make([]di, len(bounds))
	for i, b := range bounds {
		byBound[i] = di{i, b}
	}
	sort.SliceStable(byBound, func(a, b int) bool { return byBound[a].bound > byBound[b].bound })
	oriented := make([]int, len(bounds))
	for i, d := range byBound {
		oriented[d.dim] = dims[i]
	}
	return &Decomp{kind: kind, bounds: bounds.Clone(), dims: oriented, block: block}, nil
}

// Kind returns the decomposition kind.
func (d *Decomp) Kind() Kind { return d.kind }

// gridVolume returns the number of process-grid cells (>= the process
// count; excess cells own empty zones when the count doesn't factor
// nicely — cannot happen with dimsCreate, which factors it exactly).
func (d *Decomp) gridVolume() int {
	v := 1
	for _, n := range d.dims {
		v *= n
	}
	return v
}

// procCoords returns the process-grid coordinates of rank r (row-major
// rank order, as MPI_Cart_create with reorder=false).
func (d *Decomp) procCoords(r int) []int {
	return grid.Unoffset(grid.Shape(d.dims), int64(r), grid.RowMajor, nil)
}

// rankOf returns the rank owning process-grid coordinates pc.
func (d *Decomp) rankOf(pc []int) int {
	return int(grid.Offset(grid.Shape(d.dims), pc, grid.RowMajor))
}

// blockRange computes the BLOCK range of dimension dim for process-grid
// coordinate p: near-equal contiguous shares, the first (bound % P)
// processes getting one extra (the standard BLOCK distribution).
func blockRange(bound, nprocDim, p int) (lo, hi int) {
	base := bound / nprocDim
	rem := bound % nprocDim
	lo = p*base + min(p, rem)
	size := base
	if p < rem {
		size++
	}
	return lo, lo + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ZoneOf returns the chunk-space boxes owned by rank r. For Block the
// result is a single box (possibly empty); for BlockCyclic it is the
// list of dealt blocks (possibly many).
func (d *Decomp) ZoneOf(r int) []grid.Box {
	if r < 0 || r >= d.gridVolume() {
		return nil
	}
	pc := d.procCoords(r)
	k := len(d.bounds)
	switch d.kind {
	case Block:
		lo := make([]int, k)
		hi := make([]int, k)
		for i := 0; i < k; i++ {
			lo[i], hi[i] = blockRange(d.bounds[i], d.dims[i], pc[i])
		}
		return []grid.Box{{Lo: lo, Hi: hi}}
	default: // BlockCyclic
		// Per dimension, the process owns blocks starting at
		// (pc[i] + m*dims[i]) * block for m = 0,1,...
		perDim := make([][][2]int, k)
		for i := 0; i < k; i++ {
			for start := pc[i] * d.block; start < d.bounds[i]; start += d.dims[i] * d.block {
				end := start + d.block
				if end > d.bounds[i] {
					end = d.bounds[i]
				}
				perDim[i] = append(perDim[i], [2]int{start, end})
			}
			if len(perDim[i]) == 0 {
				return nil
			}
		}
		// Cartesian product of per-dimension intervals.
		var out []grid.Box
		idx := make([]int, k)
		for {
			lo := make([]int, k)
			hi := make([]int, k)
			for i := 0; i < k; i++ {
				lo[i], hi[i] = perDim[i][idx[i]][0], perDim[i][idx[i]][1]
			}
			out = append(out, grid.Box{Lo: lo, Hi: hi})
			j := k - 1
			for ; j >= 0; j-- {
				idx[j]++
				if idx[j] < len(perDim[j]) {
					break
				}
				idx[j] = 0
			}
			if j < 0 {
				return out
			}
		}
	}
}

// Owner returns the rank owning chunk index ci.
func (d *Decomp) Owner(ci []int) (int, error) {
	if len(ci) != len(d.bounds) {
		return 0, fmt.Errorf("zone: index rank %d != %d", len(ci), len(d.bounds))
	}
	pc := make([]int, len(ci))
	for i, c := range ci {
		if c < 0 || c >= d.bounds[i] {
			return 0, fmt.Errorf("zone: chunk index %d of dimension %d outside [0,%d)", c, i, d.bounds[i])
		}
		switch d.kind {
		case Block:
			// Invert blockRange: process p owns [p*base+min(p,rem), ...).
			base := d.bounds[i] / d.dims[i]
			rem := d.bounds[i] % d.dims[i]
			cut := rem * (base + 1)
			if c < cut {
				pc[i] = c / (base + 1)
			} else {
				// base > 0 here: base == 0 implies bounds == rem == cut.
				pc[i] = rem + (c-cut)/base
			}
		default:
			pc[i] = (c / d.block) % d.dims[i]
		}
	}
	return d.rankOf(pc), nil
}
