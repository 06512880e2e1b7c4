package main

import "math/rand"

// chunkSide is the chunk edge of every benchmark array (64x64 float64).
const chunkSide = 64

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opExtend
	opSync
)

// op is one generated operation. The op lists are the only thing the
// workloads see of the seed.
type op struct {
	kind opKind
	box  box
	// data is the offset of a write's payload in the data pool.
	data int
	// all selects the collective call (ReadSectionAll/WriteSectionAll).
	all bool
	// dim and by describe an opExtend.
	dim, by int
}

// poolBytes is the size of the random pool write payloads are cut from.
const poolBytes = 4 << 20

// genPool returns poolBytes+maxPayload random bytes, so any payload up
// to maxPayload can start at any offset below poolBytes.
func genPool(rng *rand.Rand, maxPayload int64) []byte {
	p := make([]byte, poolBytes+int(maxPayload))
	rng.Read(p)
	return p
}

// shape is one entry of a section template: an op kind and box sides.
type shape struct {
	kind       opKind
	rows, cols int
}

// blockOps is the length of a section template: op lists are made of
// whole blocks, each holding every template entry once.
const blockOps = 20

// sectionTemplate builds the fixed multiset of (kind, sides) a block of
// section ops is drawn from: `writes` writes among blockOps ops, sides
// evenly spread over [minSide,maxSide] and paired by a fixed shuffle.
// The template belongs to the workload, not to the seed: every run moves
// the same bytes with the same read/write mix, and the seed only orders
// each block and places its boxes. That keeps the count metrics (device
// bytes, allocations, modeled time per op) from swinging with how many
// writes or large boxes a seed happens to draw.
func sectionTemplate(writes, minSide, maxSide int) []shape {
	fixed := rand.New(rand.NewSource(1))
	side := func(i int) int { return minSide + i*(maxSide-minSide)/(blockOps-1) }
	rows, cols := fixed.Perm(blockOps), fixed.Perm(blockOps)
	t := make([]shape, blockOps)
	for i := range t {
		t[i] = shape{kind: opRead, rows: side(rows[i]), cols: side(cols[i])}
		if i < writes {
			t[i].kind = opWrite
		}
	}
	return t
}

// placeSide draws lo for a box side inside [from,to) from the given
// stratum of the valid positions, such that neither lo nor lo+side is a
// multiple of the chunk edge. Spreading a block's boxes over the strata
// covers the array, and so the servers it is striped over, evenly.
func placeSide(rng *rand.Rand, from, to, side, stratum int) (lo, hi int) {
	span := to - from - side + 1
	a, b := from+span*stratum/blockOps, from+span*(stratum+1)/blockOps
	for {
		lo = a + rng.Intn(b-a)
		if lo%chunkSide != 0 && (lo+side)%chunkSide != 0 {
			return lo, lo + side
		}
	}
}

// genSections draws n ops (a multiple of blockOps) block by block: each
// block is the template in a seeded order, its boxes placed one per
// stratum of rows [rowFrom,rowTo) and of columns [0,cols), strata and
// offsets seeded, never chunk-aligned.
func genSections(rng *rand.Rand, n, rowFrom, rowTo, cols int, template []shape) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		rs, cs := rng.Perm(blockOps), rng.Perm(blockOps)
		for k, i := range rng.Perm(blockOps) {
			t := template[i]
			var b box
			b.r0, b.r1 = placeSide(rng, rowFrom, rowTo, t.rows, rs[k])
			b.c0, b.c1 = placeSide(rng, 0, cols, t.cols, cs[k])
			o := op{kind: t.kind, box: b}
			if t.kind == opWrite {
				o.data = rng.Intn(poolBytes)
			}
			ops = append(ops, o)
		}
	}
	return ops[:n]
}

// genTimesteps draws the two ranks' op lists of collective_timestep:
// each step writes the rank's row slab of the newest win x win window
// and reads back its column slab; every 16th step extends one chunk,
// dimensions alternating, and the window slides to the new corner. The
// slab split points are seeded so sections rarely fall on chunk edges.
func genTimesteps(rng *rand.Rand, steps, win int) [][]op {
	ranks := make([][]op, 2)
	rows, cols := win, win
	for s := 0; s < steps; s++ {
		if s > 0 && s%16 == 0 {
			e := op{kind: opExtend, dim: (s / 16) % 2, by: chunkSide}
			if e.dim == 0 {
				rows += e.by
			} else {
				cols += e.by
			}
			ranks[0] = append(ranks[0], e)
			ranks[1] = append(ranks[1], e)
		}
		r0, c0 := rows-win, cols-win
		pr := win*3/8 + rng.Intn(win/4)
		pc := win*3/8 + rng.Intn(win/4)
		wr := [2]box{{r0, c0, r0 + pr, c0 + win}, {r0 + pr, c0, r0 + win, c0 + win}}
		rd := [2]box{{r0, c0, r0 + win, c0 + pc}, {r0, c0 + pc, r0 + win, c0 + win}}
		for r := range ranks {
			ranks[r] = append(ranks[r],
				op{kind: opWrite, box: wr[r], all: true, data: rng.Intn(poolBytes)},
				op{kind: opRead, box: rd[r], all: true})
		}
	}
	return ranks
}

// jitteredEdges cuts [0,n) into parts pieces whose interior edges are
// seeded and never chunk-aligned.
func jitteredEdges(rng *rand.Rand, n, parts int) []int {
	e := make([]int, parts+1)
	for i := 1; i < parts; i++ {
		e[i] = i*n/parts + 8 + rng.Intn(chunkSide-16)
	}
	e[parts] = n
	return e
}

// genSweeps draws outofcore_scan: a sweep reads 16 row bands, rewrites
// every second one collectively (write-behind only buffers collective
// writes), then reads 4 column panels. One Sync closes the pass.
func genSweeps(rng *rand.Rand, sweeps, dim int) []op {
	var ops []op
	for s := 0; s < sweeps; s++ {
		re := jitteredEdges(rng, dim, 16)
		for i := 0; i < 16; i++ {
			b := box{re[i], 0, re[i+1], dim}
			ops = append(ops, op{kind: opRead, box: b})
			if i%2 == 1 {
				ops = append(ops, op{kind: opWrite, box: b, all: true, data: rng.Intn(poolBytes)})
			}
		}
		ce := jitteredEdges(rng, dim, 4)
		for i := 0; i < 4; i++ {
			ops = append(ops, op{kind: opRead, box: box{0, ce[i], dim, ce[i+1]}})
		}
	}
	return append(ops, op{kind: opSync})
}
