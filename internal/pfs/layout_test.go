package pfs

import (
	"math/rand"
	"testing"
)

// unitsOn returns the logical offsets of the first n stripe units that
// fs's layout puts on server s, ascending.
func unitsOn(fs *FS, s, n int) []int64 {
	var offs []int64
	for off := int64(0); len(offs) < n; off += fs.opts.StripeSize {
		if srv, _ := fs.locate(off); srv == s {
			offs = append(offs, off)
		}
	}
	return offs
}

// TestRowLayout draws stores of 2-16 servers, parity 1..servers-1 and
// random stripes, and checks the row layout: a row's shards sit on
// distinct servers at one local offset, locate and holeRuns invert each
// other over every byte of the first rows, every server holds coded
// units in m of any n consecutive rows, and without parity stripe unit
// u lives on server u mod n.
func TestRowLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for try := 0; try < 200; try++ {
		n := 2 + rng.Intn(15)
		m := 1 + rng.Intn(n-1)
		k := n - m
		stripe := int64(1 + rng.Intn(40))
		fs := &FS{opts: Options{Servers: n, Parity: m, StripeSize: stripe}}
		rows := int64(2*n + 3)
		d := &dispatch{}

		for r := int64(0); r < rows; r++ {
			seen := make([]bool, n)
			for i := 0; i < n; i++ {
				s := fs.serverOf(r, i)
				if s < 0 || s >= n || seen[s] {
					t.Fatalf("n=%d m=%d: row %d puts shard %d on server %d, out of range or taken", n, m, r, i, s)
				}
				seen[s] = true
				if got := fs.shardOf(r, s); got != i {
					t.Fatalf("n=%d m=%d: row %d: server %d holds shard %d, shardOf says %d", n, m, r, s, i, got)
				}
				if i < k {
					if ls, lo := fs.locate((r*int64(k) + int64(i)) * stripe); ls != s || lo != r*stripe {
						t.Fatalf("n=%d m=%d: row %d shard %d: locate gives server %d offset %d, want %d and %d", n, m, r, i, ls, lo, s, r*stripe)
					}
				}
			}
		}

		for off := int64(0); off < rows*int64(k)*stripe; off++ {
			s, lo := fs.locate(off)
			if runs := fs.holeRuns(d, int32(s), lo, 1); len(runs) != 1 || runs[0] != (Run{Off: off, Len: 1}) {
				t.Fatalf("n=%d m=%d stripe=%d: byte %d is at server %d offset %d, which holeRuns maps to %v", n, m, stripe, off, s, lo, runs)
			}
		}
		for s := 0; s < n; s++ {
			for lo := int64(0); lo < rows*stripe; lo++ {
				if fs.shardOf(lo/stripe, s) >= k {
					continue
				}
				runs := fs.holeRuns(d, int32(s), lo, 1)
				if ls, llo := fs.locate(runs[0].Off); ls != s || llo != lo {
					t.Fatalf("n=%d m=%d stripe=%d: server %d offset %d is byte %d, which locate puts at server %d offset %d", n, m, stripe, s, lo, runs[0].Off, ls, llo)
				}
			}
		}

		for first := int64(0); first+int64(n) <= rows; first++ {
			for s := 0; s < n; s++ {
				coded := 0
				for r := first; r < first+int64(n); r++ {
					if fs.shardOf(r, s) >= k {
						coded++
					}
				}
				if coded != m {
					t.Fatalf("n=%d m=%d: server %d holds coded units in %d of rows %d..%d, want %d", n, m, s, coded, first, first+int64(n)-1, m)
				}
			}
		}

		plain := &FS{opts: Options{Servers: n, StripeSize: stripe}}
		for off := int64(0); off < rows*int64(n)*stripe; off++ {
			unit := off / stripe
			if s, lo := plain.locate(off); s != int(unit%int64(n)) || lo != unit/int64(n)*stripe+off%stripe {
				t.Fatalf("n=%d stripe=%d, no parity: byte %d at server %d offset %d, want server %d offset %d",
					n, stripe, off, s, lo, unit%int64(n), unit/int64(n)*stripe+off%stripe)
			}
		}
	}
}
