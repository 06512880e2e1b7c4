// Package place carves collective-I/O aggregation domains: given the
// byte span a collective touches, the carving decides how many
// aggregators serve it and which aggregator owns each file byte. Both
// phases of the two-phase exchange consult the same Domains object, so
// "which rank is responsible for these bytes" has exactly one answer
// per collective.
//
// The carving is a pure function of replicated state (the allgathered
// span and the stripe): every rank computes the identical Domains with
// no extra communication.
package place

import "drxmp/internal/pfs"

// Req describes one carving request. Lo/Hi bound the union byte span
// the collective touches and TotalBytes is the payload volume, which
// sets the aggregator count — all replicated, so every rank builds an
// identical Req.
type Req struct {
	Lo, Hi     int64
	TotalBytes int64
	// Ranks is the communicator size; owners returned by the carving
	// are rank indices in [0, Ranks).
	Ranks int
	// Stripe is the parallel file system stripe size.
	Stripe int64
	// Runs is the allgathered per-rank run set. The carving ignores it;
	// it is kept because the benchmark's layer replay (bench/layers.go)
	// fills it.
	Runs [][]pfs.Run
}

// Domains is one carving: a partition of the file span into owned
// regions. Owner and BlockEnd must be consistent — for every offset,
// bytes [off, BlockEnd(off)) share Owner(off) — and BlockEnd must make
// progress (BlockEnd(off) > off).
type Domains interface {
	// N is the number of aggregation domains (distinct owners are in
	// [0, N)).
	N() int
	// Owner returns the rank that owns the byte at off.
	Owner(off int64) int
	// BlockEnd returns the first offset past off where ownership may
	// change.
	BlockEnd(off int64) int64
}

// ByteCyclic carves by byte arithmetic alone: a stripe-aligned
// partition of the collective's own span into contiguous domains, the
// last of which takes the tail. The aggregator count is the
// rule clamp(TotalBytes/Stripe, 1, Ranks): one aggregator per stripe of
// payload, so small transfers coalesce onto few aggregators while large
// ones keep every rank busy.
type ByteCyclic struct{}

// Carve carves the domains of one collective.
func (ByteCyclic) Carve(r Req) Domains {
	n := int(max(min(r.TotalBytes/r.Stripe, int64(r.Ranks)), 1))
	alo := (r.Lo / r.Stripe) * r.Stripe
	span := r.Hi - alo
	per := (span + int64(n) - 1) / int64(n)
	per = (per + r.Stripe - 1) / r.Stripe * r.Stripe
	if per < r.Stripe {
		per = r.Stripe
	}
	return spanDomains{lo: alo, per: per, n: n}
}

// spanDomains partitions [lo, ∞) into n contiguous per-sized domains;
// the last domain extends to the end of the span.
type spanDomains struct {
	lo, per int64
	n       int
}

func (d spanDomains) N() int { return d.n }
func (d spanDomains) Owner(off int64) int {
	o := int((off - d.lo) / d.per)
	if o >= d.n {
		o = d.n - 1
	}
	return o
}
func (d spanDomains) BlockEnd(off int64) int64 {
	o := d.Owner(off)
	if o == d.n-1 {
		// The tail domain is unbounded: callers clip to their run.
		return maxOff
	}
	return d.lo + int64(o+1)*d.per
}

const maxOff = int64(1)<<62 - 1
