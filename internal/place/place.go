// Package place carves collective-I/O aggregation domains: given the
// byte span a collective touches, the carving decides how many
// aggregators serve it and which aggregator owns each file byte. The
// two-phase exchange and the write-behind watermark consult the same
// Domains object, so "which rank is responsible for these bytes" has
// exactly one answer per collective.
//
// The carving is a pure function of replicated state (the allgathered
// span and the shared tuning knobs): every rank computes the identical
// Domains with no extra communication.
package place

import "drxmp/internal/pfs"

// Req describes one carving request. Lo/Hi bound the union byte span
// the collective touches and TotalBytes is the payload volume — all
// replicated, so every rank builds an identical Req.
type Req struct {
	Lo, Hi     int64
	TotalBytes int64
	// Ranks is the communicator size; owners returned by the carving
	// are rank indices in [0, Ranks).
	Ranks int
	// CBNodes is the aggregator-count knob, verbatim: >0 caps the
	// count, <0 forces one aggregator per rank, 0 lets the carving
	// pick.
	CBNodes int
	// Stripe is the parallel file system stripe size.
	Stripe int64
	// WriteBehind reports whether the handle buffers writes behind a
	// dirty-extent cache (ByteCyclic carves block-cyclic in that mode
	// so successive unions merge server-aligned).
	WriteBehind bool
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

// resolveN applies the CBNodes knob: an explicit cap wins, -1 means
// every rank aggregates, and 0 defers to the adaptive count want.
func resolveN(r Req, want int) int {
	n := want
	switch {
	case r.CBNodes > 0:
		n = r.CBNodes
	case r.CBNodes < 0:
		n = r.Ranks
	}
	if n > r.Ranks {
		n = r.Ranks
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ByteCyclic carves by byte arithmetic alone: under write-behind,
// file-aligned block-cyclic stripes — the same aggregator owns the same
// file stripes in EVERY collective, so dirty unions absorbed across
// successive collectives merge into growing extents and, because
// stripe u lands on server u mod S, flush as server-aligned ascending
// sweeps; otherwise a stripe-aligned partition of the collective's own
// span whose last domain absorbs the tail. The adaptive aggregator
// count is clamp(TotalBytes/Stripe, 1, Ranks): one aggregator per
// stripe of payload, so small transfers coalesce onto few aggregators
// while large ones keep every rank busy.
type ByteCyclic struct{}

// Carve carves the domains of one collective.
func (ByteCyclic) Carve(r Req) Domains {
	adaptive := int(r.TotalBytes / r.Stripe)
	if adaptive < 1 {
		adaptive = 1
	}
	n := resolveN(r, adaptive)
	if r.WriteBehind {
		return cyclicDomains{per: r.Stripe, n: n}
	}
	alo := (r.Lo / r.Stripe) * r.Stripe
	span := r.Hi - alo
	per := (span + int64(n) - 1) / int64(n)
	per = (per + r.Stripe - 1) / r.Stripe * r.Stripe
	if per < r.Stripe {
		per = r.Stripe
	}
	return spanDomains{lo: alo, per: per, n: n}
}

// cyclicDomains assigns file-aligned per-sized blocks round-robin.
type cyclicDomains struct {
	per int64
	n   int
}

func (d cyclicDomains) N() int              { return d.n }
func (d cyclicDomains) Owner(off int64) int { return int((off / d.per) % int64(d.n)) }
func (d cyclicDomains) BlockEnd(off int64) int64 {
	return (off/d.per + 1) * d.per
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
