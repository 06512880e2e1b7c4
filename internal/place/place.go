// Package place carves collective-I/O aggregation domains: given the
// byte span a collective touches, a placement policy decides how many
// aggregators serve it and which aggregator owns each file byte. The
// two-phase exchange, the write-behind watermark, and the elected
// per-region flush sweep all consult the same Domains object, so
// "which rank is responsible for these bytes" has exactly one answer
// per collective.
//
// Policies are pure functions of replicated state (the allgathered run
// set, the shared tuning knobs, and the replicated chunk geometry):
// every rank computes the identical carving with no extra
// communication, which is what lets flush election ride on the agree
// round the collective already pays.
//
// Three policies are provided:
//
//   - ByteCyclic: pure byte arithmetic (span-partition for plain
//     collectives, file-aligned block-cyclic under write-behind). The
//     default policy: it needs no chunk geometry.
//   - ZoneCurve: domains follow chunk zones. The chunks the collective
//     touches are ordered along a zone curve (Morton order over chunk
//     coordinates, zone.CurveKey) and cut into payload-balanced,
//     curve-contiguous groups, so each aggregator's domain is a
//     locality cluster of whole chunks instead of a raw byte stripe.
//   - CacheAffinity: a sticky, span-independent assignment keyed on
//     chunk coordinates. The whole chunk grid is cut once along the
//     zone curve into one region per rank; every collective that
//     touches a chunk re-elects the same aggregator, so repeated
//     collectives land on the rank whose extent cache already holds
//     the bytes, and region ownership is stable enough to hang flush
//     election off.
package place

import (
	"sort"

	"drxmp/internal/pfs"
	"drxmp/internal/zone"
)

// Geometry exposes the replicated chunk layout of the file to
// chunk-aware policies. Chunk linear address q occupies file bytes
// [q*ChunkBytes(), (q+1)*ChunkBytes()). Implementations must be safe
// for concurrent read-only use (the array's Space already is, absent a
// concurrent Extend, which the collective contract forbids).
type Geometry interface {
	// ChunkBytes is the fixed byte size of one chunk.
	ChunkBytes() int64
	// Chunks is the number of allocated chunks; the file spans
	// [0, Chunks()*ChunkBytes()).
	Chunks() int64
	// Coords maps a chunk linear address to its grid coordinates
	// (the extendible array's F*⁻¹).
	Coords(q int64) ([]int, error)
	// Bounds is the current chunk-grid shape.
	Bounds() []int
}

// Req describes one carving request. Lo/Hi bound the union byte span
// the collective touches, TotalBytes is the payload volume, and Runs
// (optional) is the per-rank run set — all replicated, so every rank
// builds an identical Req.
type Req struct {
	Lo, Hi     int64
	TotalBytes int64
	// Ranks is the communicator size; owners returned by the carving
	// are rank indices in [0, Ranks).
	Ranks int
	// CBNodes is the aggregator-count knob, verbatim: >0 caps the
	// count, <0 forces one aggregator per rank, 0 lets the policy
	// pick.
	CBNodes int
	// Stripe is the parallel file system stripe size.
	Stripe int64
	// WriteBehind reports whether the handle buffers writes behind a
	// dirty-extent cache (ByteCyclic carves block-cyclic in that mode
	// so successive unions merge server-aligned).
	WriteBehind bool
	// Geom is the chunk geometry, or nil when the caller has none;
	// chunk-aware policies fall back to ByteCyclic without it.
	Geom Geometry
	// Runs is the allgathered per-rank run set (may be nil); policies
	// use it to balance domains by touched payload.
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

// Policy carves aggregation domains for collective requests. Carve
// must be deterministic: identical Reqs yield identical Domains on
// every rank.
type Policy interface {
	// Name is the stable knob spelling of the policy
	// ("byte-cyclic", "zone-curve", "cache-affinity").
	Name() string
	Carve(Req) Domains
}

// resolveN applies the CBNodes knob: an explicit cap wins, -1 means
// every rank aggregates, and 0 defers to the policy's own limit want.
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

// Name implements Policy.
func (ByteCyclic) Name() string { return "byte-cyclic" }

// Carve implements Policy.
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

// chunkDomains owns whole chunks: owner[q-base] is the rank owning
// chunk q. Offsets outside the covered range clamp to the nearest
// covered chunk, so the partition is total even if the caller's span
// estimate was stale.
type chunkDomains struct {
	cb    int64
	base  int64
	owner []int32
	n     int
}

func (d chunkDomains) N() int { return d.n }
func (d chunkDomains) at(q int64) int {
	i := q - d.base
	if i < 0 {
		i = 0
	}
	if i >= int64(len(d.owner)) {
		i = int64(len(d.owner)) - 1
	}
	return int(d.owner[i])
}
func (d chunkDomains) Owner(off int64) int { return d.at(off / d.cb) }
func (d chunkDomains) BlockEnd(off int64) int64 {
	q := off / d.cb
	end := (q + 1) * d.cb
	// Extend across same-owner chunks so callers split runs into
	// region-sized pieces, not chunk-sized ones.
	o := d.at(q)
	for q+1-d.base < int64(len(d.owner)) && d.at(q+1) == o {
		q++
		end += d.cb
	}
	return end
}

// curveChunk is one chunk on the zone curve.
type curveChunk struct {
	q   int64
	key uint64
}

// curveOrder returns the chunks [qlo, qhi] sorted along the zone
// curve (Morton key, chunk address as the tiebreak). ok is false when
// the geometry cannot resolve a coordinate (caller falls back).
func curveOrder(g Geometry, qlo, qhi int64) ([]curveChunk, bool) {
	bounds := g.Bounds()
	out := make([]curveChunk, 0, qhi-qlo+1)
	for q := qlo; q <= qhi; q++ {
		c, err := g.Coords(q)
		if err != nil {
			return nil, false
		}
		out = append(out, curveChunk{q: q, key: zone.CurveKey(c, bounds)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].q < out[j].q
	})
	return out, true
}

// touchedPerChunk sums the payload bytes each chunk receives from the
// replicated run set. Chunks nobody touches weigh zero and ride along
// with their curve neighbors.
func touchedPerChunk(runs [][]pfs.Run, cb, qlo, qhi int64) []int64 {
	w := make([]int64, qhi-qlo+1)
	for _, rr := range runs {
		for _, r := range rr {
			off, n := r.Off, r.Len
			for n > 0 {
				q := off / cb
				end := (q + 1) * cb
				take := end - off
				if take > n {
					take = n
				}
				if q >= qlo && q <= qhi {
					w[q-qlo] += take
				}
				off += take
				n -= take
			}
		}
	}
	return w
}

// carveCurve cuts a curve-ordered chunk list into n contiguous groups
// balanced by weight (uniform weight when total is zero) and returns
// the per-chunk owner table for [qlo, qhi].
func carveCurve(order []curveChunk, weight []int64, qlo int64, n int) []int32 {
	owner := make([]int32, len(order))
	var total int64
	for _, w := range weight {
		total += w
	}
	if total == 0 {
		// Weightless: balance by chunk count.
		for i := range order {
			owner[order[i].q-qlo] = int32(i * n / len(order))
		}
		return owner
	}
	var acc int64
	g := 0
	for _, c := range order {
		// Cut before this chunk if the running payload has filled
		// group g's fair share.
		for g < n-1 && acc >= (int64(g)+1)*total/int64(n) {
			g++
		}
		owner[c.q-qlo] = int32(g)
		acc += weight[c.q-qlo]
	}
	return owner
}

// ZoneCurve carves domains out of whole chunks ordered along the zone
// curve: the chunks a collective touches are cut into curve-contiguous,
// payload-balanced groups, so each aggregator's domain is a spatial
// cluster of chunks rather than a byte stripe. Falls back to
// ByteCyclic when no geometry is available.
type ZoneCurve struct{}

// Name implements Policy.
func (ZoneCurve) Name() string { return "zone-curve" }

// Carve implements Policy.
func (ZoneCurve) Carve(r Req) Domains {
	g := r.Geom
	if g == nil || r.Hi <= r.Lo {
		return ByteCyclic{}.Carve(r)
	}
	cb := g.ChunkBytes()
	if cb <= 0 {
		return ByteCyclic{}.Carve(r)
	}
	qlo := r.Lo / cb
	qhi := (r.Hi - 1) / cb
	m := qhi - qlo + 1
	order, ok := curveOrder(g, qlo, qhi)
	if !ok {
		return ByteCyclic{}.Carve(r)
	}
	want := int(m)
	if int64(want) != m { // absurd chunk counts: clamp
		want = r.Ranks
	}
	n := resolveN(r, want)
	weight := touchedPerChunk(r.Runs, cb, qlo, qhi)
	return chunkDomains{
		cb:    cb,
		base:  qlo,
		owner: carveCurve(order, weight, qlo, n),
		n:     n,
	}
}

// CacheAffinity is the sticky assignment: the whole chunk grid is cut
// once along the zone curve into one curve-contiguous region per rank,
// independent of the request span. Every collective touching a chunk
// elects the same aggregator for it, so the shared extent cache
// behaves like a per-aggregator shard cache on repeated collectives,
// and flush election can treat region ownership as static between
// extends. Falls back to ByteCyclic when no geometry is available.
type CacheAffinity struct{}

// Name implements Policy.
func (CacheAffinity) Name() string { return "cache-affinity" }

// Carve implements Policy.
func (CacheAffinity) Carve(r Req) Domains {
	g := r.Geom
	if g == nil {
		return ByteCyclic{}.Carve(r)
	}
	cb := g.ChunkBytes()
	total := g.Chunks()
	if cb <= 0 || total <= 0 {
		return ByteCyclic{}.Carve(r)
	}
	order, ok := curveOrder(g, 0, total-1)
	if !ok {
		return ByteCyclic{}.Carve(r)
	}
	want := int(total)
	if int64(want) != total {
		want = r.Ranks
	}
	n := resolveN(r, want)
	// Span-independent: groups balance by chunk count over the FULL
	// grid, never by this request's payload — stickiness is the point.
	owner := make([]int32, total)
	for i := range order {
		owner[order[i].q] = int32(i * n / len(order))
	}
	return chunkDomains{cb: cb, base: 0, owner: owner, n: n}
}
