// Package tune derives data-sieving parameters from observed workload
// statistics — the online half of the tiered extent cache. The pfs
// servers already histogram every request size (pfs.Hist); Recommend
// closes the loop by turning a window of those histograms plus the
// cache's own sequentiality counters into the sieve block and
// read-ahead the cache should run next, replacing
// the static stripe-derived defaults with values matched to what the
// workload is actually asking for.
package tune

import "drxmp/internal/pfs"

// MinSamples is the smallest request window Recommend will act on —
// below it the histogram is noise and the recommendation is withheld
// (the caller keeps its current values and keeps accumulating).
const MinSamples = 8

// MaxSieveStripes caps the sieve block at this many stripes, so one
// speculative fetch can neither monopolize the cache budget nor turn
// into a single monolithic server request.
const MaxSieveStripes = 16

// Input is one observation window.
type Input struct {
	ReqSizes pfs.Hist // server request sizes observed in the window
	Seq      int64    // cache reads that continued the previous request
	Rand     int64    // cache reads that jumped
	Stripe   int64    // server stripe size (the alignment floor)
	Budget   int64    // cache memory budget (caps the sieve block)
}

// Output is the recommended policy.
type Output struct {
	Sieve     int64 // sieve block size, a positive stripe multiple
	ReadAhead int64 // read-ahead bytes, a whole number of sieve blocks
}

// Recommend derives the sieve block from the p90 request size, rounded
// up to a stripe multiple — the block should cover the common request
// in one server-aligned fetch, and the power-of-two histogram's
// factor-of-two quantile resolution disappears into that rounding —
// and the read-ahead from the observed sequentiality: round(4 * the
// sequential fraction) extra blocks, so a pure forward scan prefetches
// four blocks deep and a random workload prefetches nothing. The sieve
// is clamped to [stripe, min(MaxSieveStripes * stripe, budget/4)] so a
// burst of huge requests cannot make one block swallow the cache.
// Reports false when the window is too small to trust.
func Recommend(in Input) (Output, bool) {
	if in.Stripe <= 0 || in.ReqSizes.Total() < MinSamples {
		return Output{}, false
	}
	p90 := in.ReqSizes.Quantile(0.9)
	sieve := ((p90 + in.Stripe - 1) / in.Stripe) * in.Stripe
	maxS := MaxSieveStripes * in.Stripe
	if in.Budget > 0 {
		if cap := in.Budget / 4 / in.Stripe * in.Stripe; cap < maxS {
			maxS = cap
		}
	}
	if maxS < in.Stripe {
		maxS = in.Stripe
	}
	if sieve < in.Stripe {
		sieve = in.Stripe
	}
	if sieve > maxS {
		sieve = maxS
	}
	var blocks int64
	if t := in.Seq + in.Rand; t > 0 {
		blocks = (4*in.Seq + t/2) / t // round(4 * seq/total)
	}
	return Output{Sieve: sieve, ReadAhead: sieve * blocks}, true
}
