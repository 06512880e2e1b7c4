package pfs

import "math/bits"

// HistBuckets is the bucket count of Hist. Bucket i counts observations
// v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1); the last bucket
// absorbs everything larger. 40 buckets cover every request size and
// service latency the simulator can produce.
const HistBuckets = 40

// Hist is a fixed power-of-two bucket histogram, the request-level
// accounting of sizes and service times. It is a plain value:
// copy, add, and subtract like the counters in ServerStats.
type Hist struct {
	N [HistBuckets]int64
}

// Observe counts one observation (non-positive values land in bucket 0).
func (h *Hist) Observe(v int64) {
	b := 0
	if v > 1 {
		b = bits.Len64(uint64(v - 1))
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.N[b]++
}

// Total returns the observation count.
func (h Hist) Total() int64 {
	var n int64
	for _, c := range h.N {
		n += c
	}
	return n
}

// Counts returns the bucket counts; bucket i has upper bound 2^i.
func (h Hist) Counts() []int64 {
	out := make([]int64, HistBuckets)
	copy(out, h.N[:])
	return out
}

// Quantile returns an upper bound on the p-quantile of the observed
// values: the bucket upper bound (2^i for bucket i, 1 for bucket 0) of
// the first bucket at which the cumulative count reaches ceil(p * N).
// p is clamped to [0, 1]; an empty histogram returns 0. This is the
// resolution the power-of-two buckets afford — within a factor of two
// of the exact order statistic — which is exactly enough for the
// adaptive sieve controller, whose outputs are rounded to stripe
// multiples anyway.
func (h Hist) Quantile(p float64) int64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(p * float64(total))
	if float64(target) < p*float64(total) || target == 0 {
		target++ // ceil, and at least one observation
	}
	var cum int64
	for i, c := range h.N {
		cum += c
		if cum >= target {
			if i == 0 {
				return 1
			}
			return 1 << uint(i)
		}
	}
	return 1 << uint(HistBuckets-1)
}

// Mean returns the approximate mean of the observed values, using each
// bucket's geometric midpoint — bucket 0 (v <= 1) counts as 1, bucket i
// as the midpoint of (2^(i-1), 2^i]. An empty histogram returns 0.
func (h Hist) Mean() float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.N {
		if c == 0 {
			continue
		}
		rep := 1.0
		if i > 0 {
			rep = 1.5 * float64(int64(1)<<uint(i-1))
		}
		sum += rep * float64(c)
	}
	return sum / float64(total)
}

// Merge adds o's counts into h (aggregation across servers).
func (h *Hist) Merge(o Hist) {
	for i := range h.N {
		h.N[i] += o.N[i]
	}
}

// Sub returns h - o bucket-wise (phase measurement, like Stats.Sub).
func (h Hist) Sub(o Hist) Hist {
	for i := range h.N {
		h.N[i] -= o.N[i]
	}
	return h
}
