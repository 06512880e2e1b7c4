package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func sum(v []float64) (t float64) {
	for _, x := range v {
		t += x
	}
	return t
}

// median returns the middle value of v (mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method),
// so spreads here match the ones the acceptance driver measures.
// It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// relIQR is the inter-quartile range of v as a share of its median.
func relIQR(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

// p95 returns the 95th percentile of v and whether the sample supports
// it: a percentile is reported only with at least ten samples beyond it.
func p95(v []float64) (float64, bool) {
	if len(v) < 200 {
		return 0, false
	}
	s := sorted(v)
	return s[len(s)*95/100], true
}

// histQuantile interpolates the p-quantile from power-of-two bucket
// counts (bucket i holds values in (2^(i-1), 2^i], bucket 0 values <= 1),
// so the result moves with the data instead of snapping to a power of
// two.
func histQuantile(counts []int64, p float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := p * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return math.Ldexp(1, len(counts)-1)
}
