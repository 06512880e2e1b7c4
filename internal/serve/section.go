package serve

import (
	"fmt"
	"strconv"
	"strings"

	"drxmp/internal/grid"
)

// parseCorner parses a comma-separated index list ("0,16,32") of the
// given rank.
func parseCorner(s string, rank int) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("missing corner")
	}
	parts := strings.Split(s, ",")
	if len(parts) != rank {
		return nil, fmt.Errorf("corner %q has %d coordinates, array rank is %d", s, len(parts), rank)
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("corner %q: %v", s, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseBox parses lo/hi query strings into a half-open box validated
// against the array bounds.
func parseBox(lo, hi string, rank int, bounds []int) (grid.Box, error) {
	l, err := parseCorner(lo, rank)
	if err != nil {
		return grid.Box{}, fmt.Errorf("lo: %v", err)
	}
	h, err := parseCorner(hi, rank)
	if err != nil {
		return grid.Box{}, fmt.Errorf("hi: %v", err)
	}
	b := grid.NewBox(l, h)
	for i := range l {
		if l[i] < 0 || h[i] < l[i] || h[i] > bounds[i] {
			return grid.Box{}, fmt.Errorf("box %v outside bounds %v", b, bounds)
		}
	}
	return b, nil
}

// alignBox rounds box out to whole chunks, clipped to the array
// bounds — the single-flight fill granularity. Requests that touch the
// same chunk set share one key, so K concurrent cold readers of the
// same (or chunk-equivalent) section block on one fetcher.
func alignBox(box grid.Box, chunk, bounds []int) grid.Box {
	lo := make([]int, len(bounds))
	hi := make([]int, len(bounds))
	for i := range bounds {
		lo[i] = box.Lo[i] / chunk[i] * chunk[i]
		hi[i] = min((box.Hi[i]+chunk[i]-1)/chunk[i]*chunk[i], bounds[i])
	}
	return grid.NewBox(lo, hi)
}

// boundingBox is the smallest box containing a and b (the merge step of
// the coalescer's clustering).
func boundingBox(a, b grid.Box) grid.Box {
	lo := make([]int, a.Rank())
	hi := make([]int, a.Rank())
	for i := range lo {
		lo[i] = min(a.Lo[i], b.Lo[i])
		hi[i] = max(a.Hi[i], b.Hi[i])
	}
	return grid.NewBox(lo, hi)
}

// sliceSection copies sub-box dst out of buf, dense over src in
// RowMajor order, into out, dense over dst in the requested order.
// src must contain dst; out holds dst.Volume()*es bytes and every one
// of them is written, so it may come from a pool.
func sliceSection(out, buf []byte, src, dst grid.Box, es int64, order grid.Order) {
	srcStrides := grid.Strides(src.Shape(), grid.RowMajor)
	dstStrides := grid.Strides(dst.Shape(), order)
	inner := dst.Rank() - 1 // RowMajor rows vary in the last dimension
	dst.Rows(grid.RowMajor, func(start []int, n int) bool {
		var srcOff, dstOff int64
		for d := range start {
			srcOff += int64(start[d]-src.Lo[d]) * srcStrides[d]
			dstOff += int64(start[d]-dst.Lo[d]) * dstStrides[d]
		}
		s := buf[srcOff*es : (srcOff+int64(n))*es]
		if stride := dstStrides[inner]; stride == 1 {
			copy(out[dstOff*es:], s)
		} else {
			for e := int64(0); e < int64(n); e++ {
				copy(out[(dstOff+e*stride)*es:(dstOff+e*stride)*es+es], s[e*es:(e+1)*es])
			}
		}
		return true
	})
}
