package serve

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseBox feeds parseBox the lo/hi query strings of a section
// request against an array of rank 1–4 with arbitrary bounds: it must
// never panic, and either reject the pair or return a box of that rank
// with 0 ≤ lo ≤ hi ≤ bounds on every axis whose corners, rendered back
// to query strings, parse to the same box. The seed corpus lives in
// testdata/fuzz/FuzzParseBox.
func FuzzParseBox(f *testing.F) {
	f.Fuzz(func(t *testing.T, lo, hi string, r uint8, b0, b1, b2, b3 uint16) {
		rank := 1 + int(r%4)
		bounds := []int{int(b0), int(b1), int(b2), int(b3)}[:rank]
		box, err := parseBox(lo, hi, rank, bounds)
		if err != nil {
			return
		}
		if box.Rank() != rank {
			t.Fatalf("parseBox(%q, %q) = %v, rank %d, want %d", lo, hi, box, box.Rank(), rank)
		}
		for i := range bounds {
			if box.Lo[i] < 0 || box.Hi[i] < box.Lo[i] || box.Hi[i] > bounds[i] {
				t.Fatalf("parseBox(%q, %q) = %v, outside bounds %v on axis %d", lo, hi, box, bounds, i)
			}
		}
		again, err := parseBox(renderCorner(box.Lo), renderCorner(box.Hi), rank, bounds)
		if err != nil {
			t.Fatalf("re-rendered %v rejected: %v", box, err)
		}
		if !again.Equal(box) {
			t.Fatalf("re-rendered %v parses to %v", box, again)
		}
	})
}

// renderCorner is parseCorner's inverse: comma-separated decimals.
func renderCorner(c []int) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}
