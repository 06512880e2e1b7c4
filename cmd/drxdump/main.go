// Command drxdump inspects a DRX extendible array file pair
// (<path>.xmd + <path>.xta...): metadata, stripe layout, axial vectors,
// chunk map, and an optional consistency check of the mapping function.
//
// Usage:
//
//	drxdump [-json] [-grid] [-check] <path>
package main

import (
	"flag"
	"fmt"
	"os"

	"drxmp/internal/grid"
	"drxmp/internal/meta"
)

func main() {
	jsonOut := flag.Bool("json", false, "dump metadata as JSON")
	gridOut := flag.Bool("grid", false, "print the chunk-address grid (rank 2 only)")
	check := flag.Bool("check", false, "verify the mapping function is a bijection")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: drxdump [-json] [-grid] [-check] <path>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	blob, err := os.ReadFile(path + ".xmd")
	if err != nil {
		fatal(err)
	}
	m, err := meta.Decode(blob)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		out, err := m.MarshalJSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Printf("array      : %s\n", path)
		fmt.Printf("dtype      : %v\n", m.DType)
		fmt.Printf("chunk order: %v\n", m.MemOrder)
		fmt.Printf("chunk shape: %v (%d bytes)\n", m.ChunkShape, m.ChunkBytes())
		fmt.Printf("elem bounds: %v\n", m.ElemBounds)
		fmt.Printf("format     : .xmd v%d\n", meta.Version)
		l := m.Layout
		if l.Parity == 0 {
			fmt.Printf("layout     : %d servers, stripe %s, no parity\n", l.Servers, bytesHuman(l.StripeSize))
		} else {
			fmt.Printf("layout     : %d servers, stripe %s; rows of %d data + %d coded units, rotated one server a row\n",
				l.Servers, bytesHuman(l.StripeSize), l.Servers-l.Parity, l.Parity)
		}
		fmt.Printf("chunk grid : %v (%d chunks, %s data)\n", m.Space.Bounds(), m.Space.Total(), bytesHuman(m.FileBytes()))
		fmt.Printf("axial records: %d\n", m.Space.NumRecords())
		fmt.Print(m.Space.Dump())
	}

	if *gridOut {
		if m.Rank() != 2 {
			fmt.Fprintln(os.Stderr, "drxdump: -grid requires a rank-2 array")
			os.Exit(2)
		}
		b := m.Space.Bounds()
		width := len(fmt.Sprint(m.Space.Total() - 1))
		for i := 0; i < b[0]; i++ {
			for j := 0; j < b[1]; j++ {
				q, err := m.Space.Map([]int{i, j})
				if err != nil {
					fatal(err)
				}
				if j > 0 {
					fmt.Print(" ")
				}
				fmt.Printf("%*d", width, q)
			}
			fmt.Println()
		}
	}

	if *check {
		seen := make(map[int64]bool, m.Space.Total())
		ok := true
		idx := make([]int, m.Rank())
		grid.BoxOf(grid.Shape(m.Space.Bounds())).Iterate(grid.RowMajor, func(ci []int) bool {
			q, err := m.Space.Map(ci)
			if err != nil || q < 0 || q >= m.Space.Total() || seen[q] {
				fmt.Fprintf(os.Stderr, "drxdump: mapping broken at %v (q=%d, err=%v)\n", ci, q, err)
				ok = false
				return false
			}
			seen[q] = true
			inv, err := m.Space.Inverse(q, idx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "drxdump: inverse broken at %d: %v\n", q, err)
				ok = false
				return false
			}
			for d := range inv {
				if inv[d] != ci[d] {
					fmt.Fprintf(os.Stderr, "drxdump: inverse(%d) = %v, want %v\n", q, inv, ci)
					ok = false
					return false
				}
			}
			return true
		})
		if ok {
			fmt.Printf("check: OK — F* is a bijection over %d chunks and F*⁻¹ inverts it\n", m.Space.Total())
		} else {
			os.Exit(1)
		}
	}
}

func bytesHuman(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drxdump:", err)
	os.Exit(1)
}
