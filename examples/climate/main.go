// Climate: the motivating workload of the paper's introduction — a
// dataset (time × lat × lon) that "grows incrementally over time" as
// observations arrive, processed by a parallel program.
//
// Four ranks cooperate: at each simulated day the array is extended
// along the time dimension (a collective, metadata-only operation) and
// each rank writes its latitude band of the new day collectively.
// Afterwards, a single-cell time series — the access pattern that kills
// one-dimension-extendible formats when time is not the record
// dimension — is read back and verified.
//
// Run with:
//
//	go run ./examples/climate
package main

import (
	"fmt"
	"log"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

const (
	ranks = 4
	nLat  = 32
	nLon  = 64
	days  = 10
)

// observe fabricates the measurement for (day, lat, lon).
func observe(day, lat, lon int) float64 {
	return float64(day)*1e4 + float64(lat)*1e2 + float64(lon)
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go runs it.
func run() error {
	return cluster.Run(ranks, func(c *cluster.Comm) error {
		// Start with a single day of capacity; time will grow.
		f, err := drxmp.Create(c, "climate", drxmp.Options{
			DType:      drxmp.Float64,
			ChunkShape: []int{1, 8, 16}, // one day per chunk slab
			Bounds:     []int{1, nLat, nLon},
			FS:         pfs.Options{Servers: 4, StripeSize: 32 << 10},
		})
		if err != nil {
			return err
		}
		defer f.Close()

		latPerRank := nLat / ranks
		myLat0 := c.Rank() * latPerRank

		for day := 0; day < days; day++ {
			// Day 0 fits the initial bounds; afterwards extend time by 1.
			if day > 0 {
				if err := f.Extend(0, 1); err != nil {
					return err
				}
			}
			// Each rank writes its latitude band of today's observations.
			box := drxmp.NewBox(
				[]int{day, myLat0, 0},
				[]int{day + 1, myLat0 + latPerRank, nLon},
			)
			vals := make([]float64, box.Volume())
			i := 0
			for lat := myLat0; lat < myLat0+latPerRank; lat++ {
				for lon := 0; lon < nLon; lon++ {
					vals[i] = observe(day, lat, lon)
					i++
				}
			}
			if err := f.WriteSectionFloat64s(box, vals, drxmp.RowMajor); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 && (day == 0 || day == days-1) {
				fmt.Printf("day %2d ingested: bounds=%v chunks=%d\n", day, f.Bounds(), f.Chunks())
			}
		}

		// Analysis phase: rank 0 pulls the full time series of one cell —
		// a column through the grown dimension.
		if c.Rank() == 0 {
			lat, lon := 17, 42
			series := drxmp.NewBox([]int{0, lat, lon}, []int{days, lat + 1, lon + 1})
			vals, err := f.ReadSectionFloat64s(series, drxmp.RowMajor)
			if err != nil {
				return err
			}
			for day, v := range vals {
				if v != observe(day, lat, lon) {
					return fmt.Errorf("time series corrupt at day %d: %v", day, v)
				}
			}
			fmt.Printf("time series at (lat=%d, lon=%d): %d days verified, first=%v last=%v\n",
				lat, lon, len(vals), vals[0], vals[len(vals)-1])
			st := f.FS().Stats()
			fmt.Printf("I/O totals: %d requests, %d bytes\n", st.Requests(), st.Bytes())
		}
		return nil
	})
}
