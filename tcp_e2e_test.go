package drxmp

import (
	"bytes"
	"fmt"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
)

// TestTCPTransportEndToEnd runs the full parallel workflow — collective
// create, zone-partitioned collective write, extend along a non-primary
// dimension, collective re-write of the new segment, full verify — with
// every inter-rank message (metadata broadcast, collective I/O
// exchanges, barriers) crossing real loopback TCP sockets, the way the
// paper's DRX-MP traffic crosses the cluster interconnect. Only the
// parallel file system itself stays shared, as PVFS2 is shared storage.
func TestTCPTransportEndToEnd(t *testing.T) {
	const ranks = 4
	opts := Options{
		DType:      Float64,
		ChunkShape: []int{2, 3},
		Bounds:     []int{10, 12},
	}
	value := func(idx []int) float64 { return float64(1000*idx[0] + idx[1]) }

	err := cluster.RunTCP(ranks, func(c *cluster.Comm) error {
		f, err := Create(c, "tcp-e2e", opts)
		if err != nil {
			return err
		}
		defer f.Close()

		writeZone := func() error {
			boxes, err := f.MyZone()
			if err != nil {
				return err
			}
			for _, box := range boxes {
				vals := make([]float64, box.Volume())
				at := 0
				box.Iterate(grid.RowMajor, func(idx []int) bool {
					vals[at] = value(idx)
					at++
					return true
				})
				if err := f.WriteSection(box, encodeF64(vals), RowMajor); err != nil {
					return err
				}
			}
			return c.Barrier()
		}
		if err := writeZone(); err != nil {
			return err
		}

		// Grow dimension 1 (the non-append dimension for a row-major
		// file) and fill the new cells from their owners.
		if err := f.Extend(1, 5); err != nil {
			return err
		}
		boxes, err := f.MyZone()
		if err != nil {
			return err
		}
		for _, box := range boxes {
			vals := make([]float64, box.Volume())
			at := 0
			box.Iterate(grid.RowMajor, func(idx []int) bool {
				vals[at] = value(idx)
				at++
				return true
			})
			if err := f.WriteSection(box, encodeF64(vals), RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		// Every rank verifies the complete principal array, reading in
		// Fortran order to exercise on-the-fly transposition too.
		full := NewBox([]int{0, 0}, f.Bounds())
		got, err := f.ReadSectionFloat64s(full, ColMajor)
		if err != nil {
			return err
		}
		at := 0
		var bad error
		full.Iterate(grid.ColMajor, func(idx []int) bool {
			if got[at] != value(idx) {
				bad = fmt.Errorf("rank %d: (%v) = %v, want %v", c.Rank(), idx, got[at], value(idx))
				return false
			}
			at++
			return true
		})
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPTransportCollectiveRead re-enacts the paper's Section IV
// 4-process collective zone read over sockets and confirms the zone
// contents match rank ownership.
func TestTCPTransportCollectiveRead(t *testing.T) {
	opts := Options{
		DType:      Float64,
		ChunkShape: []int{2, 3},
		Bounds:     []int{10, 10},
	}
	err := cluster.RunTCP(4, func(c *cluster.Comm) error {
		f, err := Create(c, "tcp-coll", opts)
		if err != nil {
			return err
		}
		defer f.Close()
		full := NewBox([]int{0, 0}, f.Bounds())
		if c.Rank() == 0 {
			vals := make([]float64, full.Volume())
			at := 0
			full.Iterate(grid.RowMajor, func(idx []int) bool {
				vals[at] = float64(at)
				at++
				return true
			})
			if err := f.WriteSection(full, encodeF64(vals), RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		boxes, err := f.MyZone()
		if err != nil {
			return err
		}
		for _, box := range boxes {
			got, err := f.ReadSectionFloat64s(box, RowMajor)
			if err != nil {
				return err
			}
			at := 0
			var bad error
			box.Iterate(grid.RowMajor, func(idx []int) bool {
				want := float64(idx[0]*10 + idx[1])
				if got[at] != want {
					bad = fmt.Errorf("rank %d zone (%v) = %v, want %v", c.Rank(), idx, got[at], want)
					return false
				}
				at++
				return true
			})
			if bad != nil {
				return bad
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tcpFrames runs four ranks over loopback TCP under tuning: each
// collectively writes a thin column slab and reads it back `reads`
// times. It returns the frames that crossed the sockets. The slabs
// scatter pieces across the whole file span, so they land in every
// aggregation domain, while the whole transfer is only two stripes.
func tcpFrames(t *testing.T, tuning Tuning, reads int) int64 {
	t.Helper()
	const ranks, n = 4, 128
	st, err := cluster.RunTCPStats(ranks, func(c *cluster.Comm) error {
		f, err := Create(c, "tcp-frames", Options{
			DType: Float64, ChunkShape: []int{32, 32}, Bounds: []int{n, n},
			FS:     pfs.Options{Servers: 4, StripeSize: 8 << 10},
			Tuning: tuning,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		box := NewBox([]int{0, 4 * c.Rank()}, []int{n, 4*c.Rank() + 4})
		data := make([]byte, box.Volume()*8)
		for i := range data {
			data[i] = byte(c.Rank()*13 + i)
		}
		if err := f.WriteSectionAll(box, data, RowMajor); err != nil {
			return err
		}
		got := make([]byte, len(data))
		for range reads {
			if err := f.ReadSectionAll(box, got, RowMajor); err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("rank %d: slab read back wrong under %+v", c.Rank(), tuning)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.Msgs
}

// TestTCPAdaptiveCBNodesFewerFrames pins the frames of one collective
// write and read under the aggregator rule. On four ranks an Allgather
// or a Barrier is 6 frames (3 to rank 0, 3 back) and a Bcast is 3.
// Create is two Bcasts (the store's key and the persist agreement) and
// a Barrier, and Close one Barrier: 18. The
// 16 KiB slabs are two 8 KiB stripes, so two ranks aggregate, and every
// rank has pieces in both domains. Each exchange is then 6 frames: one
// from each aggregator to the other, two from each other rank. The
// write is its run Allgather, the exchange and the agreement round: 18.
// The read is the same three: 18. That makes 54. One aggregator per rank
// made each exchange 12 frames, 66 in all.
func TestTCPAdaptiveCBNodesFewerFrames(t *testing.T) {
	if got := tcpFrames(t, Tuning{}, 1); got != 54 {
		t.Fatalf("a collective write and read crossed the wire in %d frames, want 54", got)
	}
}

// TestTCPCachedCollectiveReadNoExtraRound: a collective read through the
// extent cache crosses the sockets in exactly the frames of one without
// it. No read flushes, so a cached read has no coherence round of its
// own: the agreement after the aggregators' reads already orders every
// cache read before the exchange.
func TestTCPCachedCollectiveReadNoExtraRound(t *testing.T) {
	const reads = 3
	if cached, plain := tcpFrames(t, Tuning{CacheBytes: 1 << 20}, reads), tcpFrames(t, Tuning{}, reads); cached != plain {
		t.Fatalf("%d collective reads crossed the wire in %d frames through the cache, %d without it: want the same",
			reads, cached, plain)
	}
}
