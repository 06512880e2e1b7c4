package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// A collective's aggregator count is the rule
// clamp(totalBytes/stripe, 1, nranks) (place.ByteCyclic). These tests
// keep the name of cb_nodes, the ROMIO hint that once set the count.

// carveN is the count a File on four ranks carves for total bytes
// over [lo, hi) on a store of the given stripe, under the span (wb 0)
// or the block-cyclic (wb -1) carving.
func carveN(t *testing.T, stripe, lo, hi, total, wb int64) int {
	fs, err := pfs.Create("cbn", pfs.Options{Servers: 2, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ns := make([]int, 4)
	err = cluster.Run(4, func(c *cluster.Comm) error {
		f, err := Open(c, fs, Tuning{WriteBehindBytes: wb, CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		ns[c.Rank()] = f.carve(lo, hi, total).N()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ns[0]
}

func TestCBNodesResolution(t *testing.T) {
	for _, tc := range []struct {
		total int64
		want  int
	}{
		{0, 1},           // nothing to move: one aggregator
		{512, 1},         // sub-stripe: one aggregator
		{2048, 2},        // two stripes: two aggregators
		{1 << 20, 4},     // large: clamped to nranks
		{3*1024 + 17, 3}, // truncating division
	} {
		for _, wb := range []int64{0, -1} {
			if got := carveN(t, 1<<10, 0, tc.total, tc.total, wb); got != tc.want {
				t.Errorf("%d bytes, WriteBehind %d: %d aggregators, want %d", tc.total, wb, got, tc.want)
			}
		}
	}
}

// TestCBNodesPlacementPolicyDomainCount: the count follows the
// payload, not the span it is spread over.
func TestCBNodesPlacementPolicyDomainCount(t *testing.T) {
	// One byte touched every 128 bytes: 8 bytes total over 897.
	if got := carveN(t, 1<<20, 0, 7*128+1, 8, 0); got != 1 {
		t.Fatalf("%d aggregators, want 1", got)
	}
}

// TestCollectiveCBNodesIdentical runs the same interleaved collective
// write+read under every aggregator count from one to one per rank:
// aggregator selection carves the transfer differently but can never
// change the data. The stripe sets the count: cb-1 is every rank
// aggregating, cb0 the 256-byte stripe the layout had, cb1-cb3 that
// many aggregators.
func TestCollectiveCBNodesIdentical(t *testing.T) {
	const ranks = 4
	const per = 3 * 64 // bytes per rank, odd vs the stripe

	// Interleaved block-cyclic layout: rank r owns every ranks-th block
	// of 64 bytes, displaced by r blocks.
	rankData := func(r int) []byte {
		data := make([]byte, per)
		for i := range data {
			data[i] = byte(r*31 + i)
		}
		return data
	}
	want := make([]byte, ranks*per)
	for r := range ranks {
		for i, b := range rankData(r) {
			want[(i/64*ranks+r)*64+i%64] = b
		}
	}

	for _, tc := range []struct {
		cb     int
		stripe int64
		aggs   int
	}{{-1, 64, ranks}, {0, 256, 3}, {1, 1024, 1}, {2, 384, 2}, {3, 240, 3}} {
		t.Run(fmt.Sprintf("cb%d", tc.cb), func(t *testing.T) {
			fs, err := pfs.Create("cbi", pfs.Options{Servers: 3, StripeSize: tc.stripe})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			err = cluster.Run(ranks, func(c *cluster.Comm) error {
				f := openPlain(c, fs)
				if n := f.carve(0, ranks*per, ranks*per).N(); n != tc.aggs {
					return fmt.Errorf("stripe %d carves %d aggregators, want %d", tc.stripe, n, tc.aggs)
				}
				runs := strided(c.Rank(), ranks, per/64, 64)
				data := rankData(c.Rank())
				if err := f.WriteAllV(runs, Contig(data)); err != nil {
					return err
				}
				got := make([]byte, per)
				if err := f.ReadAllV(runs, Contig(got)); err != nil {
					return err
				}
				if !bytes.Equal(got, data) {
					return fmt.Errorf("rank %d: collective readback mismatch", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			full := make([]byte, ranks*per)
			if _, err := fs.ReadAt(full, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(full, want) {
				t.Fatalf("cb=%d: file differs from the interleaved layout", tc.cb)
			}
		})
	}
}
