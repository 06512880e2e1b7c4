package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// TestCBNodesResolution pins the aggregator-count rule of the default
// carving (place.ByteCyclic fed the handle's CBNodes, stripe and
// communicator size): adaptive
// clamp(totalBytes/stripe, 1, nranks) by default, fixed (clamped)
// when positive, full fan-out when negative.
func TestCBNodesResolution(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		fs, err := pfs.Create("cbn", pfs.Options{Servers: 2, StripeSize: 1 << 10})
		if err != nil {
			return err
		}
		defer fs.Close()
		f := Open(c, fs)
		cases := []struct {
			cbNodes    int
			totalBytes int64
			want       int
		}{
			{0, 0, 1},           // nothing to move: one aggregator
			{0, 512, 1},         // sub-stripe: one aggregator
			{0, 2048, 2},        // two stripes: two aggregators
			{0, 1 << 20, 4},     // large: clamped to nranks
			{2, 1, 2},           // fixed override ignores size
			{2, 1 << 20, 2},     // fixed override ignores size
			{9, 1, 4},           // fixed override clamped to nranks
			{-1, 1, 4},          // forced full fan-out
			{-1, 1 << 20, 4},    // forced full fan-out
			{0, 3*1024 + 17, 3}, // truncating division
		}
		for _, tc := range cases {
			f.CBNodes = tc.cbNodes
			for _, wb := range []int64{0, -1} { // span and cyclic carvings
				f.WriteBehind = wb
				if got := f.carve(0, tc.totalBytes, tc.totalBytes).N(); got != tc.want {
					return fmt.Errorf("carve N for %d bytes with CBNodes=%d WriteBehind=%d = %d, want %d",
						tc.totalBytes, tc.cbNodes, wb, got, tc.want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCBNodesPlacementPolicyDomainCount pins the aggregator count of
// a tiny payload spread over a wide span: the count follows the
// payload (clamp(totalBytes/stripe, 1, nranks) = 1), not the span,
// while an explicit CBNodes cap or forced fan-out still wins.
func TestCBNodesPlacementPolicyDomainCount(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		// Stripe far above the payload, so the adaptive count resolves
		// to a single aggregator.
		fs, err := pfs.Create("cbp", pfs.Options{Servers: 2, StripeSize: 1 << 20})
		if err != nil {
			return err
		}
		defer fs.Close()
		f := Open(c, fs)
		// One byte touched every 128 bytes: 8 bytes total over 897.
		lo, hi, total := int64(0), int64(7*128+1), int64(8)
		for _, tc := range []struct{ cbNodes, want int }{{0, 1}, {2, 2}, {-1, c.Size()}} {
			f.CBNodes = tc.cbNodes
			if got := f.carve(lo, hi, total).N(); got != tc.want {
				return fmt.Errorf("CBNodes=%d: carve N = %d, want %d", tc.cbNodes, got, tc.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveCBNodesIdentical runs the same interleaved collective
// write+read under every aggregator-count setting and requires the
// resulting file to match an independently written reference
// byte-for-byte: aggregator selection carves the transfer differently
// but can never change the data.
func TestCollectiveCBNodesIdentical(t *testing.T) {
	const ranks = 4
	const per = 3 * 64 // view bytes per rank, odd vs the stripe

	// Interleaved block-cyclic view: rank r owns every ranks-th block
	// of 64 bytes, displaced by r blocks.
	mkView := func() Datatype {
		ft, err := Vector(per/64, 64, ranks*64, MustBytes(1))
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	rankData := func(r int) []byte {
		data := make([]byte, per)
		for i := range data {
			data[i] = byte(r*31 + i)
		}
		return data
	}

	// Reference: the same pattern written independently by one process.
	ref, err := pfs.Create("cbi-ref", pfs.Options{Servers: 3, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	err = cluster.Run(1, func(c *cluster.Comm) error {
		rf := Open(c, ref)
		for r := 0; r < ranks; r++ {
			if err := rf.SetView(int64(r*64), mkView()); err != nil {
				return err
			}
			if err := rf.WriteAt(rankData(r), 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, ranks*per)
	if _, err := ref.ReadAt(want, 0); err != nil {
		t.Fatal(err)
	}

	for _, cb := range []int{-1, 0, 1, 2, 3} {
		cb := cb
		t.Run(fmt.Sprintf("cb%d", cb), func(t *testing.T) {
			fs, err := pfs.Create("cbi", pfs.Options{Servers: 3, StripeSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			err = cluster.Run(ranks, func(c *cluster.Comm) error {
				f := Open(c, fs)
				f.CBNodes = cb
				if err := f.SetView(int64(c.Rank()*64), mkView()); err != nil {
					return err
				}
				data := rankData(c.Rank())
				if err := f.WriteAllAt(data, 0); err != nil {
					return err
				}
				got := make([]byte, per)
				if err := f.ReadAllAt(got, 0); err != nil {
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
				t.Fatalf("cb=%d: collective file differs from independent reference", cb)
			}
		})
	}
}

// TestCollectiveAdaptiveFewerRequests: on a small transfer, the
// adaptive aggregator count funnels the whole union through one
// aggregator, issuing no more (and typically fewer) file requests than
// one-aggregator-per-rank. Serial workers keep the counts exact.
func TestCollectiveAdaptiveFewerRequests(t *testing.T) {
	const ranks = 4
	reqs := make(map[int]int64)
	for _, cb := range []int{-1, 0} {
		fs, err := pfs.Create("cbr", pfs.Options{Servers: 2, StripeSize: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		err = cluster.Run(ranks, func(c *cluster.Comm) error {
			f := Open(c, fs)
			f.CBNodes = cb
			f.Parallelism = -1
			// Each rank writes 64 bytes, strided so the file span covers
			// several stripes but the payload is far below one stripe per
			// rank — the regime where full fan-out wastes aggregators.
			if err := f.SetView(int64(c.Rank())*1500, MustBytes(1<<20)); err != nil {
				return err
			}
			data := make([]byte, 64)
			for i := range data {
				data[i] = byte(c.Rank() + i)
			}
			if err := f.WriteAllAt(data, 0); err != nil {
				return err
			}
			buf := make([]byte, 64)
			if err := f.ReadAllAt(buf, 0); err != nil {
				return err
			}
			if !bytes.Equal(buf, data) {
				return fmt.Errorf("rank %d: readback mismatch", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs[cb] = fs.Stats().Requests()
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if reqs[0] > reqs[-1] {
		t.Fatalf("adaptive cb_nodes issued %d requests, full fan-out %d — adaptive should not be worse",
			reqs[0], reqs[-1])
	}
}
