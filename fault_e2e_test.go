package drxmp

import (
	"strings"
	"testing"
	"time"

	"drxmp/internal/cluster"
	"drxmp/internal/grid"
	"drxmp/internal/pfs"
)

// TestCollectiveReadFaultAllRanksAgree injects an I/O-server failure
// under a collective read and requires that (a) no rank hangs waiting
// for a peer that aborted, and (b) every rank observes the failure —
// the error-agreement contract of collective I/O.
func TestCollectiveReadFaultAllRanksAgree(t *testing.T) {
	const ranks = 4
	errs := make([]error, ranks)
	done := make(chan error, 1)
	go func() {
		done <- cluster.Run(ranks, func(c *cluster.Comm) error {
			f, err := Create(c, "fault-read", Options{
				DType:      Float64,
				ChunkShape: []int{2, 3},
				Bounds:     []int{10, 12},
			})
			if err != nil {
				return err
			}
			defer f.Close()
			full := NewBox([]int{0, 0}, f.Bounds())
			if c.Rank() == 0 {
				vals := make([]float64, full.Volume())
				if err := f.WriteSection(full, encodeF64(vals), RowMajor); err != nil {
					return err
				}
				// Reads fail from now on; every rank's collective must
				// notice even though only aggregators touch storage.
				f.FS().SetInjector(&pfs.FaultPoint{
					Server: pfs.AnyServer, Op: pfs.FaultReads, Permanent: true,
				})
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			boxes, err := f.MyZone()
			if err != nil {
				return err
			}
			box := full
			if len(boxes) > 0 {
				box = boxes[0]
			}
			buf := make([]byte, box.Volume()*8)
			errs[c.Rank()] = f.ReadSectionAll(box, buf, RowMajor)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("collective read with injected fault hung")
	}
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d did not observe the collective failure", r)
		}
		if !strings.Contains(err.Error(), "injected") && !strings.Contains(err.Error(), "collective aborted") {
			t.Fatalf("rank %d error lacks fault context: %v", r, err)
		}
	}
}

// TestCollectiveWriteFaultAllRanksAgree is the write-side counterpart:
// an aggregator whose flush fails must surface the error on all ranks.
func TestCollectiveWriteFaultAllRanksAgree(t *testing.T) {
	const ranks = 4
	errs := make([]error, ranks)
	done := make(chan error, 1)
	go func() {
		done <- cluster.Run(ranks, func(c *cluster.Comm) error {
			f, err := Create(c, "fault-write", Options{
				DType:      Float64,
				ChunkShape: []int{2, 3},
				Bounds:     []int{10, 12},
			})
			if err != nil {
				return err
			}
			defer f.Close()
			if c.Rank() == 0 {
				f.FS().SetInjector(&pfs.FaultPoint{
					Server: pfs.AnyServer, Op: pfs.FaultWrites, Permanent: true,
				})
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			boxes, err := f.MyZone()
			if err != nil {
				return err
			}
			box := NewBox([]int{0, 0}, []int{1, 1})
			if len(boxes) > 0 {
				box = boxes[0]
			}
			buf := make([]byte, box.Volume()*8)
			errs[c.Rank()] = f.WriteSectionAll(box, buf, RowMajor)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("collective write with injected fault hung")
	}
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d did not observe the collective write failure", r)
		}
	}
}

// TestIndependentIOFaultIsLocal verifies the non-collective path: a
// fault during one rank's independent read fails that rank only, and
// the file remains readable by everyone once the fault clears.
func TestIndependentIOFaultIsLocal(t *testing.T) {
	err := cluster.Run(2, func(c *cluster.Comm) error {
		f, err := Create(c, "fault-ind", Options{
			DType:      Float64,
			ChunkShape: []int{2, 3},
			Bounds:     []int{10, 12},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		full := NewBox([]int{0, 0}, f.Bounds())
		if c.Rank() == 0 {
			vals := make([]float64, full.Volume())
			for i := range vals {
				vals[i] = float64(i)
			}
			if err := f.WriteSection(full, encodeF64(vals), RowMajor); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			f.FS().SetInjector(&pfs.FaultPoint{Server: pfs.AnyServer, Op: pfs.FaultReads})
			buf := make([]byte, full.Volume()*8)
			if err := f.ReadSection(full, buf, RowMajor); err == nil {
				return errFault("rank 1 independent read survived the fault")
			}
			f.FS().SetInjector(nil)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		got, err := f.ReadSectionFloat64s(full, RowMajor)
		if err != nil {
			return err
		}
		at := 0
		var bad error
		full.Iterate(grid.RowMajor, func(idx []int) bool {
			if got[at] != float64(at) {
				bad = errFault("data corrupted after transient fault")
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

// TestFaultDegradedCollectiveReadByteIdentical kills one I/O server
// partway through a collective read of a parity-striped array
// (permanent fault after its first two read requests) and requires the
// collective to complete anyway: every rank's buffer byte-identical to
// the written data, served by erasure reconstruction instead of an
// error.
func TestFaultDegradedCollectiveReadByteIdentical(t *testing.T) {
	const ranks = 4
	bufs := make([][]byte, ranks)
	var degraded, reconBytes int64
	done := make(chan error, 1)
	go func() {
		done <- cluster.Run(ranks, func(c *cluster.Comm) error {
			f, err := Create(c, "fault-degraded", Options{
				DType:      Float64,
				ChunkShape: []int{8, 8},
				Bounds:     []int{32, 32},
				FS:         pfs.Options{Servers: 6, StripeSize: 512, Parity: 2},
			})
			if err != nil {
				return err
			}
			defer f.Close()
			full := NewBox([]int{0, 0}, f.Bounds())
			if c.Rank() == 0 {
				vals := make([]float64, full.Volume())
				for i := range vals {
					vals[i] = float64(i)*0.5 - 17
				}
				if err := f.WriteSection(full, encodeF64(vals), RowMajor); err != nil {
					return err
				}
				// Server 3, which holds a data unit of each of the four
				// parity rows, dies mid-collective: its first two read
				// requests are served, every later one fails permanently.
				f.FS().SetInjector(&pfs.FaultPoint{
					Server: 3, Op: pfs.FaultReads, After: 2, Permanent: true,
				})
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			buf := make([]byte, full.Volume()*8)
			if err := f.ReadSectionAll(full, buf, RowMajor); err != nil {
				return err
			}
			bufs[c.Rank()] = buf
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				st := f.FS().Stats()
				degraded, reconBytes = st.DegradedReads, st.ReconstructBytes
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("degraded collective read hung")
	}
	want := make([]float64, 32*32)
	for i := range want {
		want[i] = float64(i)*0.5 - 17
	}
	wantBytes := encodeF64(want)
	for r, buf := range bufs {
		if buf == nil {
			t.Fatalf("rank %d returned no buffer", r)
		}
		if string(buf) != string(wantBytes) {
			t.Fatalf("rank %d read differs from the written data under a dead server", r)
		}
		if string(buf) != string(bufs[0]) {
			t.Fatalf("rank %d read differs from rank 0's", r)
		}
	}
	if degraded == 0 || reconBytes == 0 {
		t.Fatalf("no reconstruction recorded (degraded=%d bytes=%d): the dead server was never routed around", degraded, reconBytes)
	}
}

type errFault string

func (e errFault) Error() string { return string(e) }
