package pfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// benchCost is the service-time model of the benchmark's stores: 100 µs
// per request, 1 ms per seek, 4 ns per byte.
func benchCost() CostModel {
	return CostModel{
		RequestOverhead: 100 * time.Microsecond,
		SeekLatency:     time.Millisecond,
		ByteTime:        4 * time.Nanosecond,
	}
}

// sentinel fills the memory around every slice of a guarded vector.
const sentinel = 0xEE

// guarded carves a Segs vector for runs out of one sentinel-filled
// backing array: each run's memory is two slices, with sentinel bytes
// before, between and after them. intact reports whether every byte
// outside the slices still holds the sentinel.
func guarded(runs []Run) (v Segs, intact func() bool) {
	const pad = 16
	var size int64
	for _, r := range runs {
		size += r.Len + 3*pad
	}
	backing := bytes.Repeat([]byte{sentinel}, int(size+pad))
	inside := make([]bool, len(backing))
	at := int64(pad)
	for _, r := range runs {
		for _, n := range []int64{r.Len / 2, r.Len - r.Len/2} {
			v = append(v, backing[at:at+n:at+n])
			for i := at; i < at+n; i++ {
				inside[i] = true
			}
			at += n + pad
		}
	}
	return v, func() bool {
		for i, b := range backing {
			if !inside[i] && b != sentinel {
				return false
			}
		}
		return true
	}
}

// TestReadThrough pins when a server reads through the hole between two
// segments of one list instead of seeking over it, under both
// disciplines: a run joined that way is one request, charged its span
// (at most one seek, one overhead, byte time for holes too), while only
// the segments' bytes reach memory.
func TestReadThrough(t *testing.T) {
	bench := benchCost()
	noSeek := bench
	noSeek.SeekLatency = 0
	// Break-even at 500 bytes: 500 × 4 ns = 1 µs + 1 µs.
	tiny := CostModel{RequestOverhead: time.Microsecond, SeekLatency: time.Microsecond, ByteTime: 4 * time.Nanosecond}
	busy := func(c CostModel, reqs, seeks, n int64) time.Duration {
		return time.Duration(reqs)*c.RequestOverhead + time.Duration(seeks)*c.SeekLatency + time.Duration(n)*c.ByteTime
	}
	cases := []struct {
		name  string
		cost  CostModel
		write bool
		runs  []Run
		// The charge: requests, seeks and device bytes.
		reqs, seeks, bytes int64
	}{
		// The hole is exactly half of the smaller neighbour.
		{"half-hole", bench, false, []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}}, 1, 1, 600},
		{"half-hole-plus-one", bench, false, []Run{{Off: 100, Len: 200}, {Off: 401, Len: 300}}, 2, 2, 500},
		// Each hole is judged against the segments beside it.
		{"chain", bench, false, []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}, {Off: 800, Len: 300}, {Off: 1200, Len: 100}}, 2, 2, 1100},
		{"no-seek-latency", noSeek, false, []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}}, 2, 2, 500},
		{"under-break-even", tiny, false, []Run{{Off: 1000, Len: 1000}, {Off: 2499, Len: 1000}}, 1, 1, 2499},
		{"at-break-even", tiny, false, []Run{{Off: 1000, Len: 1000}, {Off: 2500, Len: 1000}}, 2, 2, 2000},
		{"write", bench, true, []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}, {Off: 800, Len: 300}}, 3, 3, 800},
	}
	for _, sched := range []Scheduler{FIFO, Elevator} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%v", tc.name, map[Scheduler]string{FIFO: "FIFO", Elevator: "Elevator"}[sched]), func(t *testing.T) {
				fs, err := Create("read-through", Options{Servers: 1, Scheduler: sched, Cost: tc.cost})
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				old := pattern(4096, 1)
				if _, err := fs.WriteAt(old, 0); err != nil {
					t.Fatal(err)
				}
				fs.ResetStats()
				var payload int64
				for _, r := range tc.runs {
					payload += r.Len
				}
				mem, intact := guarded(tc.runs)
				want := bytes.Clone(old)
				if tc.write {
					src := pattern(int(payload), 2)
					at := int64(0)
					for _, p := range mem {
						at += int64(copy(p, src[at:]))
					}
					at = 0
					for _, r := range tc.runs {
						at += int64(copy(want[r.Off:r.Off+r.Len], src[at:]))
					}
					if n, err := fs.WriteVec(tc.runs, mem); n != payload || err != nil {
						t.Fatalf("WriteVec = %d, %v", n, err)
					}
				} else if n, err := fs.ReadVec(tc.runs, mem); n != payload || err != nil {
					t.Fatalf("ReadVec = %d, %v", n, err)
				}

				st := fs.Stats()
				moved := st.PerServer[0].BytesRead
				if tc.write {
					moved = st.PerServer[0].BytesWritten
				}
				if st.Requests() != tc.reqs || st.Seeks() != tc.seeks || moved != tc.bytes {
					t.Errorf("charged %d requests, %d seeks, %d device bytes; want %d, %d, %d",
						st.Requests(), st.Seeks(), moved, tc.reqs, tc.seeks, tc.bytes)
				}
				if w := busy(tc.cost, tc.reqs, tc.seeks, tc.bytes); st.PerServer[0].Busy != w {
					t.Errorf("busy %v, want %v", st.PerServer[0].Busy, w)
				}
				if !intact() {
					t.Error("bytes outside the segments' memory changed: a hole reached memory")
				}
				got := bytes.Join(mem, nil)
				at := int64(0)
				for _, r := range tc.runs {
					if !bytes.Equal(got[at:at+r.Len], want[r.Off:r.Off+r.Len]) {
						t.Errorf("run %+v moved the wrong bytes", r)
					}
					at += r.Len
				}
				back := make([]byte, len(old))
				if _, err := fs.ReadAt(back, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, want) {
					t.Error("the store's bytes differ: a hole was written")
				}
			})
		}
	}
	readThroughDegraded(t)
}

// readThroughDegraded: on a 6+2 store, a read list whose pieces the
// healthy servers read through reconstructs the refused segments' bytes
// and nothing more — with server 0 dead to reads, and with one segment
// in the middle of a dense run refused.
func readThroughDegraded(t *testing.T) {
	const stripe = 4096
	// Eight 384-byte rows at a 512-byte pitch in each of the first 12
	// stripe units: a dense run on every data server.
	var runs []Run
	var payload int64
	for u := int64(0); u < 12; u++ {
		for r := int64(0); r < 8; r++ {
			runs = append(runs, Run{Off: u*stripe + r*512 + 64, Len: 384})
			payload += 384
		}
	}
	// Server 1's unit 1 row 3, local offset 3*512+64.
	const refusedOff = 3*512 + 64
	injectors := []struct {
		name    string
		inj     Injector
		refused int64 // segments
		// Server 1's read requests: none when it is dead; else its two
		// stripe units are one dense run, split where the refusal is.
		reads1 int64
	}{
		{"dead-server", &FaultPoint{Server: 1, Op: FaultReads, Permanent: true}, 16, 0},
		{"one-refused", injectorFunc(func(server int, write bool, off, _ int64) error {
			if server == 1 && !write && off == refusedOff {
				return errInjected
			}
			return nil
		}), 1, 2},
	}
	for _, sched := range []Scheduler{FIFO, Elevator} {
		for _, tc := range injectors {
			t.Run(fmt.Sprintf("6+2/%s/%v", tc.name, map[Scheduler]string{FIFO: "FIFO", Elevator: "Elevator"}[sched]), func(t *testing.T) {
				fs := degradedFS(t, Options{Servers: 8, Parity: 2, StripeSize: stripe, Scheduler: sched, Cost: benchCost()})
				all := pattern(12*stripe, 3)
				if _, err := fs.WriteAt(all, 0); err != nil {
					t.Fatal(err)
				}
				fs.SetInjector(tc.inj)
				fs.ResetStats()
				mem, intact := guarded(runs)
				if n, err := fs.ReadVec(runs, mem); n != payload || err != nil {
					t.Fatalf("ReadVec = %d, %v", n, err)
				}
				st := fs.Stats()
				if st.DegradedReads != tc.refused || st.ReconstructBytes != tc.refused*384 {
					t.Errorf("reconstructed %d segments, %d bytes; want %d, %d",
						st.DegradedReads, st.ReconstructBytes, tc.refused, tc.refused*384)
				}
				if got := st.PerServer[1].Reads; got != tc.reads1 {
					t.Errorf("server 1 served %d read requests, want %d", got, tc.reads1)
				}
				if !intact() {
					t.Error("bytes outside the segments' memory changed")
				}
				got := bytes.Join(mem, nil)
				at := int64(0)
				for _, r := range runs {
					if !bytes.Equal(got[at:at+r.Len], all[r.Off:r.Off+r.Len]) {
						t.Fatalf("run %+v read the wrong bytes", r)
					}
					at += r.Len
				}
			})
		}
	}
}
