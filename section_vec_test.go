package drxmp

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// Independent section I/O hands the servers the caller's own rows when
// they are unit-stride in the buffer, and a packed scratch otherwise.
// Either way the bytes must be a flat array's (the model test checks
// that, model_test.go); here, what the unit-stride path costs.

// TestSectionReadIsScratchFree: a unit-stride independent ReadSection
// allocates no section-sized buffer. Two collections empty every
// sync.Pool first, so a scratch — pooled or not — would have to be
// allocated afresh and show as at least the payload's bytes.
func TestSectionReadIsScratchFree(t *testing.T) {
	const side = 512
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := Create(c, "scratch-free", Options{
			DType: Float64, ChunkShape: []int{64, 64}, Bounds: []int{side, side},
			FS: pfs.Options{Servers: 8},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		box := NewBox([]int{100, 130}, []int{356, 386})
		buf := make([]byte, box.Volume()*8)
		if err := f.ReadSection(box, buf, RowMajor); err != nil { // sizes the reusable state
			return err
		}
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f.ReadSection(box, buf, RowMajor); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		if got, payload := after.TotalAlloc-before.TotalAlloc, uint64(len(buf)); got >= payload/4 {
			return fmt.Errorf("a %d-byte unit-stride ReadSection allocated %d bytes, want < 1/4 of the payload", payload, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// benchCost is bench/'s service-time model, charged and never slept.
var benchCost = pfs.CostModel{RequestOverhead: 100 * time.Microsecond, SeekLatency: time.Millisecond, ByteTime: 4 * time.Nanosecond}

// sectionBench runs fn over a side x side float64 array in 64x64 chunks
// on fo, every chunk written once, with 64 row-major boxes of lo..hi
// elements a side at random places, and their mean payload.
func sectionBench(b *testing.B, side int, fo pfs.Options, lo, hi int, fn func(f *File, boxes []Box, bytesPerOp int64)) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := Create(c, "bench-section", Options{
			DType: Float64, ChunkShape: []int{64, 64}, Bounds: []int{side, side}, FS: fo,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		band := make([]byte, 64*side*8)
		for r := 0; r < side; r += 64 { // grow the servers
			if err := f.WriteSection(NewBox([]int{r, 0}, []int{r + 64, side}), band, RowMajor); err != nil {
				return err
			}
		}
		rng := rand.New(rand.NewSource(1))
		boxes := make([]Box, 64)
		var bytesPerOp int64
		for i := range boxes {
			h, w := lo+rng.Intn(hi-lo+1), lo+rng.Intn(hi-lo+1)
			r, c := rng.Intn(side-h), rng.Intn(side-w)
			boxes[i] = NewBox([]int{r, c}, []int{r + h, c + w})
			bytesPerOp += boxes[i].Volume() * 8 / int64(len(boxes))
		}
		fn(f, boxes, bytesPerOp)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// loopSections is the timed loop: one independent section op per
// iteration, cycling through boxes. It returns the ops it ran.
func loopSections(b *testing.B, f *File, boxes []Box, bytesPerOp int64, write bool) (ops int) {
	var most int64
	for _, box := range boxes {
		most = max(most, box.Volume()*8)
	}
	buf := make([]byte, most)
	b.SetBytes(bytesPerOp)
	b.ReportAllocs()
	for ; b.Loop(); ops++ {
		box := boxes[ops%len(boxes)]
		if err := f.sectionIO(box, buf[:box.Volume()*8], RowMajor, write, false); err != nil {
			b.Fatal(err)
		}
	}
	return ops
}

// BenchmarkSectionIO is one section_mixed op without the benchmark
// around it: a 2048x2048 float64 array on 8 in-memory servers,
// independent sections of 200-300 elements a side.
func BenchmarkSectionIO(b *testing.B) {
	sectionBench(b, 2048, pfs.Options{Servers: 8, Cost: benchCost}, 200, 300, func(f *File, boxes []Box, bytesPerOp int64) {
		for _, write := range []bool{false, true} {
			b.Run(map[bool]string{false: "read", true: "write"}[write], func(b *testing.B) {
				loopSections(b, f, boxes, bytesPerOp, write)
			})
		}
	})
}

// BenchmarkParityWrite is one parity_degraded write op without the
// benchmark around it: a 1024x1024 float64 array on a 6+2 store of
// 16 KiB stripe units whose server 0 fails every read, independent
// section writes of 48-96 elements a side. It reports the op's server
// bill (loopServers). Run a multiple of 64 ops (-benchtime=640x) to
// cycle the boxes evenly.
func BenchmarkParityWrite(b *testing.B) {
	fo := pfs.Options{Servers: 8, Parity: 2, StripeSize: 16 << 10, Cost: benchCost}
	sectionBench(b, 1024, fo, 48, 96, func(f *File, boxes []Box, bytesPerOp int64) {
		f.FS().SetInjector(&pfs.FaultPoint{Server: 0, Op: pfs.FaultReads, Permanent: true})
		loopServers(b, f, boxes, bytesPerOp, true)
	})
}

// BenchmarkDegradedRead is one parity_degraded read op without the
// benchmark around it: BenchmarkParityWrite's store and boxes, read with
// server 0 failing every read. It reports the op's server bill
// (loopServers). Run a multiple of 64 ops (-benchtime=640x) to cycle
// the boxes evenly.
func BenchmarkDegradedRead(b *testing.B) {
	fo := pfs.Options{Servers: 8, Parity: 2, StripeSize: 16 << 10, Cost: benchCost}
	sectionBench(b, 1024, fo, 48, 96, func(f *File, boxes []Box, bytesPerOp int64) {
		f.FS().SetInjector(&pfs.FaultPoint{Server: 0, Op: pfs.FaultReads, Permanent: true})
		loopServers(b, f, boxes, bytesPerOp, false)
	})
}

// loopServers is loopSections reporting, beside time and allocations,
// what the servers did per op as the benchmark scores it: requests
// (reqs/op), the servers' busy time over the server count (sim-ms/op,
// sim_ms_per_op) and device bytes per payload byte (dev-B/B,
// dev_b_per_payload_b).
func loopServers(b *testing.B, f *File, boxes []Box, bytesPerOp int64, write bool) {
	fs := f.FS()
	before := fs.Stats()
	ops := float64(loopSections(b, f, boxes, bytesPerOp, write))
	st := fs.Stats().Sub(before)
	b.ReportMetric(float64(st.Requests())/ops, "reqs/op")
	b.ReportMetric(float64(st.BusySum())/float64(time.Millisecond)/ops/float64(len(st.PerServer)), "sim-ms/op")
	b.ReportMetric(float64(st.Bytes())/(ops*float64(bytesPerOp)), "dev-B/B")
}
