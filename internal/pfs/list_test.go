package pfs

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// List I/O: what a logical operation puts on a server's queue is its
// whole request list for that server. These tests pin what that may not
// change: which requests the device model sees, in which order per
// server, and what a fault or a deadline in the middle of a list does.

// vector builds n segment-sized runs that round-robin the servers of a
// store with the given stripe (run i lies inside stripe unit i), and a
// patterned buffer for them.
func vector(n int, stripe int64) ([]Run, []byte) {
	runs := make([]Run, n)
	for i := range runs {
		runs[i] = Run{Off: int64(i)*stripe + 7, Len: 40}
	}
	return runs, pattern(n*40, int64(n))
}

// hookWorkers replaces fs's workers with FIFO workers that call before
// with their server's index for every queue entry they take.
func hookWorkers(fs *FS, before func(server int)) {
	fs.stopQueues()
	fs.qclosed = false
	for i, sv := range fs.servers {
		ch := make(chan *batch, queueDepth)
		fs.queues[i] = ch
		fs.qwg.Add(1)
		go func() {
			defer fs.qwg.Done()
			for b := range ch {
				before(i)
				sv.serveFIFO(b)
			}
		}()
	}
}

// TestListOneEntryPerServer: a 512-segment vector over 8 servers makes
// at most 8 queue entries, 512 charged requests, and — the dispatch
// state being reused — allocates exactly what an 8-segment vector does.
func TestListOneEntryPerServer(t *testing.T) {
	fs := memFS(t, 8, 64, schedCost())
	var entries atomic.Int64
	hookWorkers(fs, func(int) { entries.Add(1) })
	big, bigBuf := vector(512, 64)
	small, smallBuf := vector(8, 64)
	if _, err := fs.WriteV(big, bigBuf); err != nil {
		t.Fatal(err)
	}
	if got := entries.Load(); got > 8 {
		t.Fatalf("a 512-segment write made %d queue entries, want <= 8", got)
	}
	if got := fs.Stats().Requests(); got != 512 {
		t.Fatalf("a 512-segment write was charged %d requests, want 512", got)
	}
	back := make([]byte, len(bigBuf))
	allocs := func(runs []Run, buf []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := fs.ReadV(runs, buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	if b, s := allocs(big, back), allocs(small, smallBuf); b != s {
		t.Fatalf("ReadV allocates %.0f times for 512 segments, %.0f for 8", b, s)
	}
	if !bytes.Equal(back, bigBuf) {
		t.Fatal("readback mismatch")
	}
}

// TestListAutoWindowSweepsWholeList: an auto-window elevator freezes
// everything pending, and what is pending when a list arrives is the
// whole list: ten adjacent segments of one call are one streamed
// request on the queued path too — not one sweep per arrival.
func TestListAutoWindowSweepsWholeList(t *testing.T) {
	fs, err := Create("whole", Options{Servers: 1, StripeSize: 64, Scheduler: Elevator, Cost: schedCost()})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.WriteAt(pattern(640, 1), 0); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.Requests() != 1 || st.Seeks() != 0 {
		t.Fatalf("a 10-segment contiguous list was serviced as %d requests with %d seeks, want 1 and 0", st.Requests(), st.Seeks())
	}
}

// TestListStatsMatchInline: the same random vectors charge identical
// Stats() — requests, seeks, bytes, busy time, both histograms — whether
// their lists travel the queues or are serviced by the caller after
// Close, under FIFO and under the elevator with an auto and a fixed
// window (which counts requests: a list longer than the window is swept
// in window-sized pieces on both paths).
func TestListStatsMatchInline(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sched  Scheduler
		window int
	}{{"fifo", FIFO, 0}, {"elevator-auto", Elevator, 0}, {"elevator-4", Elevator, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *FS {
				fs, err := Create("inline", Options{Servers: 3, StripeSize: 64,
					Scheduler: tc.sched, WindowSize: tc.window, Cost: schedCost()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fs.Close() })
				return fs
			}
			queued, inline := mk(), mk()
			inline.stopQueues()
			rng := rand.New(rand.NewSource(24))
			for step := 0; step < 40; step++ {
				var runs []Run
				var total int64
				for at := int64(rng.Intn(200)); len(runs) < 1+rng.Intn(12); {
					r := Run{Off: at, Len: int64(1 + rng.Intn(300))}
					runs = append(runs, r)
					total += r.Len
					at += r.Len + int64(rng.Intn(3))*int64(rng.Intn(500)) // often touching
				}
				buf := pattern(int(total), int64(step))
				for _, fs := range []*FS{queued, inline} {
					if _, err := fs.WriteV(runs, buf); err != nil {
						t.Fatal(err)
					}
					got := make([]byte, total)
					if _, err := fs.ReadV(runs, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, buf) {
						t.Fatalf("step %d: readback mismatch", step)
					}
				}
				if q, i := queued.Stats(), inline.Stats(); !reflect.DeepEqual(q, i) {
					t.Fatalf("step %d: queued stats %+v\n!= inline stats %+v", step, q, i)
				}
			}
		})
	}
}

// TestListFaultMidVector: FaultPoint{After: n} refuses the n+1-th
// segment in submission order — the accepted prefix lands, nothing after
// it does, and the call returns the prefix's byte count with the
// injected error — on the queues and inline, reads and writes.
func TestListFaultMidVector(t *testing.T) {
	const n, after = 24, 13
	runs, data := vector(n, 64)
	boom := errors.New("boom")
	for _, sched := range []Scheduler{FIFO, Elevator} {
		for _, inline := range []bool{false, true} {
			fs, err := Create("midfault", Options{Servers: 5, StripeSize: 64, Scheduler: sched, Cost: schedCost()})
			if err != nil {
				t.Fatal(err)
			}
			if inline {
				fs.stopQueues()
			}
			fs.SetInjector(&FaultPoint{Server: AnyServer, Op: FaultWrites, After: after, Err: boom})
			done, err := fs.WriteV(runs, data)
			if done != after*40 || !errors.Is(err, boom) {
				t.Fatalf("sched %v inline %v: WriteV = %d, %v; want %d and the injected error", sched, inline, done, err, after*40)
			}
			fs.SetInjector(nil)
			got := make([]byte, len(data))
			if _, err := fs.ReadV(runs, got); err != nil {
				t.Fatal(err)
			}
			want := append(bytes.Clone(data[:after*40]), make([]byte, (n-after)*40)...)
			if !bytes.Equal(got, want) {
				t.Fatalf("sched %v inline %v: stored bytes are not exactly the accepted prefix", sched, inline)
			}
			fs.SetInjector(&FaultPoint{Server: AnyServer, Op: FaultReads, After: after, Err: boom})
			if done, err := fs.ReadV(runs, got); done != after*40 || !errors.Is(err, boom) {
				t.Fatalf("sched %v inline %v: ReadV = %d, %v; want %d and the injected error", sched, inline, done, err, after*40)
			}
			fs.Close()
		}
	}
}

// injectorFunc adapts a function to Injector.
type injectorFunc func(server int, write bool, off, n int64) error

func (f injectorFunc) Fail(server int, write bool, off, n int64) error {
	return f(server, write, off, n)
}

// TestListInjectorBeforeQueue: the injector sees every segment once, in
// submission order, before any of them has reached a server.
func TestListInjectorBeforeQueue(t *testing.T) {
	fs := memFS(t, 4, 64, schedCost())
	runs, data := vector(20, 64)
	var seen []int
	fs.SetInjector(injectorFunc(func(server int, _ bool, _, _ int64) error {
		if got := fs.Stats().Requests(); got != 0 {
			t.Errorf("segment %d consulted after %d requests were serviced", len(seen), got)
		}
		seen = append(seen, server)
		return nil
	}))
	if _, err := fs.WriteV(runs, data); err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(runs))
	for i := range want {
		want[i] = i % 4
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("injector saw servers %v, want submission order %v", seen, want)
	}
}

// TestListSourceOrderCountsRequests: the backlog that ranks
// reconstruction sources is requests queued, not queue entries — one
// list of 7 parked at a server counts 7.
func TestListSourceOrderCountsRequests(t *testing.T) {
	fs := degradedFS(t, Options{Servers: 4, Parity: 1, StripeSize: 64})
	gate := make(chan struct{})
	hookWorkers(fs, func(server int) {
		if server == 1 {
			<-gate
		}
	})
	runs := make([]Run, 7) // all on data server 1 (k = 3)
	for i := range runs {
		runs[i] = Run{Off: int64(3*i+1) * 64, Len: 64}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := fs.WriteV(runs, make([]byte, 7*64)); err != nil {
			t.Error(err)
		}
	}()
	for fs.servers[1].queued.Load() != 7 {
		time.Sleep(100 * time.Microsecond)
	}
	if got, want := fs.sourceOrder(new(reconScratch)), []int{0, 2, 3, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("sourceOrder = %v with 7 requests parked at server 1, want %v", got, want)
	}
	close(gate)
	wg.Wait()
	if got := fs.servers[1].queued.Load(); got != 0 {
		t.Errorf("server 1 still counts %d queued requests after the write returned", got)
	}
}

// TestListDeadlineCutsBatch: a straggler's list cut by the deadline.
// What the slow server had serviced counts as served, the rest of its
// list is reconstructed, the bytes are right, nothing touches the
// caller's buffer after the call returns (run with -race), and the
// abandoned dispatch is not reused by the reads that follow while the
// straggler is still working through it.
func TestListDeadlineCutsBatch(t *testing.T) {
	const stripe, units = 256, 8
	want := pattern(4*stripe*units, 3)
	// The cut falls where the machine's timing puts it; a few tries to
	// see it fall inside server 0's list, every try checked for bytes.
	for try := 1; ; try++ {
		fs, err := Create("cut", Options{
			Servers: 5, Parity: 1, StripeSize: stripe,
			// Server 0 takes 10 ms a request, its peers 2 ms; the deadline is
			// 3 x 8 x 2 ms = 48 ms: about 60 % of server 0's 80 ms list.
			Cost: CostModel{RequestOverhead: 2 * time.Millisecond, RealTime: true, SlowFactor: []float64{5}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		fs.ResetStats()
		got := make([]byte, len(want))
		if _, err := fs.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("deadline-cut read differs")
		}
		cut := fs.Stats().DegradedReads
		// While server 0 is still busy with the abandoned list: healthy
		// servers' bytes, each through a fresh or recycled dispatch.
		for u := 0; u < 6; u++ {
			off := int64(4*u+1) * stripe
			p := make([]byte, 3*stripe) // servers 1..3
			if _, err := fs.ReadAt(p, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, want[off:off+3*stripe]) {
				t.Fatalf("read %d beside the abandoned list differs", u)
			}
		}
		snapshot := bytes.Clone(got)
		if err := fs.Close(); err != nil { // waits the straggler out
			t.Fatal(err)
		}
		if !bytes.Equal(got, snapshot) {
			t.Fatal("the caller's buffer changed after the read returned")
		}
		if 0 < cut && cut < units {
			return // a served prefix and a reconstructed rest
		}
		if try == 5 {
			t.Fatalf("5 tries never cut server 0's list of %d inside (last: %d reconstructed)", units, cut)
		}
	}
}

// TestListScatteredMemory: a per-server segment whose memory is several
// rows of the caller's vector is still one charged request, written and
// read back in place — parity off and on (where a dead server makes the
// read stage, reconstruct and copy out).
func TestListScatteredMemory(t *testing.T) {
	for _, parity := range []int{0, 2} {
		fs := degradedFS(t, Options{Servers: 4 + parity, Parity: parity, StripeSize: 256, Cost: schedCost()})
		// 800 B in three runs — the outer two cross a stripe boundary, so
		// five segments — from and to memory in 50-byte rows with an
		// empty one after each.
		runs := []Run{{Off: 10, Len: 300}, {Off: 1030, Len: 200}, {Off: 2000, Len: 300}}
		want := pattern(800, 5)
		mk := func(src []byte) rows {
			var v rows
			for at := 0; at < len(src); at += 50 {
				v = append(v, bytes.Clone(src[at:at+50]), nil)
			}
			return v
		}
		if n, err := fs.WriteVec(runs, mk(want)); n != 800 || err != nil {
			t.Fatalf("parity %d: WriteVec = %d, %v", parity, n, err)
		}
		var dataReqs int64
		for _, ps := range fs.Stats().PerServer[:4] {
			dataReqs += ps.Writes
		}
		if dataReqs != 5 {
			t.Fatalf("parity %d: %d data requests for 5 segments", parity, dataReqs)
		}
		if parity > 0 {
			fs.SetInjector(&FaultPoint{Server: 0, Op: FaultReads, Permanent: true})
		}
		fs.ResetStats()
		got := mk(make([]byte, 800))
		if n, err := fs.ReadVec(runs, got); n != 800 || err != nil {
			t.Fatalf("parity %d: ReadVec = %d, %v", parity, n, err)
		}
		if flat := bytes.Join(got, nil); !bytes.Equal(flat, want) {
			t.Fatalf("parity %d: scattered readback differs", parity)
		}
		if parity > 0 && fs.Stats().DegradedReads == 0 {
			t.Fatal("no segment was reconstructed with server 0 dead")
		}
		flat := make([]byte, 800)
		if _, err := fs.ReadV(runs, flat); err != nil || !bytes.Equal(flat, want) {
			t.Fatalf("parity %d: contiguous readback differs (%v)", parity, err)
		}
	}
}

// rows is a Vec of separately allocated rows.
type rows [][]byte

func (v rows) Len() (n int64) {
	for _, r := range v {
		n += int64(len(r))
	}
	return n
}
func (v rows) Seg(i int) []byte { return v[i] }

// BenchmarkDispatch is one section_mixed-shaped vectored read without
// the layers above it: 508 pieces of 260 B, 20 to a chunk at a 512-byte
// row pitch, the chunks spread over 8 in-memory servers, the bench/
// cost model charged and never slept.
func BenchmarkDispatch(b *testing.B) {
	const pieces, piece = 508, 260
	runs := make([]Run, pieces)
	for i := range runs {
		runs[i] = Run{Off: int64(i/20)*(96<<10) + int64(i%20)*512 + 104, Len: piece}
	}
	buf := make([]byte, pieces*piece)
	for _, sched := range []Scheduler{FIFO, Elevator} {
		b.Run(map[Scheduler]string{FIFO: "FIFO", Elevator: "Elevator"}[sched], func(b *testing.B) {
			fs, err := Create("bench-dispatch", Options{Servers: 8, Scheduler: sched, Cost: CostModel{
				RequestOverhead: 100 * time.Microsecond, SeekLatency: time.Millisecond, ByteTime: 4 * time.Nanosecond}})
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			if _, err := fs.WriteV(runs, buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(pieces * piece)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := fs.ReadV(runs, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
