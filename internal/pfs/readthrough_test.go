package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// unit returns n-byte runs inside file stripe unit u of a
// readThroughStripe store, at the given offsets past a 64-byte lead: a
// server's first request seeks as the others do.
func unit(u, n int64, at ...int64) []Run {
	runs := make([]Run, len(at))
	for i, o := range at {
		runs[i] = Run{Off: u*readThroughStripe + 64 + o, Len: n}
	}
	return runs
}

// readThroughStripe is the stripe unit of TestReadThrough's stores.
const readThroughStripe = 8192

// TestReadThrough pins when a server reads through the hole between two
// segments of one list instead of seeking over it, under both
// disciplines. Any hole that pays is a candidate for its dispatch's
// budget, spent across all servers cheapest first, ties in submission
// order: 1/4 of the payload for a read, where a hole costs its bytes,
// and 1/10 for a write, where it costs them twice plus the segment
// behind it. A read run joined that way is one request, charged its
// span (at most one seek, one overhead, byte time for holes too). A
// write run of at least two holes is two: a read of its interior, then
// a write of its span. Only the segments' bytes reach memory, and
// holes keep the bytes they had.
func TestReadThrough(t *testing.T) {
	bench := benchCost()
	noSeek := bench
	noSeek.SeekLatency = 0
	// Break-even at 500 bytes: 500 × 4 ns = 1 µs + 1 µs.
	tiny := CostModel{RequestOverhead: time.Microsecond, SeekLatency: time.Microsecond, ByteTime: 4 * time.Nanosecond}
	busy := func(c CostModel, reqs, seeks, n int64) time.Duration {
		return time.Duration(reqs)*c.RequestOverhead + time.Duration(seeks)*c.SeekLatency + time.Duration(n)*c.ByteTime
	}
	// Four 512-byte pieces 512 bytes apart on server 0 (holes equal to
	// their neighbours: 1,536 bytes in all), and one 8,000-byte piece on
	// each of servers 1-3: the read budget is 26,048/4 = 6,512 bytes.
	oneServer := unit(0, 512, 0, 1024, 2048, 3072)
	for u := int64(1); u < 4; u++ {
		oneServer = append(oneServer, unit(u, 8000, 0)...)
	}
	// The same with 128-byte holes: each costs a write 2×128 + 512 = 768
	// bytes of its 2,604-byte budget, so all three are granted, and
	// server 0's run reads the 1,408 bytes between its first piece and its
	// last, then writes the 2,432 from its first byte to its last.
	oneServerWrite := unit(0, 512, 0, 640, 1280, 1920)
	for u := int64(1); u < 4; u++ {
		oneServerWrite = append(oneServerWrite, unit(u, 8000, 0)...)
	}
	// A 1,000-byte and a 100-byte piece 100 bytes apart on server 0, and
	// servers 1-3's 8,000-byte pieces.
	twoOnServer0 := []Run{{Off: 64, Len: 1000}, {Off: 1164, Len: 100}}
	for u := int64(1); u < 4; u++ {
		twoOnServer0 = append(twoOnServer0, unit(u, 8000, 0)...)
	}
	// Three 1,024-byte pieces on each of four servers, with holes of
	// (600, 900), (800, 800), (700, 700) and (600, 600) bytes: the
	// budget, 12,288/4 = 3,072 bytes, buys the three of 600, server 0's
	// and then server 3's, and server 2's first 700; its second would
	// pass the budget, which ends the grants.
	var everywhere []Run
	for s, h := range [][2]int64{{600, 900}, {800, 800}, {700, 700}, {600, 600}} {
		everywhere = append(everywhere, unit(int64(s), 1024, 0, 1024+h[0], 2048+h[0]+h[1])...)
	}
	cases := []struct {
		name    string
		cost    CostModel
		write   bool
		servers int // 0: one
		runs    []Run
		inj     func() *FaultPoint // installed for the operation, and must fire
		// The charge: requests, seeks and device bytes, and the requests
		// per server when the store has several.
		reqs, seeks, bytes int64
		perServer          []int64
	}{
		// The hole is half of the smaller neighbour, which the budget of
		// 500/4 = 125 bytes takes; one byte more, which no neighbour caps,
		// it takes too.
		{name: "half-hole", cost: bench, runs: []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}}, reqs: 1, seeks: 1, bytes: 600},
		{name: "half-hole-plus-one", cost: bench, runs: []Run{{Off: 100, Len: 200}, {Off: 401, Len: 300}}, reqs: 1, seeks: 1, bytes: 601},
		// The hole is exactly a quarter of the payload: 125 = 500/4.
		{name: "budget-exact", cost: bench, runs: []Run{{Off: 100, Len: 200}, {Off: 425, Len: 300}}, reqs: 1, seeks: 1, bytes: 625},
		{name: "budget-plus-one", cost: bench, runs: []Run{{Off: 100, Len: 200}, {Off: 426, Len: 300}}, reqs: 2, seeks: 2, bytes: 500},
		// No neighbour caps a hole: this one is twice the segment after
		// it, and within the budget, 1,100/4 = 275 bytes.
		{name: "budget-larger-than-neighbour", cost: bench, runs: []Run{{Off: 100, Len: 1000}, {Off: 1300, Len: 100}}, reqs: 1, seeks: 1, bytes: 1300},
		// The same 100 bytes further on: a 300-byte hole, over budget.
		{name: "budget-larger-than-neighbour-over-budget", cost: bench, runs: []Run{{Off: 100, Len: 1000}, {Off: 1400, Len: 100}}, reqs: 2, seeks: 2, bytes: 1100},
		// Three 100-byte holes and a 225-byte budget: the first two, in
		// submission order, are granted.
		{name: "chain-budget", cost: bench, runs: []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}, {Off: 800, Len: 300}, {Off: 1200, Len: 100}}, reqs: 2, seeks: 2, bytes: 1100},
		{name: "no-seek-latency", cost: noSeek, runs: []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}}, reqs: 2, seeks: 2, bytes: 500},
		{name: "under-break-even", cost: tiny, runs: []Run{{Off: 1000, Len: 1000}, {Off: 2499, Len: 1000}}, reqs: 1, seeks: 1, bytes: 2499},
		{name: "at-break-even", cost: tiny, runs: []Run{{Off: 1000, Len: 1000}, {Off: 2500, Len: 1000}}, reqs: 2, seeks: 2, bytes: 2000},
		// The budget is the dispatch's, so one server's equal holes are
		// read through although they are most of its own list.
		{name: "budget-one-server", cost: bench, servers: 4, runs: oneServer,
			reqs: 4, seeks: 4, bytes: 3584 + 3*8000, perServer: []int64{1, 1, 1, 1}},
		{name: "budget-everywhere", cost: bench, servers: 4, runs: everywhere,
			reqs: 8, seeks: 8, bytes: 12*1024 + 2500, perServer: []int64{2, 3, 2, 1}},
		{name: "budget-no-seek-latency", cost: noSeek, servers: 4, runs: oneServer,
			reqs: 7, seeks: 7, bytes: 2048 + 3*8000, perServer: []int64{4, 1, 1, 1}},
		// Server 0's run is a read of its interior and a write of its
		// span: two requests and two seeks instead of four.
		{name: "budget-write", cost: bench, write: true, servers: 4, runs: oneServerWrite,
			reqs: 5, seeks: 5, bytes: 1408 + 2432 + 3*8000, perServer: []int64{2, 1, 1, 1}},
		// Server 0's one hole, granted (300 of a 2,510-byte budget), saves
		// no request as a read-modify-write: its two segments stay plain
		// writes.
		{name: "write-run-of-two", cost: bench, write: true, servers: 4, runs: twoOnServer0,
			reqs: 5, seeks: 5, bytes: 1100 + 3*8000, perServer: []int64{2, 1, 1, 1}},
		// Each hole costs 2×100 + 300 bytes of an 80-byte budget.
		{name: "write-over-budget", cost: bench, write: true, runs: []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}, {Off: 800, Len: 300}}, reqs: 3, seeks: 3, bytes: 800},
		{name: "write-no-seek-latency", cost: noSeek, write: true, servers: 4, runs: oneServerWrite,
			reqs: 7, seeks: 7, bytes: 2048 + 3*8000, perServer: []int64{4, 1, 1, 1}},
		// Server 0's read leg is refused: its run goes out as four plain
		// writes, and the write does not fail.
		{name: "write-read-leg-refused", cost: bench, write: true, servers: 4, runs: oneServerWrite,
			inj:  func() *FaultPoint { return &FaultPoint{Server: 0, Op: FaultReads} },
			reqs: 7, seeks: 7, bytes: 2048 + 3*8000, perServer: []int64{4, 1, 1, 1}},
	}
	for _, sched := range []Scheduler{FIFO, Elevator} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%v", tc.name, map[Scheduler]string{FIFO: "FIFO", Elevator: "Elevator"}[sched]), func(t *testing.T) {
				servers := max(tc.servers, 1)
				fs, err := Create("read-through", Options{Servers: servers, StripeSize: readThroughStripe, Scheduler: sched, Cost: tc.cost})
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				old := pattern(4*readThroughStripe, 1)
				if _, err := fs.WriteAt(old, 0); err != nil {
					t.Fatal(err)
				}
				fs.ResetStats()
				var inj *FaultPoint
				if tc.inj != nil {
					inj = tc.inj()
					fs.SetInjector(inj)
				}
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
				if inj != nil {
					if !inj.Fired() {
						t.Error("the injector never refused a request")
					}
					fs.SetInjector(nil)
				}

				st := fs.Stats()
				if st.Requests() != tc.reqs || st.Seeks() != tc.seeks || st.Bytes() != tc.bytes {
					t.Errorf("charged %d requests, %d seeks, %d device bytes; want %d, %d, %d",
						st.Requests(), st.Seeks(), st.Bytes(), tc.reqs, tc.seeks, tc.bytes)
				}
				for s, w := range tc.perServer {
					if ps := st.PerServer[s]; ps.Reads+ps.Writes != w {
						t.Errorf("server %d charged %d requests, want %d", s, ps.Reads+ps.Writes, w)
					}
				}
				if w := busy(tc.cost, tc.reqs, tc.seeks, tc.bytes); st.BusySum() != w {
					t.Errorf("busy %v, want %v", st.BusySum(), w)
				}
				share := int64(holeBudgetShare)
				if tc.write {
					share = writeBudgetShare
				}
				if extra := st.Bytes() - payload; share*extra > payload {
					t.Errorf("moved %d device bytes beyond the payload, over 1/%d of its %d bytes", extra, share, payload)
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
	readThroughParityWrite(t)
	t.Run("interleaved/Elevator", readThroughInterleaved)
}

// readThroughDegraded: on a 6+2 store, a read list whose pieces the
// healthy servers read through reconstructs the refused segments' bytes
// and nothing more — with server 0 dead to reads, and with one segment
// in the middle of a dense run refused. No run reads through a refused
// segment: the run is split there.
func readThroughDegraded(t *testing.T) {
	const stripe = 4096
	// Eight 384-byte rows at a 512-byte pitch in each of the first 12
	// stripe units, parity rows 0 and 1: a dense run on each of servers
	// 0-6. Server 1 holds units 1 and 6.
	var rows []Run
	for u := int64(0); u < 12; u++ {
		for r := int64(0); r < 8; r++ {
			rows = append(rows, Run{Off: u*stripe + r*512 + 64, Len: 384})
		}
	}
	// Server 1's local offsets 64 (1,000 bytes), 1,064 (100 bytes) and
	// 1,164 (1,000 bytes): refusing the middle one leaves a hole the
	// budget would take.
	small := []Run{{Off: stripe + 64, Len: 1000}, {Off: stripe + 1064, Len: 100}, {Off: stripe + 1164, Len: 1000}}
	refuseAt := func(refusedOff int64) Injector {
		return injectorFunc(func(server int, write bool, off, _ int64) error {
			if server == 1 && !write && off == refusedOff {
				return errInjected
			}
			return nil
		})
	}
	cases := []struct {
		name string
		runs []Run
		inj  Injector
		// The segments and bytes reconstructed.
		refused, reconBytes int64
		// Server 1's read requests: none when it is dead; else its
		// segments are one dense run, split where the refusal is.
		reads1 int64
	}{
		{"dead-server", rows, &FaultPoint{Server: 1, Op: FaultReads, Permanent: true}, 16, 16 * 384, 0},
		// Server 1's unit 1 row 3.
		{"one-refused", rows, refuseAt(3*512 + 64), 1, 384, 2},
		{"one-refused-small-hole", small, refuseAt(1064), 1, 100, 2},
	}
	for _, sched := range []Scheduler{FIFO, Elevator} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("6+2/%s/%v", tc.name, map[Scheduler]string{FIFO: "FIFO", Elevator: "Elevator"}[sched]), func(t *testing.T) {
				fs := degradedFS(t, Options{Servers: 8, Parity: 2, StripeSize: stripe, Scheduler: sched, Cost: benchCost()})
				all := pattern(12*stripe, 3)
				if _, err := fs.WriteAt(all, 0); err != nil {
					t.Fatal(err)
				}
				fs.SetInjector(tc.inj)
				fs.ResetStats()
				var payload int64
				for _, r := range tc.runs {
					payload += r.Len
				}
				mem, intact := guarded(tc.runs)
				if n, err := fs.ReadVec(tc.runs, mem); n != payload || err != nil {
					t.Fatalf("ReadVec = %d, %v", n, err)
				}
				st := fs.Stats()
				if st.DegradedReads != tc.refused || st.ReconstructBytes != tc.reconBytes {
					t.Errorf("reconstructed %d segments, %d bytes; want %d, %d",
						st.DegradedReads, st.ReconstructBytes, tc.refused, tc.reconBytes)
				}
				if got := st.PerServer[1].Reads; got != tc.reads1 {
					t.Errorf("server 1 served %d read requests, want %d", got, tc.reads1)
				}
				if !intact() {
					t.Error("bytes outside the segments' memory changed")
				}
				got := bytes.Join(mem, nil)
				at := int64(0)
				for _, r := range tc.runs {
					if !bytes.Equal(got[at:at+r.Len], all[r.Off:r.Off+r.Len]) {
						t.Fatalf("run %+v read the wrong bytes", r)
					}
					at += r.Len
				}
			})
		}
	}
}

// readThroughParityWrite: on a 6+2 store, a write whose runs the data
// servers join as reads of their holes and writes of their spans keeps
// parity exact: with any one data server dead to reads, every byte reads
// back as written, through reconstruction.
func readThroughParityWrite(t *testing.T) {
	const stripe = 4096
	// Eight 384-byte rows at a 512-byte pitch in each of the first 12
	// stripe units, and the next 6 units whole: 61,440 bytes, a budget of
	// 6,144 for 640-byte holes (2×128 + 384). Server 0's seven holes in
	// unit 0 and server 1's first two in unit 1 are granted.
	var runs []Run
	var payload int64
	for u := int64(0); u < 12; u++ {
		for r := int64(0); r < 8; r++ {
			runs = append(runs, Run{Off: u*stripe + r*512 + 64, Len: 384})
		}
	}
	runs = append(runs, Run{Off: 12 * stripe, Len: 6 * stripe})
	for _, r := range runs {
		payload += r.Len
	}
	for _, sched := range []Scheduler{FIFO, Elevator} {
		t.Run(fmt.Sprintf("6+2-write/%v", map[Scheduler]string{FIFO: "FIFO", Elevator: "Elevator"}[sched]), func(t *testing.T) {
			fs := degradedFS(t, Options{Servers: 8, Parity: 2, StripeSize: stripe, Scheduler: sched, Cost: benchCost()})
			want := pattern(18*stripe, 5)
			if _, err := fs.WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}
			fs.ResetStats()
			src := pattern(int(payload), 6)
			if n, err := fs.WriteV(runs, src); n != payload || err != nil {
				t.Fatalf("WriteV = %d, %v", n, err)
			}
			at := int64(0)
			for _, r := range runs {
				at += int64(copy(want[r.Off:r.Off+r.Len], src[at:]))
			}
			st := fs.Stats()
			for s, w := range []int64{1, 1} {
				if got := st.PerServer[s].Reads; got != w {
					t.Errorf("server %d charged %d read legs, want %d", s, got, w)
				}
			}
			for dead := 0; dead < 6; dead++ {
				fs.SetInjector(&FaultPoint{Server: dead, Op: FaultReads, Permanent: true})
				fs.ResetStats()
				got := make([]byte, len(want))
				if _, err := fs.ReadAt(got, 0); err != nil {
					t.Fatal(err)
				}
				if fs.Stats().DegradedReads == 0 {
					t.Errorf("server %d dead: nothing was reconstructed", dead)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("server %d dead: the degraded read differs from the data", dead)
				}
			}
		})
	}
}

// readThroughInterleaved: two read dispatches swept together by one
// elevator each read through only the holes their own budget granted,
// and only behind a segment of their own. Both are sorted into batches
// as submit sorts them and handed to one sweep, as an elevator that
// froze both would sweep them.
func readThroughInterleaved(t *testing.T) {
	// A: 27,000 bytes, budget 6,750; its three 1,000-byte holes are
	// granted. B: 6,000 bytes, budget 1,500; of its two 1,000-byte holes
	// only the first is, and its 26,600-byte one is not. B's 200-byte
	// piece sits in A's last hole, which A then does not read through.
	a := []Run{{Off: 0, Len: 1000}, {Off: 2000, Len: 1000}, {Off: 4000, Len: 1000}, {Off: 6000, Len: 24000}}
	b := []Run{{Off: 5200, Len: 200}, {Off: 32000, Len: 1000}, {Off: 34000, Len: 1000}, {Off: 36000, Len: 3800}}
	// The sweep's requests: A0-A2 with two holes, B's 200 bytes, A3,
	// B1-B2 with one hole, B3.
	const reqs, hole = 5, 2000 + 1000
	fs, err := Create("read-through", Options{Servers: 1, StripeSize: 1 << 20, Scheduler: Elevator, Cost: benchCost()})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	all := pattern(64<<10, 4)
	if _, err := fs.WriteAt(all, 0); err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()
	sv := fs.servers[0]
	var pending []pend
	var payload int64
	bufs := make([][]byte, 2)
	for k, runs := range [][]Run{a, b} {
		var n int64
		for _, r := range runs {
			n += r.Len
		}
		payload += n
		bufs[k] = make([]byte, n)
		d := fs.newDispatch(Contig(bufs[k]), false)
		cur := Cursor{Mem: d.mem}
		for _, r := range runs {
			fs.appendSegs(d, r.Off, r.Len, &cur)
		}
		fs.accept(d)
		bt := &d.batches[0]
		bt.left = len(bt.idx)
		sv.queued.Add(int64(bt.left))
		pending = admit(pending, bt)
	}
	slices.SortStableFunc(pending, byOffset)
	sv.sweep(pending)
	st := fs.Stats()
	if st.Requests() != reqs || st.BytesRead() != payload+hole {
		t.Errorf("charged %d requests, %d device bytes; want %d, %d", st.Requests(), st.BytesRead(), reqs, payload+hole)
	}
	for k, runs := range [][]Run{a, b} {
		at := int64(0)
		for _, r := range runs {
			if !bytes.Equal(bufs[k][at:at+r.Len], all[r.Off:r.Off+r.Len]) {
				t.Errorf("run %+v read the wrong bytes", r)
			}
			at += r.Len
		}
	}
}

// TestReadThroughDisciplinesAgree reads and writes seeded single-caller
// lists — sorted and non-overlapping, as section I/O sends them — over
// 1-8 servers under the benchmark's cost model, once under FIFO and
// once under Elevator. One service loop serves both, and a lone sorted
// list is the same sweep either way: every server charges the same
// requests, seeks and device bytes, and the device bytes beyond the
// payload stay within the op's budget: 1/4 of the payload for a read,
// 1/10 for a write.
func TestReadThroughDisciplinesAgree(t *testing.T) {
	var fifoReqs, elevReqs [2]int64
	var legs int64 // the read legs of joined write runs
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{
			Servers:    1 + rng.Intn(8),
			StripeSize: []int64{256, 512, 1024, 4096}[rng.Intn(4)],
			Cost:       benchCost(),
		}
		var runs []Run
		var off, payload int64
		for k := 1 + rng.Intn(40); k > 0; k-- {
			switch rng.Intn(4) {
			case 0: // touching
			case 1:
				off += 1 + rng.Int63n(64)
			default:
				off += rng.Int63n(2 * opts.StripeSize)
			}
			n := 1 + rng.Int63n(2*opts.StripeSize)
			runs = append(runs, Run{Off: off, Len: n})
			off += n
			payload += n
		}
		old, src := pattern(int(off), seed), pattern(int(payload), -seed)
		want := bytes.Clone(old)
		at := int64(0)
		for _, r := range runs {
			at += int64(copy(want[r.Off:r.Off+r.Len], src[at:]))
		}
		for k, write := range []bool{false, true} {
			var stats [2]Stats
			for d, sched := range []Scheduler{FIFO, Elevator} {
				opts.Scheduler = sched
				fs, err := Create("agree", opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fs.WriteAt(old, 0); err != nil {
					t.Fatal(err)
				}
				fs.ResetStats()
				buf := make([]byte, payload)
				if write {
					if _, err := fs.WriteV(runs, src); err != nil {
						t.Fatal(err)
					}
					stats[d] = fs.Stats()
					back := make([]byte, off)
					if _, err := fs.ReadAt(back, 0); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(back, want) {
						t.Fatalf("seed %d %v: the store's bytes differ from the write's", seed, sched)
					}
				} else {
					if _, err := fs.ReadV(runs, buf); err != nil {
						t.Fatal(err)
					}
					stats[d] = fs.Stats()
					at := int64(0)
					for _, r := range runs {
						if !bytes.Equal(buf[at:at+r.Len], old[r.Off:r.Off+r.Len]) {
							t.Fatalf("seed %d %v: run %+v read the wrong bytes", seed, sched, r)
						}
						at += r.Len
					}
				}
				fs.Close()
			}
			fifo, elev := stats[0], stats[1]
			op, share := "read", int64(holeBudgetShare)
			if write {
				op, share = "write", writeBudgetShare
			}
			if extra := fifo.Bytes() - payload; share*extra > payload {
				t.Errorf("seed %d: a %s moved %d device bytes beyond its payload, over 1/%d of its %d bytes",
					seed, op, extra, share, payload)
			}
			for s := range fifo.PerServer {
				f, e := &fifo.PerServer[s], &elev.PerServer[s]
				if f.Reads != e.Reads || f.Writes != e.Writes || f.Seeks != e.Seeks ||
					f.BytesRead != e.BytesRead || f.BytesWritten != e.BytesWritten {
					t.Errorf("seed %d server %d %s: FIFO charged %d+%d requests, %d seeks, %d+%d device bytes; Elevator %d+%d, %d, %d+%d",
						seed, s, op, f.Reads, f.Writes, f.Seeks, f.BytesRead, f.BytesWritten,
						e.Reads, e.Writes, e.Seeks, e.BytesRead, e.BytesWritten)
				}
			}
			if write {
				legs += fifo.Reads()
			}
			fifoReqs[k] += fifo.Requests()
			elevReqs[k] += elev.Requests()
		}
	}
	if legs == 0 {
		t.Error("no write joined a run through holes")
	}
	t.Logf("200 lists: reads, FIFO charged %d requests, Elevator %d; writes, %d and %d, %d of them read legs",
		fifoReqs[0], elevReqs[0], fifoReqs[1], elevReqs[1], legs)
}
