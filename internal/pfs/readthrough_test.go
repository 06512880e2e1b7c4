package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
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
// disciplines: a run joined that way is one request, charged its span
// (at most one seek, one overhead, byte time for holes too), while only
// the segments' bytes reach memory. A hole is read through by the
// per-pair rule (at most half of each neighbour), or out of its read
// dispatch's budget: 1/8 of the payload, spent across all servers on
// the other holes that pay, whatever their neighbours, smallest first.
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
	// each of servers 1-3: the budget is 26,048/8 = 3,256 bytes.
	oneServer := unit(0, 512, 0, 1024, 2048, 3072)
	for u := int64(1); u < 4; u++ {
		oneServer = append(oneServer, unit(u, 8000, 0)...)
	}
	// Three 1,024-byte pieces on each of four servers, with holes of
	// (600, 900), (800, 800), (700, 700) and (600, 600) bytes: the
	// budget, 12,288/8 = 1,536 bytes, buys the two smallest, 600 and
	// 600, taken in submission order: server 0's, then server 3's first.
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
		// The charge: requests, seeks and device bytes, and the requests
		// per server when the store has several.
		reqs, seeks, bytes int64
		perServer          []int64
	}{
		// The hole is exactly half of the smaller neighbour.
		{name: "half-hole", cost: bench, runs: []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}}, reqs: 1, seeks: 1, bytes: 600},
		// One byte more, and past 1/8 of the payload: 101 > 500/8.
		{name: "half-hole-plus-one", cost: bench, runs: []Run{{Off: 100, Len: 200}, {Off: 401, Len: 300}}, reqs: 2, seeks: 2, bytes: 500},
		// Each hole is judged against the segments beside it: the last is
		// larger than the 99 bytes after it, so the per-pair rule refuses
		// it, but it is within the budget, 899/8 = 112 bytes.
		{name: "budget-larger-than-neighbour", cost: bench, runs: []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}, {Off: 800, Len: 300}, {Off: 1200, Len: 99}}, reqs: 1, seeks: 1, bytes: 1199},
		// The same run 100 bytes further on: a 200-byte hole, over budget.
		{name: "budget-larger-than-neighbour-over-budget", cost: bench, runs: []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}, {Off: 800, Len: 300}, {Off: 1300, Len: 99}}, reqs: 2, seeks: 2, bytes: 1099},
		// The same hole beside a 100-byte segment is within the budget.
		{name: "chain-budget", cost: bench, runs: []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}, {Off: 800, Len: 300}, {Off: 1200, Len: 100}}, reqs: 1, seeks: 1, bytes: 1200},
		{name: "no-seek-latency", cost: noSeek, runs: []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}}, reqs: 2, seeks: 2, bytes: 500},
		{name: "under-break-even", cost: tiny, runs: []Run{{Off: 1000, Len: 1000}, {Off: 2499, Len: 1000}}, reqs: 1, seeks: 1, bytes: 2499},
		{name: "at-break-even", cost: tiny, runs: []Run{{Off: 1000, Len: 1000}, {Off: 2500, Len: 1000}}, reqs: 2, seeks: 2, bytes: 2000},
		{name: "write", cost: bench, write: true, runs: []Run{{Off: 100, Len: 200}, {Off: 400, Len: 300}, {Off: 800, Len: 300}}, reqs: 3, seeks: 3, bytes: 800},
		// The budget is the dispatch's, so one server's equal holes are
		// read through although they are most of its own list.
		{name: "budget-one-server", cost: bench, servers: 4, runs: oneServer,
			reqs: 4, seeks: 4, bytes: 3584 + 3*8000, perServer: []int64{1, 1, 1, 1}},
		{name: "budget-everywhere", cost: bench, servers: 4, runs: everywhere,
			reqs: 10, seeks: 10, bytes: 12*1024 + 1200, perServer: []int64{2, 3, 3, 2}},
		{name: "budget-write", cost: bench, write: true, servers: 4, runs: oneServer,
			reqs: 7, seeks: 7, bytes: 2048 + 3*8000, perServer: []int64{4, 1, 1, 1}},
		{name: "budget-no-seek-latency", cost: noSeek, servers: 4, runs: oneServer,
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
				// The multi-server lists have no hole the per-pair rule takes:
				// every hole byte they read is the budget's.
				if !tc.write && tc.servers > 0 && 8*(st.BytesRead()-payload) > payload {
					t.Errorf("read %d hole bytes, over 1/8 of the %d-byte payload", st.BytesRead()-payload, payload)
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
	t.Run("interleaved/Elevator", readThroughInterleaved)
}

// readThroughDegraded: on a 6+2 store, a read list whose pieces the
// healthy servers read through reconstructs the refused segments' bytes
// and nothing more — with server 0 dead to reads, and with one segment
// in the middle of a dense run refused. Neither rule reads through a
// refused segment: the run is split there.
func readThroughDegraded(t *testing.T) {
	const stripe = 4096
	// Eight 384-byte rows at a 512-byte pitch in each of the first 12
	// stripe units: a dense run on every data server.
	var rows []Run
	for u := int64(0); u < 12; u++ {
		for r := int64(0); r < 8; r++ {
			rows = append(rows, Run{Off: u*stripe + r*512 + 64, Len: 384})
		}
	}
	// Server 1's local offsets 64 (1,000 bytes), 1,064 (100 bytes) and
	// 1,164 (1,000 bytes): refusing the middle one leaves a hole the
	// per-pair rule would take.
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

// readThroughInterleaved: two read dispatches swept together by one
// elevator each read through only the holes their own budget granted,
// and only behind a segment of their own. Both are sorted into batches
// as submit sorts them and handed to one sweep, as an elevator that
// froze both would sweep them.
func readThroughInterleaved(t *testing.T) {
	// A: 27,000 bytes, budget 3,375; its three 1,000-byte holes, each
	// equal to a neighbour, are granted. B: 10,200 bytes, budget 1,275;
	// of its two 1,000-byte holes only the first is. B's 200-byte piece
	// sits in A's last hole, which A then does not read through.
	a := []Run{{Off: 0, Len: 1000}, {Off: 2000, Len: 1000}, {Off: 4000, Len: 1000}, {Off: 6000, Len: 24000}}
	b := []Run{{Off: 5200, Len: 200}, {Off: 32000, Len: 1000}, {Off: 34000, Len: 1000}, {Off: 36000, Len: 8000}}
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

// TestReadThroughDisciplinesAgree reads seeded single-caller read lists
// — sorted and non-overlapping, as section I/O sends them — over 1-8
// servers under the benchmark's cost model, once under FIFO and once
// under Elevator. Both read through the same holes, so they charge the
// same seeks and device bytes on every server, and the hole bytes read
// beyond the per-pair rule stay within 1/8 of the payload. Their request
// counts differ by the touching segments alone, which only the elevator
// merges into one request (FIFO serves the second without a seek).
func TestReadThroughDisciplinesAgree(t *testing.T) {
	var fifoReqs, elevReqs int64
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
		all := pattern(int(off), seed)
		var stats [2]Stats
		var touching, pairHoles int64
		for k, sched := range []Scheduler{FIFO, Elevator} {
			opts.Scheduler = sched
			fs, err := Create("agree", opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.WriteAt(all, 0); err != nil {
				t.Fatal(err)
			}
			fs.ResetStats()
			buf := make([]byte, payload)
			if _, err := fs.ReadV(runs, buf); err != nil {
				t.Fatal(err)
			}
			stats[k] = fs.Stats()
			at := int64(0)
			for _, r := range runs {
				if !bytes.Equal(buf[at:at+r.Len], all[r.Off:r.Off+r.Len]) {
					t.Fatalf("seed %d %v: run %+v read the wrong bytes", seed, sched, r)
				}
				at += r.Len
			}
			if k == 0 {
				// Per server, the consecutive segments that touch, and the
				// holes the per-pair rule reads through.
				end, last := make([]int64, opts.Servers), make([]int64, opts.Servers)
				for i := range end {
					end[i] = -1
				}
				for _, r := range runs {
					fs.forEachSegment(r.Off, r.Len, func(s int, so, n int64) {
						if g := so - end[s]; end[s] >= 0 && g == 0 {
							touching++
						} else if end[s] >= 0 && 2*g <= min(last[s], n) && pays(opts.Cost, g) {
							pairHoles += g
						}
						end[s], last[s] = so+n, n
					})
				}
			}
			fs.Close()
		}
		fifo, elev := stats[0], stats[1]
		// The op's hole budget: 1/8 of its payload beyond the per-pair holes.
		if beyond := fifo.BytesRead() - payload - pairHoles; 8*beyond > payload {
			t.Errorf("seed %d: read %d hole bytes beyond the per-pair rule's, over 1/8 of the %d-byte payload",
				seed, beyond, payload)
		}
		for s := range fifo.PerServer {
			f, e := &fifo.PerServer[s], &elev.PerServer[s]
			if f.Seeks != e.Seeks || f.BytesRead != e.BytesRead {
				t.Errorf("seed %d server %d: FIFO charged %d seeks, %d device bytes; Elevator %d, %d",
					seed, s, f.Seeks, f.BytesRead, e.Seeks, e.BytesRead)
			}
		}
		fifoReqs += fifo.Requests()
		elevReqs += elev.Requests()
		if d := fifo.Requests() - elev.Requests(); d != touching {
			t.Errorf("seed %d: FIFO charged %d requests, Elevator %d; want a difference of the %d touching pairs",
				seed, fifo.Requests(), elev.Requests(), touching)
		}
	}
	t.Logf("200 lists: FIFO charged %d requests, Elevator %d", fifoReqs, elevReqs)
}
