package pfs

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

// degradedFS builds a parity-striped in-memory FS.
func degradedFS(t *testing.T, opts Options) *FS {
	t.Helper()
	fs, err := Create("degraded", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func pattern(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// failReads makes server s's reads fail in service from now on: its
// file is swapped for one open for writing only, so the request reaches
// the server and is charged, and the load fails.
func failReads(t *testing.T, fs *FS, s int) {
	t.Helper()
	sv := fs.servers[s]
	sv.mu.Lock()
	defer sv.mu.Unlock()
	f, err := os.OpenFile(sv.f.Name(), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := sv.f
	sv.f = f
	t.Cleanup(func() { old.Close() })
}

// TestDegradedReadDeadServer: with one data server permanently dead to
// reads, a striped read completes via reconstruction, byte-identical
// to the healthy read, and the degraded counters move.
func TestDegradedReadDeadServer(t *testing.T) {
	fs := degradedFS(t, Options{Servers: 5, Parity: 2, StripeSize: 64})
	want := pattern(5*64*3, 1) // several full parity rows plus change
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	healthy := make([]byte, len(want))
	if _, err := fs.ReadAt(healthy, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healthy, want) {
		t.Fatal("healthy read differs from written data")
	}
	fs.SetInjector(&FaultPoint{Server: 1, Op: FaultReads, Permanent: true})
	got := make([]byte, len(want))
	if _, err := fs.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded read differs from healthy read")
	}
	st := fs.Stats()
	if st.DegradedReads == 0 {
		t.Fatal("no degraded reads counted")
	}
	if st.ReconstructBytes == 0 {
		t.Fatal("no reconstructed bytes counted")
	}
}

// TestDegradedReadUnalignedRanges sweeps odd offsets/lengths (partial
// stripe units, cross-row spans) against a dead server.
func TestDegradedReadUnalignedRanges(t *testing.T) {
	const stripe = 32
	fs := degradedFS(t, Options{Servers: 4, Parity: 1, StripeSize: stripe})
	want := pattern(3*stripe*7+11, 2)
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(&FaultPoint{Server: 0, Op: FaultReads, Permanent: true})
	for _, r := range []struct{ off, n int64 }{
		{0, 1}, {1, stripe - 2}, {stripe - 1, 2}, {0, 3 * stripe},
		{stripe + 5, 4*stripe + 7}, {2*3*stripe - 3, 3*stripe + 6},
	} {
		got := make([]byte, r.n)
		if _, err := fs.ReadAt(got, r.off); err != nil {
			t.Fatalf("read(%d,%d): %v", r.off, r.n, err)
		}
		if !bytes.Equal(got, want[r.off:r.off+r.n]) {
			t.Fatalf("read(%d,%d) differs after reconstruction", r.off, r.n)
		}
	}
}

// TestDegradedWriteParityMaintained: partial overwrites at odd offsets
// must keep parity consistent, so a later degraded read still matches.
func TestDegradedWriteParityMaintained(t *testing.T) {
	const stripe = 64
	fs := degradedFS(t, Options{Servers: 5, Parity: 2, StripeSize: stripe})
	want := pattern(5*stripe*4, 3)
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite a few odd sub-ranges, mirroring into want.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		off := rng.Int63n(int64(len(want)) - 1)
		n := 1 + rng.Int63n(int64(len(want))-off)
		upd := pattern(int(n), int64(100+i))
		if _, err := fs.WriteAt(upd, off); err != nil {
			t.Fatal(err)
		}
		copy(want[off:], upd)
	}
	for _, dead := range []int{0, 2} {
		fs.SetInjector(&FaultPoint{Server: dead, Op: FaultReads, Permanent: true})
		got := make([]byte, len(want))
		if _, err := fs.ReadAt(got, 0); err != nil {
			t.Fatalf("degraded read (server %d dead): %v", dead, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("degraded read differs after overwrites (server %d dead)", dead)
		}
		fs.SetInjector(nil)
	}
}

// TestDegradedReadVectored covers the ReadV path (and WriteVec-fed data)
// under a dead server.
func TestDegradedReadVectored(t *testing.T) {
	const stripe = 32
	fs := degradedFS(t, Options{Servers: 4, Parity: 1, StripeSize: stripe, Scheduler: Elevator})
	want := pattern(3*stripe*5, 5)
	if _, err := fs.WriteVec([]Run{{Off: 0, Len: int64(len(want))}}, Contig(want)); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(&FaultPoint{Server: 2, Op: FaultReads, Permanent: true})
	runs := []Run{{Off: 3, Len: 40}, {Off: 100, Len: 170}, {Off: 400, Len: 64}}
	var total int64
	for _, r := range runs {
		total += r.Len
	}
	buf := make([]byte, total)
	if _, err := fs.ReadV(runs, buf); err != nil {
		t.Fatalf("degraded ReadV: %v", err)
	}
	var at int64
	for _, r := range runs {
		if !bytes.Equal(buf[at:at+r.Len], want[r.Off:r.Off+r.Len]) {
			t.Fatalf("run at %d differs", r.Off)
		}
		at += r.Len
	}
}

// TestDegradedReadTooManyFailures: losing more servers than parity can
// cover must surface an error, not hang or fabricate bytes.
func TestDegradedReadTooManyFailures(t *testing.T) {
	fs := degradedFS(t, Options{Servers: 4, Parity: 1, StripeSize: 32})
	want := pattern(3*32*2, 6)
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(Multi{
		&FaultPoint{Server: 0, Op: FaultReads, Permanent: true},
		&FaultPoint{Server: 1, Op: FaultReads, Permanent: true},
	})
	got := make([]byte, len(want))
	if _, err := fs.ReadAt(got, 0); err == nil {
		t.Fatal("read with two dead servers and one parity shard should fail")
	}
}

// TestDegradedReadDeadline: a straggler far beyond the deadline is
// abandoned and reconstructed; the read returns correct bytes well
// before the straggler would have finished.
func TestDegradedReadDeadline(t *testing.T) {
	const stripe = 1 << 10
	slowSvc := 50 * time.Millisecond
	fs := degradedFS(t, Options{
		Servers:    5,
		Parity:     1,
		StripeSize: stripe,
		Cost: CostModel{
			RequestOverhead: time.Millisecond,
			RealTime:        true,
			SlowFactor:      []float64{float64(slowSvc / time.Millisecond)},
		},
	})
	want := pattern(4*stripe*2, 7) // two rows: server 0 holds a data unit of row 0 only
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	start := time.Now()
	if _, err := fs.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	wall := time.Since(start)
	if !bytes.Equal(got, want) {
		t.Fatal("deadline-reconstructed read differs")
	}
	if st := fs.Stats(); st.DegradedReads == 0 {
		t.Fatal("straggler segments were not reconstructed")
	}
	// The straggler owes 1 unit, one 50 ms request; the
	// deadline is 3 x the nominal per-server time (a few ms). Allow
	// generous slack for CI.
	if wall >= 2*slowSvc {
		t.Fatalf("read took %v, no better than waiting on the straggler", wall)
	}
}

// TestDegradedReadWaitsForLateHealthyServer: when the deadline fires, a
// healthy server that is merely late is waited for, not rebuilt. Server
// 1 holds a data unit of each of the two rows and serves them in one
// 8 ms request against a 6 ms deadline; with one coded unit a row, row
// 0, which rebuilt both its server 0 and server 1 units, would need the
// straggler's shard, 50 ms behind its own list.
func TestDegradedReadWaitsForLateHealthyServer(t *testing.T) {
	const stripe = 1 << 10
	slowSvc := 50 * time.Millisecond
	fs := degradedFS(t, Options{
		Servers:    5,
		Parity:     1,
		StripeSize: stripe,
		Cost: CostModel{
			RequestOverhead: time.Millisecond,
			RealTime:        true,
			SlowFactor:      []float64{float64(slowSvc / time.Millisecond), 8},
		},
	})
	want := pattern(4*stripe*2, 7) // two rows
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	start := time.Now()
	if _, err := fs.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	wall := time.Since(start)
	if !bytes.Equal(got, want) {
		t.Fatal("deadline-reconstructed read differs")
	}
	if st := fs.Stats(); st.DegradedReads == 0 {
		t.Fatal("straggler segments were not reconstructed")
	}
	if wall >= 2*slowSvc {
		t.Fatalf("read took %v, no better than fetching through the straggler", wall)
	}
}

// TestDegradedReadDeadlineAfterRefusal: a refused segment limits the
// deadline's rebuild only in its own row. With one coded unit a row,
// the injector refuses server 1's row-0 unit once; the straggler,
// server 0, serves its row-0 unit (a request of its own: every unit is
// read from byte 16 on) before the deadline, so both rebuilds fit in m:
// server 1's unit from its row-mates and parity, the straggler's later
// units from theirs. Waiting on the straggler instead takes its whole
// list: its data units of the 12 rows, 9 (the coded unit of rows 1, 6
// and 11 is server 0's).
func TestDegradedReadDeadlineAfterRefusal(t *testing.T) {
	const stripe, rows, gap = 256, 12, 16
	perReq := 12 * time.Millisecond // the straggler's; its peers take 1 ms
	fs := degradedFS(t, Options{
		Servers:    5,
		Parity:     1,
		StripeSize: stripe,
		// Deadline 3 x 10 x 1 ms = 30 ms (servers 1-3 hold 10 data units
		// each); the straggler's list 9 x 12 = 108 ms.
		Cost: CostModel{
			RequestOverhead: time.Millisecond,
			RealTime:        true,
			SlowFactor:      []float64{float64(perReq / time.Millisecond)},
		},
	})
	want := pattern(4*stripe*rows, 5)
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	var runs []Run
	var wantRead []byte
	for u := int64(0); u < 4*rows; u++ {
		runs = append(runs, Run{Off: u*stripe + gap, Len: stripe - gap})
		wantRead = append(wantRead, want[u*stripe+gap:(u+1)*stripe]...)
	}
	fp := &FaultPoint{Server: 1, Op: FaultReads}
	fs.SetInjector(fp)
	got := make([]byte, len(wantRead))
	start := time.Now()
	if _, err := fs.ReadV(runs, got); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	wall := time.Since(start)
	if !bytes.Equal(got, wantRead) {
		t.Fatal("deadline-reconstructed read differs")
	}
	if !fp.Fired() {
		t.Fatal("the injector refused nothing")
	}
	var list time.Duration // the straggler's
	for u := int64(0); u < 4*rows; u++ {
		if s, _ := fs.locate(u * stripe); s == 0 {
			list += perReq
		}
	}
	if wall >= list {
		t.Fatalf("read took %v, no better than waiting on the straggler's %v list", wall, list)
	}
}

// TestDegradedParityOffIdentical pins the m=0 degenerate case: layout,
// bytes, and per-server accounting are identical to a pre-parity FS.
func TestDegradedParityOffIdentical(t *testing.T) {
	a := degradedFS(t, Options{Servers: 4, StripeSize: 64})
	b := degradedFS(t, Options{Servers: 4, StripeSize: 64, Parity: 0, Cost: CostModel{RealTime: true}})
	data := pattern(4*64*3+17, 9)
	for _, fs := range []*FS{a, b} {
		if _, err := fs.WriteAt(data, 5); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := fs.ReadAt(got, 5); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read differs")
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Requests() != sb.Requests() || sa.Bytes() != sb.Bytes() || sa.Seeks() != sb.Seeks() {
		t.Fatalf("m=0 accounting differs from pre-parity: %+v vs %+v", sa, sb)
	}
	if sb.DegradedReads != 0 {
		t.Fatal("m=0 FS counted degraded reads")
	}
}

// TestDegradedGeometryValidation rejects nonsensical parity configs.
func TestDegradedGeometryValidation(t *testing.T) {
	if _, err := Create("bad", Options{Servers: 2, Parity: 2}); err == nil {
		t.Fatal("parity == servers should fail (no data servers)")
	}
	if _, err := Create("bad", Options{Servers: 2, Parity: -1}); err == nil {
		t.Fatal("negative parity should fail")
	}
}

// TestFaultSeekAccountingConsistent (bugfix pin): an injector-failed
// request must leave seek accounting exactly as if the failed request
// had never been submitted — on the queued path, the post-Close sync
// path, and a control FS that only ever saw the surviving requests.
func TestFaultSeekAccountingConsistent(t *testing.T) {
	const stripe = 64
	mk := func() *FS { return degradedFS(t, Options{Servers: 2, StripeSize: stripe}) }
	seed := pattern(2*stripe*4, 10)

	// Reads whose third segment (server 0, second unit) is refused.
	failing := func(fs *FS, inject bool) {
		if _, err := fs.WriteAt(seed, 0); err != nil {
			t.Fatal(err)
		}
		fs.ResetStats()
		if inject {
			// Segment order for [0, 3*stripe): s0u0, s1u0, s0u1 — fail
			// the third submission (server 0's second read).
			fs.SetInjector(&FaultPoint{Server: 0, Op: FaultReads, After: 1})
		}
		buf := make([]byte, 3*stripe)
		_, err := fs.ReadAt(buf, 0)
		if inject && err == nil {
			t.Fatal("injected read survived")
		}
		if !inject && err != nil {
			t.Fatal(err)
		}
		fs.SetInjector(nil)
		// Follow-up read that lands exactly where the failed request
		// would have ended: if the failed request had (wrongly)
		// advanced lastEnd, this would not charge a seek.
		if _, err := fs.ReadAt(make([]byte, stripe), 2*stripe); err != nil {
			t.Fatal(err)
		}
	}

	qfs := mk()
	failing(qfs, true)
	qStats := qfs.Stats()

	// Control: the same surviving requests, no injector — the first
	// vector only submits its pre-failure segments (s0u0, s1u0).
	cfs := mk()
	if _, err := cfs.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}
	cfs.ResetStats()
	if _, err := cfs.ReadAt(make([]byte, stripe), 0); err != nil { // s0u0
		t.Fatal(err)
	}
	if _, err := cfs.ReadAt(make([]byte, stripe), stripe); err != nil { // s1u0
		t.Fatal(err)
	}
	if _, err := cfs.ReadAt(make([]byte, stripe), 2*stripe); err != nil {
		t.Fatal(err)
	}
	cStats := cfs.Stats()
	for s := 0; s < 2; s++ {
		if qStats.PerServer[s].Seeks != cStats.PerServer[s].Seeks ||
			qStats.PerServer[s].Reads != cStats.PerServer[s].Reads ||
			qStats.PerServer[s].BytesRead != cStats.PerServer[s].BytesRead {
			t.Fatalf("server %d accounting diverged after injected failure: %+v vs control %+v",
				s, qStats.PerServer[s], cStats.PerServer[s])
		}
	}

	// Post-Close sync path must account identically to the queued path.
	sfs := mk()
	if _, err := sfs.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}
	sfs.stopQueues()
	sfs.ResetStats()
	sfs.SetInjector(&FaultPoint{Server: 0, Op: FaultReads, After: 1})
	if _, err := sfs.ReadAt(make([]byte, 3*stripe), 0); err == nil {
		t.Fatal("injected sync read survived")
	}
	sfs.SetInjector(nil)
	if _, err := sfs.ReadAt(make([]byte, stripe), 2*stripe); err != nil {
		t.Fatal(err)
	}
	sStats := sfs.Stats()
	for s := 0; s < 2; s++ {
		if sStats.PerServer[s].Seeks != qStats.PerServer[s].Seeks {
			t.Fatalf("server %d: sync-path seeks %d != queued-path seeks %d",
				s, sStats.PerServer[s].Seeks, qStats.PerServer[s].Seeks)
		}
	}
}

// TestFaultCloseDrainsDeadServerQueue (bugfix pin): Close must drain
// and stop cleanly while a permanently failed server has a backlog of
// degraded traffic in flight.
func TestFaultCloseDrainsDeadServerQueue(t *testing.T) {
	fs, err := Create("drain", Options{
		Servers:    4,
		Parity:     1,
		StripeSize: 256,
		Cost:       CostModel{RequestOverhead: 200 * time.Microsecond, RealTime: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(3*256*4, 11)
	if _, err := fs.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(&FaultPoint{Server: 1, Op: FaultAnyOp, Permanent: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; i < 4; i++ {
				fs.ReadAt(buf, int64((g*4+i)*128)%int64(len(data)-512))
			}
		}(g)
	}
	wg.Wait()
	done := make(chan error, 1)
	go func() { done <- fs.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung draining a dead server's queue")
	}
	// Post-Close reads fall into the sync path and still reconstruct.
	got := make([]byte, 512)
	if _, err := fs.ReadAt(got, 0); err != nil {
		t.Fatalf("post-Close degraded read: %v", err)
	}
	if !bytes.Equal(got, data[:512]) {
		t.Fatal("post-Close degraded read differs")
	}
}

// TestDegradedReadErrorIsInjected: when reconstruction is impossible,
// the surfaced error chains back to the injected failure.
func TestDegradedReadErrorIsInjected(t *testing.T) {
	fs := degradedFS(t, Options{Servers: 3, Parity: 1, StripeSize: 32})
	if _, err := fs.WriteAt(pattern(2*32*2, 12), 0); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("controller offline")
	fs.SetInjector(Multi{
		&FaultPoint{Server: 0, Op: FaultReads, Permanent: true, Err: sentinel},
		&FaultPoint{Server: 1, Op: FaultReads, Permanent: true, Err: sentinel},
	})
	_, err := fs.ReadAt(make([]byte, 2*32*2), 0)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the injected sentinel", err)
	}
}

// TestDegradedTornWriteKeepsParity (bugfix pin): a write whose dispatch
// fails part-way has still stored the segments ahead of the failure, so
// parity must be re-encoded before the error returns — otherwise a
// degraded read of a unit nobody wrote decodes through stale parity and
// returns wrong bytes without an error.
func TestDegradedTornWriteKeepsParity(t *testing.T) {
	const stripe = 64
	for _, vectored := range []bool{false, true} {
		fs := degradedFS(t, Options{Servers: 5, Parity: 2, StripeSize: stripe})
		if _, err := fs.WriteAt(pattern(3*stripe, 13), 0); err != nil {
			t.Fatal(err)
		}
		// Unit 0 lands on server 0, unit 1 is refused by server 1.
		fs.SetInjector(&FaultPoint{Server: 1, Op: FaultWrites})
		torn := pattern(2*stripe, 14)
		var err error
		if vectored {
			_, err = fs.WriteV([]Run{{Off: 0, Len: 2 * stripe}}, torn)
		} else {
			_, err = fs.WriteAt(torn, 0)
		}
		if err == nil {
			t.Fatalf("vectored=%v: write through a refusing server succeeded", vectored)
		}
		fs.SetInjector(nil)
		healthy := make([]byte, 3*stripe)
		if _, err := fs.ReadAt(healthy, 0); err != nil {
			t.Fatal(err)
		}
		for dead := 0; dead < 3; dead++ {
			fs.SetInjector(&FaultPoint{Server: dead, Op: FaultReads, Permanent: true})
			got := make([]byte, 3*stripe)
			if _, err := fs.ReadAt(got, 0); err != nil {
				t.Fatalf("vectored=%v: degraded read (server %d dead): %v", vectored, dead, err)
			}
			for u := 0; u < 3; u++ {
				if !bytes.Equal(got[u*stripe:(u+1)*stripe], healthy[u*stripe:(u+1)*stripe]) {
					t.Fatalf("vectored=%v: after a torn write, unit %d read with server %d dead differs from the healthy read",
						vectored, u, dead)
				}
			}
			fs.SetInjector(nil)
		}
	}
}

// TestParityUpdateAllocsFlat pins the parity engine's allocation count:
// a one-row write and its delta update allocate the same handful of
// descriptors whether the row has 2 data units or 12 — the pre-image
// slab, the row list and the coded units all come from pools.
func TestParityUpdateAllocsFlat(t *testing.T) {
	allocs := func(servers int) float64 {
		fs := degradedFS(t, Options{Servers: servers, Parity: 2, StripeSize: 256})
		run, buf := []Run{{Off: 100, Len: 300}}, pattern(300, 1) // two units of row 0
		write := func() {
			if _, err := fs.WriteV(run, buf); err != nil {
				t.Fatal(err)
			}
		}
		write()
		return testing.AllocsPerRun(50, write)
	}
	narrow, wide := allocs(4), allocs(14)
	if wide > narrow || wide > 2 {
		t.Fatalf("one-row WriteV with parity: %.0f allocs with k=2, %.0f with k=12; want O(1)", narrow, wide)
	}
}

// TestDegradedParityBatchesAndUnsortedRuns: a vectored write covering
// more rows than one parity batch, its runs handed over in descending
// order and several to a row, leaves every row's parity consistent —
// the pooled scratch is reused across batches and the row list has to
// be sorted and deduplicated first.
func TestDegradedParityBatchesAndUnsortedRuns(t *testing.T) {
	const stripe, k = 32, 3
	const rows = 2*parityRowBatch + 5
	fs := degradedFS(t, Options{Servers: k + 2, Parity: 2, StripeSize: stripe})
	want := make([]byte, rows*k*stripe)
	var runs []Run
	var buf []byte
	for off := int64(len(want)) - 40; off >= 0; off -= 40 { // 40 B every 40 B, descending
		runs = append(runs, Run{Off: off, Len: 40})
		p := pattern(40, off)
		copy(want[off:], p)
		buf = append(buf, p...)
	}
	if _, err := fs.WriteV(runs, buf); err != nil {
		t.Fatal(err)
	}
	for _, dead := range []int{0, 2} {
		fs.SetInjector(&FaultPoint{Server: dead, Op: FaultReads, Permanent: true})
		got := make([]byte, len(want)) // the few bytes below the last run were never written: zeros
		if _, err := fs.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		fs.SetInjector(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("degraded read (server %d dead) differs after a %d-row unsorted vectored write", dead, rows)
		}
	}
}

// TestDegradedReadSeedsFromRowMates: a vector that covers a whole parity
// row already holds k-1 row-mates of the unit a dead server loses, so
// the rebuild fetches one shard, a coded unit, and no data unit again
// — with the vector's runs ascending or descending, in row 0 (server 0
// holds data shard 0, servers 6 and 7 the coded units) and row 3 (server
// 0 holds data shard 5, servers 1 and 2 the coded units). Two runs per
// unit give every server two segments of the read: ascending, they
// touch and stream as one request; descending, they are two. The two
// fetches of the coded unit's halves go out sorted by offset, so they
// touch too.
func TestDegradedReadSeedsFromRowMates(t *testing.T) {
	const stripe, k, m = 64, 6, 2
	fs := degradedFS(t, Options{Servers: k + m, Parity: m, StripeSize: stripe})
	want := pattern(4*k*stripe, 7)
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	// requests reads runs and returns the requests each server served.
	requests := func(runs []Run) []int64 {
		before := fs.Stats()
		buf := make([]byte, k*stripe)
		if _, err := fs.ReadV(runs, buf); err != nil {
			t.Fatal(err)
		}
		for at := 0; len(runs) > 0; runs = runs[1:] {
			r := runs[0]
			if !bytes.Equal(buf[at:at+int(r.Len)], want[r.Off:r.End()]) {
				t.Fatalf("run at %d differs", r.Off)
			}
			at += int(r.Len)
		}
		after := fs.Stats()
		reqs := make([]int64, k+m)
		for s := range reqs {
			a, b := &after.PerServer[s], &before.PerServer[s]
			reqs[s] = a.Reads + a.Writes - b.Reads - b.Writes
		}
		return reqs
	}
	for _, row := range []int64{0, 3} {
		var asc []Run
		for off := row * k * stripe; off < (row+1)*k*stripe; off += stripe / 2 {
			asc = append(asc, Run{Off: off, Len: stripe / 2})
		}
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		for _, leg := range []struct {
			name string
			runs []Run
			reqs int64 // per data server of the row, healthy
		}{{"ascending", asc, 1}, {"descending", desc, 2}} {
			healthy := requests(leg.runs)
			wantHealthy := make([]int64, k+m)
			for s := range wantHealthy {
				if fs.shardOf(row, s) < k {
					wantHealthy[s] = leg.reqs
				}
			}
			if !slices.Equal(healthy, wantHealthy) {
				t.Fatalf("row %d %s: healthy requests per server %v, want %v", row, leg.name, healthy, wantHealthy)
			}
			fs.SetInjector(&FaultPoint{Server: 0, Op: FaultReads, Permanent: true})
			degraded := requests(leg.runs)
			fs.SetInjector(nil)
			var fetched int64
			for s := range degraded {
				if fs.shardOf(row, s) >= k {
					fetched += degraded[s]
				} else if s != 0 && degraded[s] != healthy[s] {
					fetched = -1
				}
			}
			if fetched != 1 || degraded[0] != 0 {
				t.Fatalf("row %d %s: requests per server %v healthy, %v with server 0 dead: want the row-mates' unchanged and one coded-unit fetch",
					row, leg.name, healthy, degraded)
			}
		}
	}
}

// FuzzDegradedRead reads a random vector from a parity store on Disk
// with up to m+1 servers failing, each either refused by the injector or
// failing its reads in service (failReads). With at most m failing, the
// read returns what was written. With more, every row lacks a shard it
// needs, so every segment on a failing server is lost: the read fails
// exactly when it touches one, and returns the bytes of the segments
// ahead of the earliest. The seed corpus is in testdata/fuzz.
func FuzzDegradedRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nIn, mIn, failIn uint8, elevator bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nIn%8)
		m := 1 + int(mIn)%min(3, n-1)
		opts := Options{Servers: n, Parity: m, StripeSize: int64(16 + rng.Intn(113)), Backend: Disk, Dir: t.TempDir()}
		if elevator {
			opts.Scheduler = Elevator
		}
		if rng.Intn(2) == 0 {
			opts.Cost = foldCost // every hole pays: the hole budget decides
		}
		fs := degradedFS(t, opts)
		file := pattern(int(int64(2+rng.Intn(4))*int64(n-m)*opts.StripeSize), seed)
		if _, err := fs.WriteAt(file, 0); err != nil {
			t.Fatal(err)
		}
		runs := make([]Run, 1+rng.Intn(8))
		for i := range runs {
			l := 1 + rng.Int63n(int64(len(file))/2)
			runs[i] = Run{Off: rng.Int63n(int64(len(file)) - l + 1), Len: l}
		}
		failing := rng.Perm(n)[:int(failIn)%(m+2)]
		var refused Multi
		for _, s := range failing {
			if rng.Intn(2) == 0 {
				refused = append(refused, &FaultPoint{Server: s, Op: FaultReads, Permanent: true})
			} else {
				failReads(t, fs, s)
			}
		}
		fs.SetInjector(refused)
		want := gather(file, runs)
		got := make([]byte, len(want))
		done, err := fs.ReadV(runs, got)
		if len(failing) <= m {
			if err != nil {
				t.Fatalf("%d+%d servers, %v failing, runs %v: %v", n-m, m, failing, runs, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d+%d servers, %v failing, runs %v: read returned other bytes than were written", n-m, m, failing, runs)
			}
			return
		}
		lost := int64(-1) // the bytes ahead of the earliest segment on a failing server
		var at int64
		for _, r := range runs {
			fs.forEachSegment(r.Off, r.Len, func(s int, _, l int64) {
				if lost < 0 && slices.Contains(failing, s) {
					lost = at
				}
				at += l
			})
		}
		switch {
		case lost < 0 && (err != nil || !bytes.Equal(got, want)):
			t.Fatalf("%d+%d servers, %v failing, runs %v touch none of them: %d B, %v", n-m, m, failing, runs, done, err)
		case lost >= 0 && (err == nil || done != lost):
			t.Fatalf("%d+%d servers, %v failing, runs %v: %d B, %v; want an error after %d B", n-m, m, failing, runs, done, err, lost)
		}
	})
}
