package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// staleRows returns a copy of the rows the store holds as stale.
func staleRows(fs *FS) []int64 {
	fs.parityMu.Lock()
	defer fs.parityMu.Unlock()
	return slices.Clone(fs.stale)
}

// badParityRows returns the rows whose stored coded units differ from a
// fresh encode of their stored data units, read straight off the
// servers.
func badParityRows(t testing.TB, fs *FS) []int64 {
	t.Helper()
	k, m := fs.code.K(), fs.code.M()
	stripe := fs.opts.StripeSize
	var rows int64
	for _, sv := range fs.servers {
		sv.mu.Lock()
		rows = max(rows, (sv.size+stripe-1)/stripe)
		sv.mu.Unlock()
	}
	shards, stored := make([][]byte, k+m), make([][]byte, m)
	for i := range shards {
		shards[i] = make([]byte, stripe)
	}
	for j := range stored {
		stored[j] = make([]byte, stripe)
	}
	var bad []int64
	for row := int64(0); row < rows; row++ {
		for i := 0; i < k+m; i++ {
			p := shards[i]
			if i >= k {
				p = stored[i-k]
			}
			sv := fs.servers[fs.serverOf(row, i)]
			sv.mu.Lock()
			err := sv.loadLocked(p, row*stripe)
			sv.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < m; j++ {
			if !bytes.Equal(shards[k+j], stored[j]) {
				bad = append(bad, row)
				break
			}
		}
	}
	return bad
}

// checkParity fails unless every row's parity is a fresh encode of its
// data, rows marked stale excepted.
func checkParity(t testing.TB, fs *FS, when string) {
	t.Helper()
	stale := staleRows(fs)
	for _, row := range badParityRows(t, fs) {
		if _, ok := slices.BinarySearch(stale, row); !ok {
			t.Fatalf("%s: row %d's parity is not the encode of its data and the row is not stale (stale %v)", when, row, stale)
		}
	}
}

// randomRuns draws a write's run list over [0, span): overlapping,
// unsorted, some crossing rows, some empty.
func randomRuns(rng *rand.Rand, span int64) ([]Run, []byte) {
	runs := make([]Run, 1+rng.Intn(6))
	var total int64
	for i := range runs {
		n := rng.Int63n(span / 3)
		if rng.Intn(8) == 0 {
			n = 0
		}
		runs[i] = Run{Off: rng.Int63n(span - n), Len: n}
		total += n
	}
	buf := make([]byte, total)
	rng.Read(buf)
	return runs, buf
}

// FuzzParityUpdate runs random vectored writes against a parity store,
// with write faults on data and parity servers coming and going, and
// checks after every write that each row's stored parity is the encode
// of its stored data, stale rows excepted — and after one final healthy
// write, every row's. The seed corpus is in testdata/fuzz.
func FuzzParityUpdate(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, kIn, mIn uint8, elevator bool, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		k, m := 1+int(kIn%6), 1+int(mIn%3)
		stripe := int64(8 + rng.Intn(57))
		opts := Options{Servers: k + m, Parity: m, StripeSize: stripe}
		if elevator {
			opts.Scheduler = Elevator
		}
		fs := degradedFS(t, opts)
		span := 6 * int64(k) * stripe // six rows
		for step := 0; step < 1+int(steps%48); step++ {
			switch rng.Intn(5) {
			case 0: // a fault on a data or a parity server
				fs.SetInjector(&FaultPoint{Server: rng.Intn(k + m), Op: FaultWrites,
					After: rng.Int63n(4), Permanent: rng.Intn(3) == 0})
			case 1:
				fs.SetInjector(nil)
			}
			runs, buf := randomRuns(rng, span)
			_, _ = fs.WriteV(runs, buf) // any error is an injected fault's; the invariant is the check
			checkParity(t, fs, fmt.Sprintf("k=%d m=%d stripe=%d step %d", k, m, stripe, step))
		}
		fs.SetInjector(nil)
		if _, err := fs.WriteAt([]byte{1}, rng.Int63n(span)); err != nil {
			t.Fatal(err)
		}
		if stale := staleRows(fs); len(stale) > 0 {
			t.Fatalf("rows %v still stale after a healthy write", stale)
		}
		checkParity(t, fs, "after a healthy write")
	})
}

// TestParityConcurrentWriters: four writers storing overlapping runs of
// the same rows at once, under each scheduler, with and without a few
// refused data and parity writes, leave every row's parity the encode
// of whatever data landed last, once one healthy write has healed the
// stale rows — the deltas of concurrent writes telescope, and a
// re-encode never counts a delta in flight. Run it with -race.
func TestParityConcurrentWriters(t *testing.T) {
	for name, sched := range map[string]Scheduler{"fifo": FIFO, "elevator": Elevator} {
		for _, p := range []float64{0, 0.02} {
			t.Run(fmt.Sprintf("%s/faults=%v", name, p), func(t *testing.T) {
				const stripe = 64
				fs := degradedFS(t, Options{Servers: 6, Parity: 2, StripeSize: stripe, Scheduler: sched})
				fs.SetInjector(NewFlaky(1, p))
				span := int64(3 * 4 * stripe) // three rows
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(g)))
						for i := 0; i < 100; i++ {
							runs, buf := randomRuns(rng, span)
							if _, err := fs.WriteV(runs, buf); err != nil && p == 0 {
								t.Error(err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				fs.SetInjector(nil)
				if _, err := fs.WriteAt([]byte{1}, 0); err != nil {
					t.Fatal(err)
				}
				if bad := badParityRows(t, fs); len(bad) > 0 {
					t.Fatalf("rows %v: parity is not the encode of the data after concurrent writes", bad)
				}
			})
		}
	}
}

// TestParityWriteFailureHealsStale: a parity write refused by the
// injector leaves its row stale; the next write, elsewhere, re-encodes
// the row whole, and a degraded read of it returns the written bytes
// again.
func TestParityWriteFailureHealsStale(t *testing.T) {
	const stripe, k = 64, 3
	const row = k * stripe
	fs := degradedFS(t, Options{Servers: k + 2, Parity: 2, StripeSize: stripe})
	want := pattern(4*row, 20)
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(&FaultPoint{Server: fs.serverOf(1, k+1), Op: FaultWrites}) // row 1's second coded unit
	upd := pattern(50, 21)
	if _, err := fs.WriteAt(upd, row+10); err == nil {
		t.Fatal("a write whose parity write was refused reported success")
	}
	copy(want[row+10:], upd) // the data landed
	if got := staleRows(fs); !slices.Equal(got, []int64{1}) {
		t.Fatalf("stale rows %v after row 1's parity write failed, want [1]", got)
	}
	if bad := badParityRows(t, fs); !slices.Equal(bad, []int64{1}) {
		t.Fatalf("rows %v have parity unlike their data, want [1]", bad)
	}
	fs.SetInjector(nil)
	upd = pattern(20, 22)
	if _, err := fs.WriteAt(upd, 3*row); err != nil {
		t.Fatal(err)
	}
	copy(want[3*row:], upd)
	if got := staleRows(fs); len(got) > 0 {
		t.Fatalf("rows %v still stale after a healthy write", got)
	}
	if bad := badParityRows(t, fs); len(bad) > 0 {
		t.Fatalf("rows %v have parity unlike their data after the healing write", bad)
	}
	for _, dead := range []int{0, 1} { // server 1 holds the unit the failed write changed
		fs.SetInjector(&FaultPoint{Server: dead, Op: FaultReads, Permanent: true})
		got := make([]byte, len(want))
		if _, err := fs.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("degraded read (server %d dead) after the stale row was healed differs", dead)
		}
	}
}

// TestParityOffTakesNoPreImage: without parity a store captures no
// pre-images. A write through a fresh dispatch allocates a small part
// of its payload with Parity 0; with parity the same write sizes a
// pre-image slab of the whole payload, which shows the check can see
// one.
func TestParityOffTakesNoPreImage(t *testing.T) {
	const payload = 64 << 10
	allocated := func(parity int) uint64 {
		fs := degradedFS(t, Options{Servers: 4 + parity, Parity: parity, StripeSize: 4 << 10})
		buf := pattern(payload, 23)
		if _, err := fs.WriteAt(buf, 0); err != nil { // grows the servers, sizes the scratch
			t.Fatal(err)
		}
		fs.idle = nil // the next write's dispatch is a fresh one
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := fs.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if got := allocated(0); got >= payload/4 {
		t.Fatalf("a %d-byte write with Parity 0 allocated %d bytes: a pre-image?", payload, got)
	}
	if got := allocated(2); got < payload {
		t.Fatalf("a %d-byte write with parity allocated %d bytes, no pre-image slab: the check cannot see one", payload, got)
	}
}

// TestParityDeltaTrimsCodedUnits pins a delta update's bill. (a) Runs
// in one row store, and load, the row's touched span of each of its m
// coded units: the union of the runs' in-unit ranges, not the unit.
// (b) Runs in rows 1 and 2 trim their coded units too, but unit 1 of
// row 1 and unit 0 of row 2 share a server at touching offsets: that
// pair runs from row 1's first touched byte to row 2's last and stays
// one request. Each server then serves the requests and seeks of the
// same write with its rows re-encoded whole, and writes the bridged
// span's bytes.
func TestParityDeltaTrimsCodedUnits(t *testing.T) {
	const k, m, stripe = 4, 2, 64
	opts := Options{Servers: k + m, Parity: m, StripeSize: stripe}
	// unitRun is the run of in-unit bytes [lo, hi) of data shard i of row.
	unitRun := func(row int64, i int, lo, hi int64) Run {
		return Run{Off: (row*k+int64(i))*stripe + lo, Len: hi - lo}
	}
	// write stores runs on fs and returns the per-server accounting.
	write := func(fs *FS, runs []Run) []ServerStats {
		var n int64
		for _, r := range runs {
			n += r.Len
		}
		before := fs.Stats()
		if _, err := fs.WriteV(runs, pattern(int(n), n)); err != nil {
			t.Fatal(err)
		}
		checkParity(t, fs, "after the write")
		return fs.Stats().Sub(before).PerServer
	}
	// data returns the bytes and segments runs store on each server.
	data := func(fs *FS, runs []Run) (bytes, segs []int64) {
		bytes, segs = make([]int64, k+m), make([]int64, k+m)
		for _, r := range runs {
			s, _ := fs.locate(r.Off)
			bytes[s] += r.Len
			segs[s]++
		}
		return bytes, segs
	}

	t.Run("one-row", func(t *testing.T) {
		fs := degradedFS(t, opts)
		a, b := [2]int64{30, 45}, [2]int64{10, 20} // in-unit ranges of data shards 2 and 0
		runs := []Run{unitRun(1, 2, a[0], a[1]), unitRun(1, 0, b[0], b[1])}
		lo, hi := min(a[0], b[0]), max(a[1], b[1]) // the row's touched span
		st := write(fs, runs)
		dataB, dataN := data(fs, runs)
		coded := make([]int64, k+m)
		for j := 0; j < m; j++ {
			coded[fs.serverOf(1, k+j)] = hi - lo
		}
		for s, ps := range st {
			if want := dataB[s] + coded[s]; ps.BytesWritten != want || ps.ParityLoadBytes != want {
				t.Errorf("server %d: wrote %d B and loaded %d B for parity, want %d each (data %d, coded span %d)",
					s, ps.BytesWritten, ps.ParityLoadBytes, want, dataB[s], coded[s])
			}
			loads := dataN[s]
			if coded[s] > 0 {
				loads++
			}
			if ps.ParityLoads != loads || ps.Reads != 0 || ps.BytesRead != 0 {
				t.Errorf("server %d: %d parity loads, %d reads of %d B; want %d loads and no reads",
					s, ps.ParityLoads, ps.Reads, ps.BytesRead, loads)
			}
		}
	})

	t.Run("bridged", func(t *testing.T) {
		trim, whole := degradedFS(t, opts), degradedFS(t, opts)
		whole.stale = []int64{1} // the write re-encodes rows 1 and 2 whole
		shared := trim.serverOf(1, k+1)
		if other := trim.serverOf(2, k); other != shared {
			t.Fatalf("unit 1 of row 1 is on server %d, unit 0 of row 2 on %d: the layout no longer pairs them", shared, other)
		}
		span := [][2]int64{1: {20, 30}, 2: {5, 50}} // each row's touched span
		runs := []Run{unitRun(1, 1, span[1][0], span[1][1]), unitRun(2, 3, span[2][0], span[2][1])}
		got, ref := write(trim, runs), write(whole, runs)
		coded := make([]int64, k+m)
		coded[trim.serverOf(1, k)] += span[1][1] - span[1][0]
		coded[shared] += stripe - span[1][0] + span[2][1]
		coded[trim.serverOf(2, k+1)] += span[2][1] - span[2][0]
		wholeB := make([]int64, k+m)
		for _, row := range []int64{1, 2} {
			for j := 0; j < m; j++ {
				wholeB[trim.serverOf(row, k+j)] += stripe
			}
		}
		for s := range got {
			g, r := got[s], ref[s]
			if g.Writes != r.Writes || g.Seeks != r.Seeks || g.Reads != r.Reads {
				t.Errorf("server %d: %d writes, %d seeks, %d reads; re-encoded whole %d, %d, %d",
					s, g.Writes, g.Seeks, g.Reads, r.Writes, r.Seeks, r.Reads)
			}
			dataB := r.BytesWritten - wholeB[s]
			if want := dataB + coded[s]; g.BytesWritten != want || g.ParityLoadBytes != want {
				t.Errorf("server %d: wrote %d B and loaded %d B for parity, want %d each (data %d, coded spans %d)",
					s, g.BytesWritten, g.ParityLoadBytes, want, dataB, coded[s])
			}
		}
		if got[shared].Writes != 1 {
			t.Errorf("server %d wrote its two coded units in %d requests, want 1", shared, got[shared].Writes)
		}
	})
}
