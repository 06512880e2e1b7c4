package pfs

import (
	"bytes"
	"os"
	"slices"
	"testing"
	"time"
)

// foldCost is bench's service-time model, charged and never slept, so
// every hole of a read pays and the hole budget decides.
var foldCost = CostModel{RequestOverhead: 100 * time.Microsecond, SeekLatency: time.Millisecond, ByteTime: 4 * time.Nanosecond}

// boxRuns returns the runs of rows [r0, r1) and columns [c0, c1) of a
// 32x32 array of 8-byte elements in 8x8 chunks, stored row-major, chunk
// after chunk in row-major chunk order: parity_degraded's layout in
// miniature, a 512-byte chunk being two 256-byte stripe units as its
// 32 KiB chunk is two 16 KiB ones. The runs go chunk by chunk, one per
// chunk row, touching ones merged, as a section read lists them.
func boxRuns(r0, r1, c0, c1 int) []Run {
	const side, cs, es = 32, 8, 8
	var runs []Run
	for ci := r0 / cs; ci*cs < r1; ci++ {
		for cj := c0 / cs; cj*cs < c1; cj++ {
			base := int64((ci*side/cs + cj) * cs * cs * es)
			lo, hi := max(c0, cj*cs)-cj*cs, min(c1, (cj+1)*cs)-cj*cs
			for r := max(r0, ci*cs); r < min(r1, (ci+1)*cs); r++ {
				off, n := base+int64(((r-ci*cs)*cs+lo)*es), int64((hi-lo)*es)
				if l := len(runs); l > 0 && runs[l-1].End() == off {
					runs[l-1].Len += n
				} else {
					runs = append(runs, Run{Off: off, Len: n})
				}
			}
		}
	}
	return runs
}

// gather returns the bytes of runs in file, packed.
func gather(file []byte, runs []Run) []byte {
	var p []byte
	for _, r := range runs {
		p = append(p, file[r.Off:r.End()]...)
	}
	return p
}

// readRequests reads runs from fs, checks the bytes against want and
// returns the requests each server served for the read.
func readRequests(t *testing.T, fs *FS, runs []Run, want []byte) []int64 {
	t.Helper()
	before := fs.Stats()
	got := make([]byte, len(want))
	if _, err := fs.ReadV(runs, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read returned other bytes than were written")
	}
	st := fs.Stats().Sub(before)
	reqs := make([]int64, len(st.PerServer))
	for s, ps := range st.PerServer {
		reqs[s] = ps.Reads + ps.Writes
	}
	return reqs
}

// writeOnRefusal refuses every read of server 0 and, at the first,
// writes p at off through fs: a data write that begins and ends while
// the refusing read is still in accept, before any of its segments is
// served.
type writeOnRefusal struct {
	fs    *FS
	p     []byte
	off   int64
	wrote bool
}

func (w *writeOnRefusal) Fail(server int, write bool, off, n int64) error {
	if write || server != 0 {
		return nil
	}
	if !w.wrote {
		w.wrote = true
		if _, err := w.fs.WriteAt(w.p, w.off); err != nil {
			panic(err)
		}
	}
	return errInjected
}

// TestDegradedReadFoldsSources: a multi-row box read on a 6+2 store with
// server 0 refused fetches the sources of its lost units in its own
// dispatch, beside its own segments, which join them into their
// requests; the bytes are a healthy read's. A source server that
// refuses too leaves the unit it was asked for to the rebuild's rounds,
// and a write that overlaps the read leaves every lost unit to them.
func TestDegradedReadFoldsSources(t *testing.T) {
	const stripe, k, m = 256, 6, 2
	runs := boxRuns(3, 21, 5, 27)
	// Requests per server of the degraded read; a healthy one serves
	// [2 1 2 5 8 3 0 0]. Fetched with the read, the sources fill the
	// holes between the row-mates' own segments, and their bytes add to
	// the budget that joins them. Fetched in rounds after the read, as a
	// second dispatch, the same sources served [0 2 5 6 10 5 2 0] under
	// either discipline.
	folded := map[Scheduler][]int64{
		FIFO:     {0, 1, 1, 1, 1, 1, 1, 0},
		Elevator: {0, 1, 1, 1, 1, 1, 1, 0},
	}
	for _, sched := range []Scheduler{FIFO, Elevator} {
		t.Run(map[Scheduler]string{FIFO: "FIFO", Elevator: "Elevator"}[sched], func(t *testing.T) {
			fs := degradedFS(t, Options{Servers: k + m, Parity: m, StripeSize: stripe, Scheduler: sched, Cost: foldCost})
			file := pattern(32*32*8, 21)
			if _, err := fs.WriteAt(file, 0); err != nil {
				t.Fatal(err)
			}
			want := gather(file, runs)
			healthy := readRequests(t, fs, runs, want)
			dead := &FaultPoint{Server: 0, Op: FaultReads, Permanent: true}
			fs.SetInjector(dead)
			before := fs.Stats().DegradedReads
			reqs := readRequests(t, fs, runs, want)
			lost := fs.Stats().DegradedReads - before
			if !slices.Equal(reqs, folded[sched]) {
				t.Errorf("requests per server %v with server 0 refused (healthy %v), want %v", reqs, healthy, folded[sched])
			}

			// Server 6, the first parity server, refuses too: the first
			// lost unit's fetch there is refused, so that unit is rebuilt
			// in rounds, from server 7; the others fetch from server 7 at
			// once.
			fs.SetInjector(Multi{dead, &FaultPoint{Server: k, Op: FaultReads, Permanent: true}})
			reqs = readRequests(t, fs, runs, want)
			if reqs[k] != 0 || reqs[k+1] == 0 {
				t.Errorf("requests per server %v with servers 0 and %d refused: want none on %d, some on %d", reqs, k, k, k+1)
			}

			// A write over part of the box begins while the read is in
			// accept: nothing the read fetched before its rebuild may seed
			// it, so every lost unit is rebuilt in rounds from the stored
			// bytes, and the read returns the write's bytes.
			upd := pattern(3000, 22)
			copy(file[2000:], upd)
			fs.SetInjector(&writeOnRefusal{fs: fs, p: upd, off: 2000})
			before = fs.Stats().DegradedReads
			reqs = readRequests(t, fs, runs, gather(file, runs))
			if got := fs.Stats().DegradedReads - before; got != lost {
				t.Errorf("%d units rebuilt under an overlapping write, want %d", got, lost)
			}
			for s := 1; s < k; s++ {
				if reqs[s] <= folded[sched][s] {
					t.Errorf("requests per server %v under an overlapping write: row-mate %d was not fetched again", reqs, s)
				}
			}
		})
	}
}

// diskFS builds a 4+2 Disk store of 64-byte stripes holding units
// stripe units of pattern(seed), which it returns beside the store.
func diskFS(t *testing.T, units int, seed int64) (*FS, []byte) {
	t.Helper()
	fs := degradedFS(t, Options{Servers: 6, Parity: 2, StripeSize: 64, Backend: Disk, Dir: t.TempDir()})
	file := pattern(units*64, seed)
	if _, err := fs.WriteAt(file, 0); err != nil {
		t.Fatal(err)
	}
	return fs, file
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

// TestDegradedReadSeedsFromContainingRowMates: a unit whose read fails
// in service is rebuilt in rounds, seeded with every row-mate segment of
// the read that holds its range whole. Server 1's run is wider than the
// lost run and server 2's the same: neither is fetched again. Server
// 3's run ends short of it, so its range is fetched, as is a parity
// unit's.
func TestDegradedReadSeedsFromContainingRowMates(t *testing.T) {
	const stripe = 64
	fs, file := diskFS(t, 4, 31)
	runs := []Run{{Off: 10, Len: 20}, {Off: stripe + 5, Len: 35}, {Off: 2*stripe + 10, Len: 20}, {Off: 3 * stripe, Len: 20}}
	want := gather(file, runs)
	healthy := readRequests(t, fs, runs, want)
	failReads(t, fs, 0)
	reqs := readRequests(t, fs, runs, want)
	if want := []int64{1, 1, 1, 2, 1, 0}; !slices.Equal(reqs, want) {
		t.Fatalf("requests per server %v with server 0 failing reads (healthy %v), want %v: the row-mates that hold the lost range are not fetched again",
			reqs, healthy, want)
	}
}

// TestDegradedReadFoldedFetchFailsInService: a source fetch the read's
// own dispatch makes for a refused unit fails in service, so the unit
// is rebuilt in rounds from other sources, not decoded from the fetch's
// unfilled bytes.
func TestDegradedReadFoldedFetchFailsInService(t *testing.T) {
	fs, file := diskFS(t, 12, 41)
	failReads(t, fs, 4) // the first parity server: the first source a lost unit fetches
	fs.SetInjector(&FaultPoint{Server: 0, Op: FaultReads, Permanent: true})
	runs := []Run{{Off: 0, Len: int64(len(file))}}
	readRequests(t, fs, runs, file)
}

// TestDegradedReadRoundsFetchInOffsetOrder: a rebuild's rounds fetch in
// offset order. Server 0's unit is read as two halves, the second
// first, and fails in service; its row-mates are read whole, so each
// half's one missing source is its range of the first parity unit. Put
// in offset order the two fetches touch and are one request.
func TestDegradedReadRoundsFetchInOffsetOrder(t *testing.T) {
	const stripe = 64
	fs, file := diskFS(t, 4, 51)
	runs := []Run{{Off: stripe / 2, Len: stripe / 2}, {Off: 0, Len: stripe / 2}, {Off: stripe, Len: 3 * stripe}}
	failReads(t, fs, 0)
	if reqs := readRequests(t, fs, runs, gather(file, runs)); reqs[4] != 1 {
		t.Fatalf("requests per server %v with server 0 failing reads: want one fetch from parity server 4", reqs)
	}
}

// TestDegradedReadRebuildsAfterRowMateWrite: a write over one whole
// parity row — the lost unit's row-mates and the lost unit itself —
// begins and ends after the degraded read's dispatch has served the
// row-mates and fetched the row's coded units, and before its rebuild.
// The sources the read holds are then the row's old state, so the
// rebuild must not take them: it fetches the row again in rounds and
// decodes the written unit. Every other byte is what the dispatch
// served, the old ones.
func TestDegradedReadRebuildsAfterRowMateWrite(t *testing.T) {
	const stripe, k, m, row = 256, 6, 2, 5
	fs := degradedFS(t, Options{Servers: k + m, Parity: m, StripeSize: stripe, Cost: foldCost})
	file := pattern(32*32*8, 37)
	if _, err := fs.WriteAt(file, 0); err != nil {
		t.Fatal(err)
	}
	runs := boxRuns(0, 32, 0, 32)
	want := gather(file, runs)
	upd := pattern(k*stripe, 38)
	copy(want[row*k*stripe:], upd[:stripe]) // server 0's unit of the row, rebuilt
	fs.SetInjector(&FaultPoint{Server: 0, Op: FaultReads, Permanent: true})
	wrote := false
	fs.onRebuild = func() {
		if !wrote {
			wrote = true
			if _, err := fs.WriteAt(upd, row*k*stripe); err != nil {
				t.Error(err)
			}
		}
	}
	got := make([]byte, len(want))
	if _, err := fs.ReadV(runs, got); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("the read rebuilt nothing")
	}
	for u := 0; u < len(want)/stripe; u++ {
		if g, w := got[u*stripe:(u+1)*stripe], want[u*stripe:(u+1)*stripe]; !bytes.Equal(g, w) {
			t.Errorf("unit %d (server %d, row %d) differs from what the read should return", u, u%k, u/k)
		}
	}
}
