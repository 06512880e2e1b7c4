package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// fileSource is a HoleSource over a flat copy of a file: it covers the
// logical ranges cover admits, lends them from its copy, and records
// what it lent. It checks that the write holds its lock over every call.
type fileSource struct {
	t      *testing.T
	mu     sync.Mutex
	held   bool
	file   []byte
	cover  func(Run) bool
	calls  int
	lent   []Run
	locked int
}

func (s *fileSource) Lock()   { s.mu.Lock(); s.held = true; s.locked++ }
func (s *fileSource) Unlock() { s.held = false; s.mu.Unlock() }

func (s *fileSource) Covers(runs []Run) bool {
	s.check()
	return !slices.ContainsFunc(runs, func(r Run) bool { return !s.cover(r) })
}

func (s *fileSource) Lend(runs []Run, p []byte) bool {
	if !s.Covers(runs) {
		return false
	}
	for _, r := range runs {
		p = p[copy(p, s.file[r.Off:r.End()]):]
	}
	s.lent = append(s.lent, runs...)
	return true
}

func (s *fileSource) check() {
	s.calls++
	if !s.held {
		s.t.Error("the source was called without its lock")
	}
}

// refuseWrite refuses every write request of exactly n bytes at off on
// server.
type refuseWrite struct {
	server int
	off, n int64
	fired  bool
}

func (r *refuseWrite) Fail(server int, write bool, off, n int64) error {
	if write && server == r.server && off == r.off && n == r.n {
		r.fired = true
		return errors.New("refused")
	}
	return nil
}

// TestWriteVecFromLendsHoles pins a write whose source lends its holes,
// under both disciplines: TestReadThrough's budget-write list, four
// 512-byte pieces 128 bytes apart on server 0 and one 8,000-byte piece
// on each of servers 1-3. A hole the source covers costs the budget its
// 128 bytes; once lent, it is a segment of its own, so server 0 stores
// piece, hole, piece, … as one request and reads nothing. A hole the
// source refuses keeps the read-modify-write price, 2×128 + 512, and
// joins only in a run of two such holes or more. A hole the injector
// refuses as a write stays a hole. The holes hold the lent bytes
// afterwards — lent bytes are stored, not skipped — and nothing else
// changes but the pieces.
func TestWriteVecFromLendsHoles(t *testing.T) {
	runs := unit(0, 512, 0, 640, 1280, 1920)
	for u := int64(1); u < 4; u++ {
		runs = append(runs, unit(u, 8000, 0)...)
	}
	holes := unit(0, 128, 512, 1152, 1792)
	all := func(Run) bool { return true }
	cases := []struct {
		name  string
		cover func(Run) bool
		inj   *refuseWrite
		// The charge, server 0's requests and reads, and the holes lent.
		reqs, bytes, reads0, reqs0 int64
		lent                       []Run
	}{
		{name: "all-lent", cover: all, reqs: 4, bytes: 2432 + 3*8000, reqs0: 1, lent: holes},
		// Refused everywhere: WriteVec's read-modify-write, a read of the
		// 1,408 interior bytes and a write of the 2,432-byte span.
		{name: "none-lent", cover: func(Run) bool { return false }, reqs: 5, bytes: 1408 + 2432 + 3*8000, reads0: 1, reqs0: 2},
		// The middle hole is lent; the two beside it each join a run of
		// one, which saves nothing as a read-modify-write, so they stay
		// holes.
		{name: "middle-lent", cover: func(r Run) bool { return r == holes[1] }, reqs: 6, bytes: 2048 + 128 + 3*8000, reqs0: 3, lent: holes[1:2]},
		// The injector refuses the middle hole's write: the others are lent.
		{name: "hole-write-refused", cover: all, inj: &refuseWrite{server: 0, off: holes[1].Off, n: 128},
			reqs: 5, bytes: 2048 + 256 + 3*8000, reqs0: 2, lent: []Run{holes[0], holes[2]}},
	}
	for _, sched := range []Scheduler{FIFO, Elevator} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%v", tc.name, map[Scheduler]string{FIFO: "FIFO", Elevator: "Elevator"}[sched]), func(t *testing.T) {
				fs, err := Create("lend", Options{Servers: 4, StripeSize: readThroughStripe, Scheduler: sched, Cost: benchCost()})
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				old := pattern(4*readThroughStripe, 1)
				if _, err := fs.WriteAt(old, 0); err != nil {
					t.Fatal(err)
				}
				fs.ResetStats()
				if tc.inj != nil {
					fs.SetInjector(tc.inj)
				}
				src := &fileSource{t: t, file: pattern(len(old), 3), cover: tc.cover}
				want := bytes.Clone(old)
				var data []byte
				for _, r := range runs {
					p := pattern(int(r.Len), r.Off)
					data = append(data, p...)
					copy(want[r.Off:], p)
				}
				for _, h := range tc.lent {
					copy(want[h.Off:h.End()], src.file[h.Off:])
				}
				if n, err := fs.WriteVecFrom(runs, Contig(data), src); n != int64(len(data)) || err != nil {
					t.Fatalf("WriteVecFrom = %d, %v", n, err)
				}
				if tc.inj != nil && !tc.inj.fired {
					t.Error("the injector never saw the hole's write")
				}
				st := fs.Stats()
				s0 := st.PerServer[0]
				if st.Requests() != tc.reqs || st.Bytes() != tc.bytes || s0.Reads != tc.reads0 || s0.Reads+s0.Writes != tc.reqs0 {
					t.Errorf("charged %d requests and %d device bytes, server 0 %d requests, %d reads; want %d, %d, %d, %d",
						st.Requests(), st.Bytes(), s0.Reads+s0.Writes, s0.Reads, tc.reqs, tc.bytes, tc.reqs0, tc.reads0)
				}
				if !slices.Equal(src.lent, tc.lent) {
					t.Errorf("lent %v, want %v", src.lent, tc.lent)
				}
				if src.locked > 2 {
					t.Errorf("the source was locked %d times; want at most twice, to price and to lend", src.locked)
				}
				fs.SetInjector(nil)
				back := make([]byte, len(old))
				if _, err := fs.ReadAt(back, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, want) {
					t.Error("the store differs from the pieces and the lent holes over the old bytes")
				}
			})
		}
	}
}

// TestWriteVecFromLeavesParityAlone: a parity store takes no hole
// source. Its writes keep the read-modify-write and charge exactly what
// WriteVec charges a twin store; the source is never called.
func TestWriteVecFromLeavesParityAlone(t *testing.T) {
	runs := unit(0, 512, 0, 640, 1280, 1920)
	var stats [2]Stats
	src := &fileSource{t: t, file: make([]byte, 8*readThroughStripe), cover: func(Run) bool { return true }}
	for i := range stats {
		fs, err := Create("lend-parity", Options{Servers: 5, Parity: 1, StripeSize: readThroughStripe, Cost: benchCost()})
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(4*512, 2)
		if i == 0 {
			_, err = fs.WriteVec(runs, Contig(data))
		} else {
			_, err = fs.WriteVecFrom(runs, Contig(data), src)
		}
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = fs.Stats()
		fs.Close()
	}
	if a, b := stats[0], stats[1]; a.Requests() != b.Requests() || a.Bytes() != b.Bytes() || a.Reads() != b.Reads() {
		t.Errorf("WriteVecFrom charged %d requests, %d reads, %d bytes; WriteVec %d, %d, %d",
			b.Requests(), b.Reads(), b.Bytes(), a.Requests(), a.Reads(), a.Bytes())
	}
	if src.calls > 0 || src.locked > 0 {
		t.Errorf("the parity store called its source %d times", src.calls)
	}
}
