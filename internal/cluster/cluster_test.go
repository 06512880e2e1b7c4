package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunBasics(t *testing.T) {
	var n int32
	err := Run(4, func(c *Comm) error {
		if c.Size() != 4 {
			return fmt.Errorf("size = %d", c.Size())
		}
		atomic.AddInt32(&n, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("ran %d ranks", n)
	}
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Error("Run(0) accepted")
	}
}

func TestRunCollectsErrors(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kapow")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kapow") {
		t.Fatalf("err = %v", err)
	}
}

// TestFailedRankAbortsWorld: a rank that returns an error or panics
// aborts its world, so peers blocked in a collective return with its
// error instead of hanging, on both transports. An error that already
// names its rank is not prefixed a second time.
func TestFailedRankAbortsWorld(t *testing.T) {
	errBoom := errors.New("boom")
	fail := func() error { return fmt.Errorf("rank 0: %w", errBoom) }
	for _, tc := range []struct {
		name string
		run  func(int, func(*Comm) error) error
		fail func() error
	}{
		{"run-error", Run, fail},
		{"run-panic", Run, func() error { panic(errBoom) }},
		{"tcp-error", RunTCP, fail},
		{"tcp-panic", RunTCP, func() error { panic(errBoom) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				done <- tc.run(4, func(c *Comm) error {
					if c.Rank() == 0 {
						return tc.fail()
					}
					return c.Barrier()
				})
			}()
			select {
			case err := <-done:
				if !errors.Is(err, errBoom) {
					t.Fatalf("err = %v, want rank 0's error", err)
				}
				if strings.Contains(err.Error(), "rank 0: rank 0:") {
					t.Fatalf("rank named twice: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("peers of a failed rank still blocked after 1 s")
			}
		})
	}
}

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		got, st, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(got) != "hello" || st.Source != 0 || st.Tag != 7 {
			return fmt.Errorf("got %q from %d tag %d", got, st.Source, st.Tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the in-flight message
			return nil
		}
		got, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if got[0] != 1 {
			return fmt.Errorf("payload mutated: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tag 2 first, then tag 1; receiver asks for 1 first.
			if err := c.Send(1, 2, []byte("two")); err != nil {
				return err
			}
			return c.Send(1, 1, []byte("one"))
		}
		one, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		two, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(one) != "one" || string(two) != "two" {
			return fmt.Errorf("got %q, %q", one, two)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSourceTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, _, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if int(got[0]) != i {
				return fmt.Errorf("message %d arrived out of order (got %d)", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("send to bad rank accepted")
		}
		if err := c.Send(1, -3, nil); err == nil {
			return errors.New("negative user tag accepted")
		}
		if _, _, err := c.Recv(9, 0); err == nil {
			return errors.New("recv from bad rank accepted")
		}
		if _, _, err := c.Recv(0, -9); err == nil {
			return errors.New("bad recv tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var phase1 int32
	err := Run(8, func(c *Comm) error {
		atomic.AddInt32(&phase1, 1)
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := atomic.LoadInt32(&phase1); got != 8 {
			return fmt.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		var data []byte
		if c.Rank() == 2 {
			data = []byte("payload")
		}
		got, err := c.Bcast(2, data)
		if err != nil {
			return err
		}
		if string(got) != "payload" {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatter(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		all, err := c.Gather(1, []byte{byte(c.Rank() * 3)})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			for r, b := range all {
				if len(b) != 1 || int(b[0]) != r*3 {
					return fmt.Errorf("gather[%d] = %v", r, b)
				}
			}
			return nil
		}
		if all != nil {
			return errors.New("non-root gather returned data")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		all, err := c.Allgather(bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1))
		if err != nil {
			return err
		}
		if len(all) != 6 {
			return fmt.Errorf("allgather len = %d", len(all))
		}
		for r, b := range all {
			if len(b) != r+1 {
				return fmt.Errorf("rank %d: part %d has len %d", c.Rank(), r, len(b))
			}
			for _, x := range b {
				if int(x) != r {
					return fmt.Errorf("part %d content %v", r, b)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllgatherRootCopiesOnce: per Allgather on 4 ranks, rank 0
// allocates no more than one pack per rank (its own, kept as the
// result, and one copy per peer) plus the parts header. The heap count
// is process-wide, so the peers' known share — each sends a copy of
// its part and unpacks the header of its result — is taken off first.
// Part and pack sizes are exact size classes, so the bytes are exact
// but for transport bookkeeping (a mailbox queue growing), of which up
// to 512 bytes a call are forgiven — one extra copy of the pack alone
// is 8 KiB.
func TestAllgatherRootCopiesOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const size, calls = 4, 50
	const part = 2038                // each part; a peer's copy rounds up to 2048
	const packed = 8 + size*(8+part) // 8192: a size class
	const header = size * 24         // 96: a size class
	const peers = (size - 1) * (2048 + header)
	var total uint64
	err := Run(size, func(c *Comm) error {
		data := bytes.Repeat([]byte{byte(c.Rank())}, part)
		if _, err := c.Allgather(data); err != nil { // warm the mailboxes
			return err
		}
		var before, after runtime.MemStats
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for range calls {
			all, err := c.Allgather(data)
			if err != nil {
				return err
			}
			for r, p := range all {
				if len(p) != part || p[0] != byte(r) || p[part-1] != byte(r) {
					return fmt.Errorf("rank %d: part %d is %d bytes of %d", c.Rank(), r, len(p), p[0])
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			total = after.TotalAlloc - before.TotalAlloc
		}
		return c.Barrier() // the peers stay parked while rank 0 reads
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two barriers inside the window allocate a parts header each at
	// rank 0.
	root := (int64(total)-2*header)/calls - peers
	if want := int64(size*packed + header); root > want+512 {
		t.Errorf("rank 0 allocates %d bytes per Allgather, want <= %d (%d packs of %d bytes and a %d-byte header)",
			root, want, size, packed, header)
	}
}

func TestCollectivesDontCrossTalk(t *testing.T) {
	// Back-to-back collectives with different payloads must not mix.
	err := Run(4, func(c *Comm) error {
		for i := 0; i < 20; i++ {
			want := []byte(fmt.Sprintf("round-%d", i))
			var data []byte
			if c.Rank() == 0 {
				data = want
			}
			got, err := c.Bcast(0, data)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("round %d: got %q", i, got)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceInt64(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		vals := []int64{int64(c.Rank()), 1, int64(10 * c.Rank())}
		sum, err := AllreduceInt64(c, vals, SumInt64)
		if err != nil {
			return err
		}
		if sum[0] != 10 || sum[1] != 5 || sum[2] != 100 {
			return fmt.Errorf("sum = %v", sum)
		}
		mx, err := AllreduceInt64(c, []int64{int64(c.Rank())}, MaxInt64)
		if err != nil {
			return err
		}
		if mx[0] != 4 {
			return fmt.Errorf("max = %v", mx)
		}
		mn, err := AllreduceInt64(c, []int64{int64(c.Rank()) - 2}, func(a, b int64) int64 { return min(a, b) })
		if err != nil {
			return err
		}
		if mn[0] != -2 {
			return fmt.Errorf("min = %v", mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSelfRunsCollectivesAlone: Self's collectives complete on the
// calling goroutine, with no Run around them.
func TestSelfRunsCollectivesAlone(t *testing.T) {
	c := Self()
	if c.Size() != 1 || c.Rank() != 0 {
		t.Fatalf("Self: size %d rank %d", c.Size(), c.Rank())
	}
	if got, err := c.Bcast(0, []byte{7}); err != nil || !bytes.Equal(got, []byte{7}) {
		t.Fatalf("Bcast = %v, %v", got, err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	all, err := c.Allgather([]byte("me"))
	if err != nil || len(all) != 1 || string(all[0]) != "me" {
		t.Fatalf("Allgather = %q, %v", all, err)
	}
}

func TestWorldSharedRegistry(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 0 {
			c.World().SharedPut("buf", []int{1, 2, 3})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		v, ok := c.World().SharedGet("buf")
		if !ok {
			return errors.New("shared object missing")
		}
		if s := v.([]int); s[2] != 3 {
			return fmt.Errorf("shared object content %v", s)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			c.World().SharedDelete("buf")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = Run(1, func(c *Comm) error {
		if _, ok := c.World().SharedGet("nope"); ok {
			return errors.New("phantom shared object")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackSlices(t *testing.T) {
	in := [][]byte{{}, {1}, {2, 3, 4}, nil}
	out, err := unpackSlices(packSlices(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || len(out[0]) != 0 || len(out[3]) != 0 || !bytes.Equal(out[2], []byte{2, 3, 4}) {
		t.Fatalf("round trip = %v", out)
	}
	// A peer's pack may lie: a count past what the bytes can hold must
	// not size the result, and a length with its top bit set must not
	// turn negative and slice out of range.
	huge := appendU64(nil, 1<<40)
	negLen := appendU64(appendU64(nil, 1), 1<<63)
	for _, bad := range [][]byte{{1, 2}, packSlices(in)[:9], packSlices(in)[:17], huge, append(negLen, 1, 2, 3)} {
		if _, err := unpackSlices(bad); err == nil {
			t.Errorf("corrupt pack %v accepted", bad)
		}
	}
}

// FuzzUnpackSlices: whatever bytes a peer sends, unpackSlices returns
// an error or slices that packSlices turns back into the same bytes.
func FuzzUnpackSlices(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		out, err := unpackSlices(b)
		if err != nil {
			return
		}
		if re := packSlices(out); !bytes.Equal(re, b[:len(re)]) {
			t.Fatalf("repack of %x = %x", b, re)
		}
	})
}

func BenchmarkPingPong(b *testing.B) {
	err := Run(2, func(c *Comm) error {
		msg := make([]byte, 64)
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				if err := c.Send(1, 0, msg); err != nil {
					return err
				}
				if _, _, err := c.Recv(1, 0); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Recv(0, 0); err != nil {
				return err
			}
			if err := c.Send(0, 0, msg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBarrier8(b *testing.B) {
	err := Run(8, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func TestAlltoallvSparse(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		// Ring pattern: rank r sends only to (r+1)%4, so every other
		// pair is an empty frame that must never cross the wire.
		size := c.Size()
		me := c.Rank()
		send := make([][]byte, size)
		expect := make([]bool, size)
		send[(me+1)%size] = []byte{byte(me), 0xAB}
		expect[(me+size-1)%size] = true
		got, err := c.AlltoallvSparse(send, expect)
		if err != nil {
			return err
		}
		for r, b := range got {
			if r == (me+size-1)%size {
				if len(b) != 2 || int(b[0]) != r || b[1] != 0xAB {
					return fmt.Errorf("rank %d: from %d got %v", me, r, b)
				}
			} else if b != nil {
				return fmt.Errorf("rank %d: unexpected payload from %d: %v", me, r, b)
			}
		}
		// Self-payload aliases send[me].
		send2 := make([][]byte, size)
		expect2 := make([]bool, size)
		send2[me] = []byte{9, 9}
		got2, err := c.AlltoallvSparse(send2, expect2)
		if err != nil {
			return err
		}
		if &got2[me][0] != &send2[me][0] {
			return errors.New("self payload was copied, want alias")
		}
		// Wrong part counts error out before consuming a sequence number.
		if _, err := c.AlltoallvSparse(send2[:2], expect2); err == nil {
			return errors.New("short sparse alltoallv accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallvSparseHandsOver: the in-process exchange hands each send
// buffer to its receiver instead of copying it. Rank 0 sends a 1 MiB
// buffer and rank 1 sends what it received straight back, so every
// payload a rank receives must be the very buffer rank 0 allocated, and
// an exchange must allocate well under 1 % of its payload.
func TestAlltoallvSparseHandsOver(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const payload, trips = 1 << 20, 8
	var allocated uint64
	err := Run(2, func(c *Comm) error {
		me, peer := c.Rank(), 1-c.Rank()
		var buf []byte
		if me == 0 {
			buf = make([]byte, payload)
			c.World().SharedPut("origin", &buf[0])
		}
		send, expect := make([][]byte, 2), make([]bool, 2)
		var before, after runtime.MemStats
		for i := range 2 * trips { // exchange i: rank i%2 sends
			if i == 2 && me == 0 { // one round trip warmed the mailboxes
				runtime.ReadMemStats(&before)
			}
			sender := i%2 == me
			send[peer], expect[peer] = nil, !sender
			if sender {
				send[peer] = buf
			}
			got, err := c.AlltoallvSparse(send, expect)
			if err != nil {
				return err
			}
			if sender {
				continue
			}
			origin, _ := c.World().SharedGet("origin")
			if buf = got[peer]; len(buf) != payload || &buf[0] != origin.(*byte) {
				return fmt.Errorf("exchange %d: received %d bytes in a copy, not the %d-byte buffer sent", i, len(buf), payload)
			}
		}
		if me == 0 {
			runtime.ReadMemStats(&after)
			allocated = after.TotalAlloc - before.TotalAlloc
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if per := allocated / (2*trips - 2); per >= payload/100 {
		t.Fatalf("an exchange of a %d-byte payload allocated %d bytes, want < 1 %%", payload, per)
	}
}

// TestAlltoallvSparseIgnoresUserTraffic pins the tag isolation of the
// sparse exchange: an application point-to-point message queued before
// the collective must not be matched as collective payload (the
// exchange runs in the reserved negative-tag space).
func TestAlltoallvSparseIgnoresUserTraffic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		me := c.Rank()
		peer := 1 - me
		// User message with an arbitrary positive tag, queued first.
		if err := c.Send(peer, 0x5A17, []byte("app")); err != nil {
			return err
		}
		send := make([][]byte, 2)
		expect := make([]bool, 2)
		send[peer] = []byte("collective")
		expect[peer] = true
		got, err := c.AlltoallvSparse(send, expect)
		if err != nil {
			return err
		}
		if string(got[peer]) != "collective" {
			return fmt.Errorf("rank %d: exchange payload stolen: %q", me, got[peer])
		}
		// The app message is still intact for its real receiver.
		app, _, err := c.Recv(peer, 0x5A17)
		if err != nil {
			return err
		}
		if string(app) != "app" {
			return fmt.Errorf("rank %d: app payload corrupted: %q", me, app)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
