package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func faultFS(t *testing.T, servers int, stripe int64) *FS {
	t.Helper()
	fs, err := Create("fault", Options{Servers: servers, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFaultPointFiresOnce(t *testing.T) {
	fs := faultFS(t, 2, 64)
	fp := &FaultPoint{Server: AnyServer, Op: FaultWrites}
	fs.SetInjector(fp)
	buf := make([]byte, 32)
	if _, err := fs.WriteAt(buf, 0); err == nil {
		t.Fatal("first write survived the fault point")
	}
	if !fp.Fired() {
		t.Fatal("fault point did not record firing")
	}
	// Transient: the very next write succeeds.
	if _, err := fs.WriteAt(buf, 0); err != nil {
		t.Fatalf("second write: %v", err)
	}
}

func TestFaultPointPermanentAndCountdown(t *testing.T) {
	fs := faultFS(t, 1, 64)
	sentinel := errors.New("dead disk")
	fp := &FaultPoint{Server: AnyServer, Op: FaultWrites, After: 2, Permanent: true, Err: sentinel}
	fs.SetInjector(fp)
	buf := make([]byte, 16)
	for i := 0; i < 2; i++ {
		if _, err := fs.WriteAt(buf, int64(i*16)); err != nil {
			t.Fatalf("write %d before countdown: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		_, err := fs.WriteAt(buf, 64)
		if !errors.Is(err, sentinel) {
			t.Fatalf("post-countdown write %d: err = %v, want sentinel", i, err)
		}
	}
	// Reads are unaffected by a write-only fault.
	if _, err := fs.ReadAt(buf, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
}

func TestFaultTargetsOneServer(t *testing.T) {
	// 4 servers, 64-byte stripes: offset 128 lives on server 2.
	fs := faultFS(t, 4, 64)
	fs.SetInjector(&FaultPoint{Server: 2, Op: FaultAnyOp, Permanent: true})
	buf := make([]byte, 64)
	if _, err := fs.WriteAt(buf, 0); err != nil {
		t.Fatalf("server 0 write: %v", err)
	}
	if _, err := fs.WriteAt(buf, 64); err != nil {
		t.Fatalf("server 1 write: %v", err)
	}
	_, err := fs.WriteAt(buf, 128)
	if err == nil || !strings.Contains(err.Error(), "server 2") {
		t.Fatalf("server 2 write: err = %v", err)
	}
	// A spanning write that touches the dead server fails too.
	if _, err := fs.WriteAt(make([]byte, 256), 0); err == nil {
		t.Fatal("spanning write avoided the dead server")
	}
}

func TestFaultedRequestLeavesNoTrace(t *testing.T) {
	fs := faultFS(t, 1, 64)
	good := []byte("intact data intact data")
	if _, err := fs.WriteAt(good, 0); err != nil {
		t.Fatal(err)
	}
	before := fs.Stats()
	fs.SetInjector(&FaultPoint{Server: AnyServer, Op: FaultWrites, Permanent: true})
	if _, err := fs.WriteAt([]byte("clobber!"), 0); err == nil {
		t.Fatal("write survived")
	}
	after := fs.Stats()
	if after.Requests() != before.Requests() || after.Bytes() != before.Bytes() {
		t.Fatalf("failed request was charged: %d/%d -> %d/%d requests/bytes",
			before.Requests(), before.Bytes(), after.Requests(), after.Bytes())
	}
	fs.SetInjector(nil)
	got := make([]byte, len(good))
	if _, err := fs.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, good) {
		t.Fatalf("failed write mutated data: %q", got)
	}
}

func TestFaultClearedByNilInjector(t *testing.T) {
	fs := faultFS(t, 2, 64)
	fs.SetInjector(&FaultPoint{Server: AnyServer, Op: FaultAnyOp, Permanent: true})
	if _, err := fs.WriteAt(make([]byte, 8), 0); err == nil {
		t.Fatal("injector inactive")
	}
	fs.SetInjector(nil)
	if _, err := fs.WriteAt(make([]byte, 8), 0); err != nil {
		t.Fatalf("after clearing injector: %v", err)
	}
}

func TestFlakyDeterministic(t *testing.T) {
	trial := func() (failures int) {
		fs := faultFS(t, 2, 64)
		fs.SetInjector(NewFlaky(42, 0.3))
		buf := make([]byte, 16)
		for i := 0; i < 100; i++ {
			if _, err := fs.WriteAt(buf, int64(i*16)); err != nil {
				failures++
			}
		}
		return failures
	}
	a, b := trial(), trial()
	if a != b {
		t.Fatalf("flaky injector not deterministic: %d vs %d failures", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("flaky injector degenerate: %d failures of 100", a)
	}
}

func TestMultiChainsInjectors(t *testing.T) {
	fs := faultFS(t, 2, 64)
	errA := errors.New("fault A")
	errB := errors.New("fault B")
	fs.SetInjector(Multi{
		nil, // tolerated
		&FaultPoint{Server: 0, Op: FaultWrites, Err: errA},
		&FaultPoint{Server: 1, Op: FaultWrites, Err: errB},
	})
	_, err0 := fs.WriteAt(make([]byte, 8), 0) // server 0
	if !errors.Is(err0, errA) {
		t.Fatalf("server 0: %v", err0)
	}
	_, err1 := fs.WriteAt(make([]byte, 8), 64) // server 1
	if !errors.Is(err1, errB) {
		t.Fatalf("server 1: %v", err1)
	}
}

func TestFaultReadVWriteVPropagate(t *testing.T) {
	fs := faultFS(t, 2, 64)
	runs := []Run{{Off: 0, Len: 32}, {Off: 128, Len: 32}}
	buf := make([]byte, 64)
	if _, err := fs.WriteV(runs, buf); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(&FaultPoint{Server: AnyServer, Op: FaultReads, Permanent: true})
	if _, err := fs.ReadV(runs, buf); err == nil {
		t.Fatal("vectored read survived")
	}
	fs.SetInjector(&FaultPoint{Server: AnyServer, Op: FaultWrites, Permanent: true})
	if _, err := fs.WriteV(runs, buf); err == nil {
		t.Fatal("vectored write survived")
	}
}

func TestFaultErrorMessageNamesOperation(t *testing.T) {
	fs := faultFS(t, 1, 64)
	fs.SetInjector(&FaultPoint{Server: AnyServer, Op: FaultReads})
	_, err := fs.ReadAt(make([]byte, 4), 0)
	if err == nil {
		t.Fatal("read survived")
	}
	for _, want := range []string{"injected read fault", "server 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q lacks %q", err, want)
		}
	}
}

func TestFaultConcurrentSafety(t *testing.T) {
	fs := faultFS(t, 4, 64)
	fs.SetInjector(NewFlaky(7, 0.2))
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			buf := make([]byte, 64)
			for i := 0; i < 50; i++ {
				off := int64(g*4096 + i*64)
				// Failures are expected; corruption or panics are not.
				fs.WriteAt(buf, off)
				fs.ReadAt(buf, off)
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func ExampleFaultPoint() {
	fs, _ := Create("ex", Options{Servers: 2, StripeSize: 64})
	fs.SetInjector(&FaultPoint{Server: 1, Op: FaultWrites, Permanent: true})
	_, err0 := fs.WriteAt(make([]byte, 8), 0)
	_, err1 := fs.WriteAt(make([]byte, 8), 64)
	fmt.Println("server 0 write error:", err0)
	fmt.Println("server 1 write failed:", err1 != nil)
	// Output:
	// server 0 write error: <nil>
	// server 1 write failed: true
}

// TestRefusedSegmentsAllocateNothing: a degraded read absorbs the
// refusals of a dead server by reconstruction, so a refusal that never
// leaves the package must cost no allocation — the vectored read
// allocates no more with four times the refused segments.
func TestRefusedSegmentsAllocateNothing(t *testing.T) {
	const stripe, k = 64, 6
	fs, err := Create("refused", Options{Servers: k + 2, Parity: 2, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const rows = 32
	if _, err := fs.WriteAt(bytes.Repeat([]byte{7}, rows*k*stripe), 0); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(&FaultPoint{Server: 0, Op: FaultReads, Permanent: true})
	allocs := func(n int) float64 {
		// One 20-byte run in every stripe unit of n rows: n of them on the
		// dead server 0.
		var runs []Run
		for u := int64(0); u < int64(n*k); u++ {
			runs = append(runs, Run{Off: u*stripe + 10, Len: 20})
		}
		buf := make(Contig, 20*len(runs))
		read := func() {
			if _, err := fs.ReadVec(runs, buf); err != nil {
				t.Fatal(err)
			}
		}
		read()
		return testing.AllocsPerRun(20, read)
	}
	narrow, wide := allocs(rows/4), allocs(rows)
	if wide > narrow {
		t.Fatalf("a degraded read with %d refused segments allocated %.0f times, with %d: %.0f; want no allocation per refusal",
			rows/4, narrow, rows, wide)
	}
}
