package drx

import (
	"strings"
	"testing"

	"drxmp"
	"drxmp/internal/pfs"
)

// faultArray creates a tiny in-memory array with a small chunk cache so
// injected storage faults are not masked by cache hits.
func faultArray(t *testing.T) *Array {
	t.Helper()
	a, err := Create("fault", Options{
		DType:      Float64,
		ChunkShape: []int{2, 2},
		Bounds:     []int{8, 8},
		FS:         pfs.Options{Servers: 2, StripeSize: 64},
		Tuning:     drxmp.Tuning{CacheBytes: 64}, // two chunks
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func fill(t *testing.T, a *Array) {
	t.Helper()
	box := NewBox([]int{0, 0}, a.Bounds())
	vals := make([]float64, box.Volume())
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := a.WriteFloat64s(box, vals, RowMajor); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultSurfacesOnRead(t *testing.T) {
	a := faultArray(t)
	fill(t, a)
	a.FS().SetInjector(&pfs.FaultPoint{Server: pfs.AnyServer, Op: pfs.FaultReads, Permanent: true})
	box := NewBox([]int{0, 0}, a.Bounds())
	_, err := a.ReadFloat64s(box, RowMajor)
	if err == nil || !strings.Contains(err.Error(), "injected read fault") {
		t.Fatalf("read err = %v", err)
	}
	// Recovery: clear the fault and the same read succeeds.
	a.FS().SetInjector(nil)
	got, err := a.ReadFloat64s(box, RowMajor)
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("element %d = %v after recovery", i, v)
		}
	}
}

func TestFaultSurfacesOnWriteOrSync(t *testing.T) {
	a := faultArray(t)
	fill(t, a)
	a.FS().SetInjector(&pfs.FaultPoint{Server: pfs.AnyServer, Op: pfs.FaultWrites, Permanent: true})
	box := NewBox([]int{0, 0}, []int{4, 4})
	vals := make([]float64, box.Volume())
	err := a.WriteFloat64s(box, vals, RowMajor)
	if err == nil {
		// Write-back pool: the failure may be deferred to flush time,
		// but it must not be silently dropped.
		err = a.Sync()
	}
	if err == nil {
		t.Fatal("write fault vanished: neither Write nor Sync reported it")
	}
	// The library stays usable once the fault clears.
	a.FS().SetInjector(nil)
	if err := a.WriteFloat64s(box, vals, RowMajor); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
}

func TestFaultDuringExtendDoesNotCorruptMetadata(t *testing.T) {
	a := faultArray(t)
	fill(t, a)
	before := a.Bounds()
	chunksBefore := a.Chunks()
	a.FS().SetInjector(&pfs.FaultPoint{Server: pfs.AnyServer, Op: pfs.FaultWrites, Permanent: true})
	if err := a.Extend(1, 4); err != nil {
		// Extend may touch storage (pre-truncate); failure must leave
		// the logical bounds unchanged.
		if got := a.Bounds(); got[0] != before[0] || got[1] != before[1] {
			t.Fatalf("failed extend changed bounds: %v -> %v", before, got)
		}
		if a.Chunks() != chunksBefore {
			t.Fatalf("failed extend changed chunk count: %d -> %d", chunksBefore, a.Chunks())
		}
		return
	}
	// In-memory pre-extension may legitimately succeed without I/O; the
	// metadata must then be consistent and data intact.
	a.FS().SetInjector(nil)
	box := NewBox([]int{0, 0}, before)
	got, err := a.ReadFloat64s(box, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("pre-extend element %d = %v", i, v)
		}
	}
}

func TestTransientFaultRetrySucceeds(t *testing.T) {
	a := faultArray(t)
	fill(t, a)
	// One transient read failure — the model of a glitching I/O server.
	// The cache retries a failed sieve fetch as a direct read of the
	// holes inside the same call, so even the first read succeeds.
	fault := &pfs.FaultPoint{Server: 0, Op: pfs.FaultReads}
	a.FS().SetInjector(fault)
	box := NewBox([]int{0, 0}, a.Bounds())
	got, err := a.ReadFloat64s(box, RowMajor)
	if err != nil {
		t.Fatalf("read through a transient fault: %v", err)
	}
	if !fault.Fired() {
		t.Fatal("transient fault missed (cache too large?)")
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("element %d = %v after retry", i, v)
		}
	}
}
