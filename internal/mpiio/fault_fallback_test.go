package mpiio

import (
	"errors"
	"testing"

	"drxmp/internal/pfs"
)

// bigReadFault fails read requests at or above a size threshold —
// sieve-aligned block fetches trip it, tight demand reads do not.
type bigReadFault struct {
	min int64
	err error
}

func (f *bigReadFault) Fail(server int, write bool, off, n int64) error {
	if !write && n >= f.min {
		return f.err
	}
	return nil
}

// TestFaultSieveReadFallsBackToDemandRead: when the sieve-aligned
// fetch plan fails (its larger speculative requests hit a fault), the
// demand read must still succeed via the tight per-hole fallback, and
// the unverified blocks must not enter the cache.
func TestFaultSieveReadFallsBackToDemandRead(t *testing.T) {
	fs, w := fcForTest(t, 1<<20, 256, 256)
	fs.SetInjector(&bigReadFault{min: 128, err: errors.New("block fetch refused")})
	buf := make([]byte, 80)
	if err := w.ReadThrough([]pfs.Run{{Off: 300, Len: 80}}, Contig(buf)); err != nil {
		t.Fatalf("ReadThrough with failing sieve fetch: %v", err)
	}
	wantPattern(t, buf, 300)
	if got := w.Cached(); got != 0 {
		t.Fatalf("fallback populated the cache with %d unverified bytes", got)
	}
	// The fallback path must not have issued any sieve-attributed I/O
	// beyond the failed attempt; the demand bytes came in as plain reads.
	if st := fs.Stats(); st.BytesRead() != 80 {
		t.Fatalf("BytesRead = %d, want exactly the 80 demanded bytes", st.BytesRead())
	}
	// With the injector cleared the next read resumes sieve caching.
	fs.SetInjector(nil)
	if err := w.ReadThrough([]pfs.Run{{Off: 300, Len: 80}}, Contig(buf)); err != nil {
		t.Fatal(err)
	}
	wantPattern(t, buf, 300)
	if w.Cached() == 0 {
		t.Fatal("cache did not recover after the injector cleared")
	}
}

// TestFaultSieveFallbackSurfacesRealError: if the tight fallback read
// fails too (the demanded bytes themselves are unreachable), the error
// surfaces.
func TestFaultSieveFallbackSurfacesRealError(t *testing.T) {
	_, w := fcForTest(t, 1<<20, 256, 0)
	sentinel := errors.New("dead server")
	w.fs.SetInjector(&bigReadFault{min: 1, err: sentinel})
	buf := make([]byte, 80)
	err := w.ReadThrough([]pfs.Run{{Off: 300, Len: 80}}, Contig(buf))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the injected sentinel", err)
	}
}
