package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestDoCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const n = 100
		var seen [n]atomic.Int32
		if err := Do(workers, n, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, seen[i].Load())
			}
		}
	}
}

// TestDoStopsOnError: every item but the failing one blocks until the
// failing item is about to return, so nothing beyond the four items in
// flight has started when the error comes back. The released workers
// may still draw items in the instants before Do records the error —
// under -race on a busy machine that gap was seen to outlast a thousand
// items, which is what made the old n = 1000 flaky — so n is a billion:
// running them all takes minutes, and "fewer than all" then holds for
// any stall a scheduler can produce. With early stop working the test
// runs a handful of calls.
func TestDoStopsOnError(t *testing.T) {
	const n = 1 << 30
	boom := errors.New("boom")
	failing := make(chan struct{})
	var ran atomic.Int64
	err := Do(4, n, func(i int) error {
		ran.Add(1)
		if i == 3 {
			close(failing)
			return boom
		}
		<-failing
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("no early stop: all %d calls ran", got)
	}
}

func TestDoEmpty(t *testing.T) {
	if err := Do(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}
