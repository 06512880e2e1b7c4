// Package par is the bounded worker pool shared by the collective
// stages (internal/mpiio) and DistArray's section transfers: a fixed
// number of goroutines draining an indexed work list, stopping at the
// first error. It is deliberately tiny — deterministic fan-out over
// pre-computed work items, no channels of work structs, no context
// plumbing — because its callers all reduce to "run fn(i) for i in
// [0,n) with at most w goroutines", with w = GOMAXPROCS.
package par

import (
	"sync"
	"sync/atomic"
)

// Do runs fn(i) for every i in [0, n), using at most `workers`
// goroutines, and returns the first error. After an error, remaining
// indices are skipped (in-flight calls still finish). workers <= 1 or
// n <= 1 degenerates to a plain serial loop with no goroutines — the
// deterministic fallback path.
func Do(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		first   error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { first = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
