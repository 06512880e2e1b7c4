package spill

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"drxmp/internal/extent"
)

// checkStore asserts the store's structural invariants: entries sorted
// and disjoint, the books equal to the sums, the LRU holding exactly
// the clean entries, the free list sorted, coalesced and short of the
// file's end, and slots and free runs tiling the spill file without
// overlap. It takes s.mu, so it may run beside other users.
func checkStore(s *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var used, dirty int64
	var clean []*ext
	slots := slices.Clone(s.free)
	for i, e := range s.ext {
		if e.n <= 0 || (i > 0 && s.ext[i-1].end() > e.off) {
			return fmt.Errorf("entry [%d,%d) empty, out of order or overlapping its predecessor", e.off, e.end())
		}
		used += e.n
		if e.dirty {
			dirty += e.n
		} else {
			clean = append(clean, e)
		}
		if e.node.Linked() == e.dirty {
			return fmt.Errorf("entry at %d: dirty=%v but in the LRU=%v", e.off, e.dirty, e.node.Linked())
		}
		slots = append(slots, extent.Run{Off: e.slot, Len: e.n})
	}
	if used != s.used || dirty != s.dirty {
		return fmt.Errorf("books say %d used / %d dirty, entries sum to %d / %d", s.used, s.dirty, used, dirty)
	}
	if s.lru.Len() != len(clean) {
		return fmt.Errorf("LRU holds %d entries, %d are clean", s.lru.Len(), len(clean))
	}
	for i, r := range s.free {
		if r.Len <= 0 || (i > 0 && s.free[i-1].End() >= r.Off) || r.End() >= s.size {
			return fmt.Errorf("free list %v (file size %d) is not sorted, coalesced and trimmed", s.free, s.size)
		}
	}
	slices.SortFunc(slots, func(a, b extent.Run) int { return int(a.Off - b.Off) })
	var at int64
	for _, r := range slots {
		if r.Off < at {
			return fmt.Errorf("slot or free run [%d,%d) overlaps its predecessor", r.Off, r.End())
		}
		at = r.End()
	}
	if at > s.size || (used > 0 && used > s.budget) {
		return fmt.Errorf("slots reach %d past the file size %d, or %d used over budget %d", at, s.size, used, s.budget)
	}
	return nil
}

// TestSpillModel: random Put/Take/PunchV/CollectDirty/MarkClean against
// a flat byte model, the invariants asserted after every step. Clean
// bytes may vanish (budget eviction); dirty bytes may not, and nothing
// punched or taken may come back. `-run 'TestSpillModel/seed=N'`
// replays one sequence.
func TestSpillModel(t *testing.T) {
	const size = 4096
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := mk(t, 1024+rng.Int63n(2048))
			have := make([]bool, size) // the byte may be spilled
			isDirty := make([]bool, size)
			val := make([]byte, size)
			forget := func(r extent.Run) {
				for b := r.Off; b < r.End(); b++ {
					have[b], isDirty[b] = false, false
				}
			}
			var pending []Chunk
			putAt := make([]int, size) // step of the byte's last put
			collectedAt := -1
			for step := 0; step < 300; step++ {
				r := extent.Run{Off: rng.Int63n(size - 300), Len: 1 + rng.Int63n(300)}
				switch k := rng.Intn(10); {
				case k < 4:
					data, d := make([]byte, r.Len), rng.Intn(3) == 0
					rng.Read(data)
					forget(r) // the put punches its range even when refused
					if s.Put(r.Off, data, d) {
						copy(val[r.Off:], data)
						for b := r.Off; b < r.End(); b++ {
							have[b], isDirty[b], putAt[b] = true, d, step
						}
					}
				case k < 6:
					runs := []extent.Run{r, {Off: r.End() + rng.Int63n(64), Len: rng.Int63n(100)}}
					runs[1].Len = min(runs[1].Len, size-runs[1].Off)
					s.PunchV(runs)
					forget(runs[0])
					forget(runs[1])
				case k < 8:
					for _, p := range takeAll(t, s, r.Off, r.Len) {
						pr := extent.Run{Off: p.Off, Len: int64(len(p.Data))}
						if !bytes.Equal(p.Data, val[pr.Off:pr.End()]) || p.Dirty != isDirty[pr.Off] {
							t.Fatalf("step %d: take returned wrong bytes or color for %v", step, pr)
						}
						forget(pr)
					}
					for b := r.Off; b < r.End(); b++ {
						if isDirty[b] {
							t.Fatalf("step %d: take left dirty byte %d behind", step, b)
						}
						have[b] = false // a clean byte not returned had been evicted
					}
				case k == 8:
					var err error
					if pending, err = s.CollectDirty(); err != nil {
						t.Fatal(err)
					}
					collectedAt = step
				default:
					ids := make([]int64, len(pending))
					for i, c := range pending {
						ids[i] = c.ID
					}
					s.MarkClean(ids)
					pending = nil
					// Re-flushing is always allowed, so the store may keep
					// more dirty than it must — but never make clean bytes
					// dirty, nor clean a byte put after the collect.
					chunks, err := s.CollectDirty()
					if err != nil {
						t.Fatal(err)
					}
					still := make([]bool, size)
					for _, c := range chunks {
						for b := c.Off; b < c.Off+int64(len(c.Data)); b++ {
							still[b] = true
						}
					}
					for b := range still {
						if still[b] != isDirty[b] && (still[b] || putAt[b] > collectedAt) {
							t.Fatalf("step %d: byte %d dirty=%v in the store, %v in the model (put at %d, collected at %d)",
								step, b, still[b], isDirty[b], putAt[b], collectedAt)
						}
					}
					isDirty = still
				}
				if err := checkStore(s); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				covered := make([]bool, size)
				for _, c := range s.Coverage(nil) {
					for b := c.Off; b < c.End(); b++ {
						if !have[b] {
							t.Fatalf("step %d: byte %d is spilled but was punched, taken or never put", step, b)
						}
						covered[b] = true
					}
				}
				for b := range have {
					if isDirty[b] && !covered[b] {
						t.Fatalf("step %d: dirty byte %d was dropped", step, b)
					}
					have[b] = covered[b] // uncovered clean bytes were evicted
				}
			}
		})
	}
}
