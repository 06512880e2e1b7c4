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

// The spill model's operations.
const (
	opPut = iota
	opPunch
	opTake
	opTakeInto
	opCollect
	opMarkClean
	opLose
	nSpillOps
)

const spillModelSize = 4096 // bytes of array file the model covers

// spillModel drives a Store against a flat byte model. Clean bytes may
// vanish (budget eviction); dirty bytes may not, and nothing punched or
// taken may come back.
type spillModel struct {
	s           *Store
	have        []bool // the byte may be spilled
	isDirty     []bool
	val         []byte
	putAt       []int // step of the byte's last put
	pending     []Chunk
	collectedAt int
	step        int
}

func newSpillModel(t *testing.T, budget int64) *spillModel {
	return &spillModel{s: mk(t, budget), have: make([]bool, spillModelSize), isDirty: make([]bool, spillModelSize),
		val: make([]byte, spillModelSize), putAt: make([]int, spillModelSize), collectedAt: -1}
}

func (m *spillModel) forget(r extent.Run) {
	for b := r.Off; b < r.End(); b++ {
		m.have[b], m.isDirty[b] = false, false
	}
}

// do runs operation op on r, inside [0, spillModelSize); aux picks a
// put's bytes and color, a punch's second run and where a loss cuts the
// spill file. Then it checks the store against the model.
func (m *spillModel) do(op int, r extent.Run, aux byte) error {
	m.step++
	switch op {
	case opPut:
		data, d := make([]byte, r.Len), aux%3 == 0
		for i := range data {
			data[i] = aux + byte(i*7)
		}
		m.forget(r) // the put punches its range even when refused
		if m.s.Put(r.Off, data, d) {
			copy(m.val[r.Off:], data)
			for b := r.Off; b < r.End(); b++ {
				m.have[b], m.isDirty[b], m.putAt[b] = true, d, m.step
			}
		}
	case opPunch:
		runs := []extent.Run{r, {Off: r.End() + int64(aux%64), Len: int64(aux % 100)}}
		runs[1].Len = max(0, min(runs[1].Len, spillModelSize-runs[1].Off))
		m.s.PunchV(runs)
		m.forget(runs[0])
		m.forget(runs[1])
	case opTake, opTakeInto:
		var ps []Promoted
		var err error
		if op == opTake {
			ps, err = m.s.Take(r.Off, r.Len)
		} else {
			// The caller's memory: one buffer, handed out front to back,
			// each piece's end offset its owner.
			mem, at := make([]byte, spillModelSize), 0
			ps, err = m.s.TakeInto(r.Off, r.Len, func(n int64) ([]byte, any) {
				at += int(n)
				return mem[at-int(n) : at], at
			})
			for _, p := range ps {
				if end := p.Owner.(int); &p.Data[0] != &mem[end-len(p.Data)] {
					return fmt.Errorf("take into the caller's memory returned other memory for [%d,+%d)", p.Off, len(p.Data))
				}
			}
		}
		if err != nil {
			return err
		}
		for _, p := range ps {
			pr := extent.Run{Off: p.Off, Len: int64(len(p.Data))}
			if !bytes.Equal(p.Data, m.val[pr.Off:pr.End()]) || p.Dirty != m.isDirty[pr.Off] {
				return fmt.Errorf("take returned wrong bytes or color for %v", pr)
			}
			m.forget(pr)
		}
		for b := r.Off; b < r.End(); b++ {
			if m.isDirty[b] {
				return fmt.Errorf("take left dirty byte %d behind", b)
			}
			m.have[b] = false // a clean byte not returned had been evicted
		}
	case opCollect:
		var err error
		if m.pending, err = m.s.CollectDirty(nil); err != nil {
			return err
		}
		m.collectedAt = m.step
	case opMarkClean:
		ids := make([]int64, len(m.pending))
		for i, c := range m.pending {
			ids[i] = c.ID
		}
		m.s.MarkClean(ids)
		m.pending = nil
		// Re-flushing is always allowed, so the store may keep more dirty
		// than it must — but never make clean bytes dirty, nor clean a
		// byte put after the collect.
		chunks, err := m.s.CollectDirty(nil)
		if err != nil {
			return err
		}
		still := make([]bool, spillModelSize)
		for _, c := range chunks {
			for b := c.Off; b < c.Off+int64(len(c.Data)); b++ {
				still[b] = true
			}
		}
		for b := range still {
			if still[b] != m.isDirty[b] && (still[b] || m.putAt[b] > m.collectedAt) {
				return fmt.Errorf("byte %d dirty=%v in the store, %v in the model (put at %d, collected at %d)",
					b, still[b], m.isDirty[b], m.putAt[b], m.collectedAt)
			}
		}
		m.isDirty = still
	case opLose:
		// The spill file loses its tail, as on a failing disk: a flush's
		// read-backs stop at the first dirty entry past the cut, and every
		// buffer they were lent comes back, read or Lost. Then the tier
		// is emptied.
		if err := m.s.f.Truncate(m.s.FileSize() * int64(aux) / 256); err != nil {
			return err
		}
		lent := map[any]bool{}
		chunks, err := m.s.CollectDirty(func(n int64) ([]byte, any) {
			lent[len(lent)] = true
			return make([]byte, n), len(lent) - 1
		})
		for i, c := range chunks {
			if !lent[c.Owner] || c.Lost != (err != nil && i == len(chunks)-1) {
				return fmt.Errorf("collect chunk %d of %d (error %v): not lent, returned twice, or Lost=%v", i, len(chunks), err, c.Lost)
			}
			delete(lent, c.Owner)
			if !c.Lost && !bytes.Equal(c.Data, m.val[c.Off:c.Off+int64(len(c.Data))]) {
				return fmt.Errorf("collect returned wrong bytes for [%d,+%d)", c.Off, len(c.Data))
			}
		}
		if len(lent) > 0 {
			return fmt.Errorf("%d buffers lent to the collect did not come back (error %v)", len(lent), err)
		}
		all := extent.Run{Len: spillModelSize}
		m.s.PunchV([]extent.Run{all})
		m.forget(all)
		m.pending = nil
	}
	if err := checkStore(m.s); err != nil {
		return err
	}
	covered := make([]bool, spillModelSize)
	for _, c := range m.s.Coverage(nil) {
		for b := c.Off; b < c.End(); b++ {
			if !m.have[b] {
				return fmt.Errorf("byte %d is spilled but was punched, taken or never put", b)
			}
			covered[b] = true
		}
	}
	for b := range m.have {
		if m.isDirty[b] && !covered[b] {
			return fmt.Errorf("dirty byte %d was dropped", b)
		}
		m.have[b] = covered[b] // uncovered clean bytes were evicted
	}
	return nil
}

// TestSpillModel: random Put/Take/TakeInto/PunchV/CollectDirty/MarkClean
// against the flat byte model, the invariants asserted after every
// step. `-run 'TestSpillModel/seed=N'` replays one sequence.
func TestSpillModel(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newSpillModel(t, 1024+rng.Int63n(2048))
			for step := 0; step < 300; step++ {
				r := extent.Run{Off: rng.Int63n(spillModelSize - 300), Len: 1 + rng.Int63n(300)}
				op := []int{opPut, opPut, opPut, opPut, opPunch, opPunch, opTake, opTakeInto, opCollect, opMarkClean}[rng.Intn(10)]
				if err := m.do(op, r, byte(rng.Intn(256))); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

// FuzzSpillModel is TestSpillModel with the budget and the operations
// decoded from the input: the first byte sets the budget, and every 5
// bytes after it are one operation — kind, offset (2 bytes), length,
// aux. Its kinds add opLose, the failed read-backs the seeded test
// never makes.
func FuzzSpillModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) == 0 {
			return
		}
		m := newSpillModel(t, 1024+8*int64(p[0]))
		for p = p[1:]; len(p) >= 5; p = p[5:] {
			r := extent.Run{Off: (int64(p[1])<<8 | int64(p[2])) % (spillModelSize - 300), Len: 1 + int64(p[3])}
			if err := m.do(int(p[0])%nSpillOps, r, p[4]); err != nil {
				t.Fatalf("step %d: %v", m.step, err)
			}
		}
	})
}
