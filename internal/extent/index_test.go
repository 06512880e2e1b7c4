package extent

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// item is the test element: a range over a flat byte model, a recency
// stamp and the embedded LRU node.
type item struct {
	r    Run
	use  int64
	node LRUNode
}

func (e *item) Span() Run      { return e.r }
func (e *item) Stamp() int64   { return e.use }
func (e *item) Node() *LRUNode { return &e.node }

// randList builds a sorted, disjoint list over [0, size) and the byte
// map of what it covers.
func randList(rng *rand.Rand, size int64) ([]*item, []bool) {
	var s []*item
	covered := make([]bool, size)
	for off := rng.Int63n(8); off < size; {
		n := min(1+rng.Int63n(12), size-off)
		s = append(s, &item{r: Run{Off: off, Len: n}})
		for b := off; b < off+n; b++ {
			covered[b] = true
		}
		off += n + rng.Int63n(6) // gap 0 = adjacent
	}
	return s, covered
}

// trim is the plain cut: keep whatever of e lies outside hole.
func trim(e *item, hole Run, out []*item) []*item {
	if e.r.Off < hole.Off {
		out = append(out, &item{r: Run{Off: e.r.Off, Len: hole.Off - e.r.Off}})
	}
	if e.r.End() > hole.End() {
		out = append(out, &item{r: Run{Off: hole.End(), Len: e.r.End() - hole.End()}})
	}
	return out
}

func TestFindMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		s, _ := randList(rng, 300)
		off := rng.Int63n(320) - 10
		want := 0
		for want < len(s) && s[want].r.End() <= off {
			want++
		}
		// Every hint at or before the answer must find it.
		for from := 0; from <= want; from++ {
			if got := Find(s, off, from); got != want {
				t.Fatalf("Find(off %d, from %d) = %d, want %d", off, from, got, want)
			}
		}
		r := Run{Off: off, Len: 1 + rng.Int63n(40)}
		i, j := Window(s, r, 0)
		for k, e := range s {
			overlaps := e.r.Off < r.End() && e.r.End() > r.Off
			if overlaps != (k >= i && k < j) {
				t.Fatalf("Window(%v) = [%d,%d) but element %d %v overlaps=%v", r, i, j, k, e.r, overlaps)
			}
		}
	}
}

// TestPunchVMatchesByteModel: any run list — sorted, overlapping or out
// of order — removes exactly its bytes, keeps the list sorted and
// disjoint, and leaves every element it does not overlap in place with
// its identity.
func TestPunchVMatchesByteModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var scratch []*item
	for round := 0; round < 400; round++ {
		s, covered := randList(rng, modelSize)
		var runs []Run
		for k := rng.Intn(6); k > 0; k-- {
			runs = append(runs, Run{Off: rng.Int63n(modelSize), Len: rng.Int63n(40)})
		}
		if rng.Intn(3) > 0 {
			runs = Coalesce(runs) // the normal case: sorted and disjoint
		}
		var err error
		if scratch, err = punchAgainstModel(s, covered, runs, scratch); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// FuzzPunchV is TestPunchVMatchesByteModel with the list and the runs
// decoded from the input: list is (gap, length) byte pairs, runs is
// (offset, length) byte pairs in any order.
func FuzzPunchV(f *testing.F) {
	f.Fuzz(func(t *testing.T, list, runs []byte) {
		s, covered := decodeList(list)
		var rs []Run
		for ; len(runs) >= 2; runs = runs[2:] {
			rs = append(rs, Run{Off: int64(runs[0]), Len: int64(runs[1] % 64)})
		}
		if _, err := punchAgainstModel(s, covered, rs, nil); err != nil {
			t.Fatal(err)
		}
	})
}

const modelSize = 300 // bytes in the punch model

// decodeList builds a sorted, disjoint list over [0, modelSize) and the
// byte map of what it covers from (gap, length) byte pairs: gaps of
// 0-7 bytes (0 is adjacent), lengths of 1-12.
func decodeList(p []byte) ([]*item, []bool) {
	var s []*item
	covered := make([]bool, modelSize)
	var off int64
	for ; len(p) >= 2; p = p[2:] {
		off += int64(p[0] % 8)
		n := min(1+int64(p[1]%12), modelSize-off)
		if n <= 0 {
			break
		}
		s = append(s, &item{r: Run{Off: off, Len: n}})
		for b := off; b < off+n; b++ {
			covered[b] = true
		}
		off += n
	}
	return s, covered
}

// punchAgainstModel punches runs out of s and checks the result against
// the byte model covered: exactly the runs' bytes are gone, the list is
// sorted and disjoint, every element no run overlaps is kept with its
// identity, and the scratch comes back empty with nothing pinned. It
// returns the scratch for the next punch.
func punchAgainstModel(s []*item, covered []bool, runs []Run, scratch []*item) ([]*item, error) {
	before := slices.Clone(s)
	for _, r := range runs {
		for b := max(r.Off, 0); b < min(r.End(), int64(len(covered))); b++ {
			covered[b] = false
		}
	}
	s, scratch = PunchV(s, scratch, runs, trim)
	if len(scratch) != 0 {
		return scratch, fmt.Errorf("scratch came back with length %d", len(scratch))
	}
	for _, e := range scratch[:cap(scratch)] {
		if e != nil {
			return scratch, fmt.Errorf("scratch still pins %v", e.r)
		}
	}
	got := make([]bool, len(covered))
	var at int64
	for _, e := range s {
		if e.r.Len <= 0 || e.r.Off < at {
			return scratch, fmt.Errorf("list not sorted/disjoint at %v (runs %v)", e.r, runs)
		}
		at = e.r.End()
		for b := e.r.Off; b < e.r.End(); b++ {
			got[b] = true
		}
	}
	if !slices.Equal(got, covered) {
		return scratch, fmt.Errorf("coverage differs from the byte model (runs %v)", runs)
	}
	for _, e := range before {
		touched := false
		for _, r := range runs {
			touched = touched || (r.Len > 0 && e.r.Off < r.End() && e.r.End() > r.Off)
		}
		if !touched && !slices.Contains(s, e) {
			return scratch, fmt.Errorf("untouched element %v lost its identity (runs %v)", e.r, runs)
		}
	}
	return scratch, nil
}

// TestPunchVKeepsWholeElements: a cut that returns the element itself
// keeps it, even when the next run reaches into it again.
func TestPunchVKeepsWholeElements(t *testing.T) {
	a, b := &item{r: Run{Off: 0, Len: 100}}, &item{r: Run{Off: 100, Len: 50}}
	calls := 0
	s, _ := PunchV([]*item{a, b}, nil, []Run{{Off: 10, Len: 10}, {Off: 40, Len: 80}},
		func(e *item, hole Run, out []*item) []*item {
			calls++
			if e == a {
				return append(out, e)
			}
			return trim(e, hole, out)
		})
	if calls != 3 || len(s) != 2 || s[0] != a || s[1].r != (Run{Off: 120, Len: 30}) {
		t.Fatalf("calls %d, list %v %v", calls, s[0].r, s[len(s)-1].r)
	}
}

func TestPunchVNoOverlapAllocatesNothing(t *testing.T) {
	var s []*item
	for i := int64(0); i < 4096; i++ {
		s = append(s, &item{r: Run{Off: i * 100, Len: 50}})
	}
	var runs []Run
	for i := int64(0); i < 256; i++ {
		runs = append(runs, Run{Off: i*1600 + 50, Len: 50}) // the gaps
	}
	var scratch []*item
	if n := testing.AllocsPerRun(10, func() { s, scratch = PunchV(s, scratch, runs, trim) }); n != 0 {
		t.Fatalf("a punch that overlaps nothing allocated %v times", n)
	}
	if len(s) != 4096 {
		t.Fatalf("list changed: %d elements", len(s))
	}
}

// TestLRUOrderMatchesSort: under random pushes, removals and lazy stamp
// raises, draining the heap yields exactly (stamp ascending, offset
// descending) over the linked elements.
func TestLRUOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 100; round++ {
		var l LRU[*item]
		var live []*item
		clock := int64(0)
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 4 || len(live) == 0:
				e := &item{r: Run{Off: int64(op), Len: 1}, use: clock - int64(rng.Intn(2))}
				l.Push(e)
				live = append(live, e)
			case k < 7: // touch: the owner just raises the stamp
				clock++
				live[rng.Intn(len(live))].use = clock
			case k < 9:
				i := rng.Intn(len(live))
				l.Remove(live[i])
				if live[i].node.Linked() {
					t.Fatal("removed element still linked")
				}
				live = slices.Delete(live, i, i+1)
			default:
				e, ok := l.Min()
				want := slices.MinFunc(live, byAge)
				if !ok || e != want {
					t.Fatalf("round %d op %d: Min = %+v, want %+v", round, op, e, want)
				}
			}
			if l.Len() != len(live) {
				t.Fatalf("Len = %d, want %d", l.Len(), len(live))
			}
		}
		slices.SortFunc(live, byAge)
		for _, want := range live {
			e, ok := l.Min()
			if !ok || e != want {
				t.Fatalf("round %d drain: got %+v, want %+v", round, e, want)
			}
			l.Remove(e)
		}
		if _, ok := l.Min(); ok {
			t.Fatal("drained heap still has a minimum")
		}
	}
}

func byAge(a, b *item) int {
	if a.use != b.use {
		return int(a.use - b.use)
	}
	return int(b.r.Off - a.r.Off)
}
