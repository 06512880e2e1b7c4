package workload

import (
	"reflect"
	"testing"

	"drxmp/internal/grid"
)

func TestFillDeterministic(t *testing.T) {
	a := Fill([]int{3, 5})
	b := Fill([]int{3, 5})
	if a != b {
		t.Fatal("Fill not deterministic")
	}
	if Fill([]int{3, 5}) == Fill([]int{5, 3}) {
		t.Fatal("Fill symmetric in coordinates (should distinguish)")
	}
}

func TestFillBoxAndVerify(t *testing.T) {
	box := grid.NewBox([]int{2, 1}, []int{5, 4})
	for _, o := range []grid.Order{grid.RowMajor, grid.ColMajor} {
		vals := FillBox(box, o)
		if int64(len(vals)) != box.Volume() {
			t.Fatalf("len = %d", len(vals))
		}
		if bad := Verify(box, vals, o); bad != nil {
			t.Fatalf("Verify(%v) flagged %v", o, bad)
		}
		// Corrupt one cell; Verify must catch it.
		vals[4] += 1
		if bad := Verify(box, vals, o); bad == nil {
			t.Fatalf("Verify(%v) missed corruption", o)
		}
	}
}

func TestSchedules(t *testing.T) {
	rr := RoundRobinSchedule(3, 6, 1)
	dims := []int{}
	for _, s := range rr {
		dims = append(dims, s.Dim)
	}
	if !reflect.DeepEqual(dims, []int{0, 1, 2, 0, 1, 2}) {
		t.Fatalf("round robin dims = %v", dims)
	}
	r1 := RandomSchedule(3, 10, 4, 7)
	r2 := RandomSchedule(3, 10, 4, 7)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("RandomSchedule not deterministic for equal seeds")
	}
	for _, s := range r1 {
		if s.Dim < 0 || s.Dim >= 3 || s.By < 1 || s.By > 4 {
			t.Fatalf("bad step %+v", s)
		}
	}
}

func TestRandomBoxes(t *testing.T) {
	bounds := []int{20, 15}
	boxes := RandomBoxes(bounds, 50, 6, 3)
	if len(boxes) != 50 {
		t.Fatalf("n = %d", len(boxes))
	}
	full := grid.BoxOf(grid.Shape(bounds))
	for _, b := range boxes {
		if b.Empty() {
			t.Fatalf("empty box %v", b)
		}
		if !full.ContainsBox(b) {
			t.Fatalf("box %v escapes bounds", b)
		}
		for d := range bounds {
			if b.Hi[d]-b.Lo[d] > 6 {
				t.Fatalf("box %v exceeds maxEdge", b)
			}
		}
	}
	again := RandomBoxes(bounds, 50, 6, 3)
	if !reflect.DeepEqual(boxes, again) {
		t.Fatal("RandomBoxes not deterministic")
	}
}
