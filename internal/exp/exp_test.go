package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"drxmp/internal/report"
)

func render(tables []*report.Table) string {
	var b bytes.Buffer
	for _, t := range tables {
		t.Render(&b)
	}
	return b.String()
}

func TestFig1GoldenGrid(t *testing.T) {
	s := Fig1Space()
	want := [5][4]int64{
		{0, 1, 6, 12},
		{2, 3, 7, 13},
		{4, 5, 8, 14},
		{9, 10, 11, 15},
		{16, 17, 18, 19},
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			if got := s.MustMap([]int{i, j}); got != want[i][j] {
				t.Fatalf("F*(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
}

// TestFig1GlobalMapMatchesPaperListing: the computed zone chunk lists
// must equal the hard-coded globalMap of the paper's Section IV code.
func TestFig1GlobalMapMatchesPaperListing(t *testing.T) {
	gm, err := Fig1GlobalMap()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{
		{0, 1, 2, 3, 4, 5},
		{6, 7, 8, 12, 13, 14},
		{9, 10, 16, 17},
		{11, 15, 18, 19},
	}
	if !reflect.DeepEqual(gm, want) {
		t.Fatalf("globalMap = %v, want %v", gm, want)
	}
}

func TestFig1Render(t *testing.T) {
	out := render(Fig1())
	for _, frag := range []string{"F*(4,2) = 18", "P2", "9,10,16,17"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig1 output missing %q:\n%s", frag, out)
		}
	}
}

func TestFig2Render(t *testing.T) {
	out := render(Fig2())
	for _, frag := range []string{
		"row-major", "Z (Morton)", "symmetric linear shell", "arbitrary linear shell",
		// Golden fragments from the grids:
		"56 57 58 59 60 61 62 63", // row-major last row
		"42 43 46 47 58 59 62 63", // morton last row
		"63 62 61 60 59 58 57 56", // shell last row
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig2 output missing %q", frag)
		}
	}
}

func TestFig3Render(t *testing.T) {
	out := render(Fig3())
	for _, frag := range []string{
		"plane I2=0", "plane I2=3",
		"(4; 48; 12 3 1)", "(3; 36; 3 12 1)", "(3; 72; 4 1 24)", "(0; -1; 0 0 0)",
		"F*(2,1,0)=7", "F*(3,1,2)=34", "F*(4,2,2)=56",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig3 output missing %q:\n%s", frag, out)
		}
	}
}

func TestFig3SpaceMatchesPaper(t *testing.T) {
	s := Fig3Space()
	if s.Total() != 96 {
		t.Fatalf("total = %d", s.Total())
	}
	if got := s.MustMap([]int{4, 2, 2}); got != 56 {
		t.Fatalf("F*(4,2,2) = %d", got)
	}
}

// The E-experiments must run cleanly at Quick scale and produce rows.
// Their shape claims are asserted where cheap to do so.

func TestE1Runs(t *testing.T) {
	tables := E1ExtendCost(Quick)
	if len(tables) != 1 || len(tables[0].Rows) < 8 {
		t.Fatalf("E1 rows = %d", len(tables[0].Rows))
	}
	out := render(tables)
	if !strings.Contains(out, "drx-axial") || !strings.Contains(out, "dra-rowmajor") {
		t.Fatalf("E1 output incomplete:\n%s", out)
	}
}

func TestE2ShapeHolds(t *testing.T) {
	tables := E2AccessOrder(Quick)
	rows := tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("E2 rows = %d", len(rows))
	}
	// rows: dra-row, dra-col, drx-row, drx-col; columns 2 and 3 are the
	// charged requests and seeks.
	reqs := func(i int) int64 { return atoi(t, rows[i][2]) }
	seeks := func(i int) int64 { return atoi(t, rows[i][3]) }
	if reqs(1) < 100*reqs(0) || seeks(1) <= seeks(0) {
		t.Fatalf("dra column scan (%d reqs, %d seeks) not >= 100x the requests and more seeks than its row scan (%d, %d)",
			reqs(1), seeks(1), reqs(0), seeks(0))
	}
	// Either drx scan fetches each of the 16 chunks once: the column scan
	// in a request per chunk, the row scan in one per chunk row, whose 4
	// chunks lie back to back on the server and stream as one request.
	if reqs(2) != 4 || reqs(3) != 16 {
		t.Fatalf("drx row scan issued %d requests (want 4, one per chunk row), column scan %d (want 16, one per chunk)", reqs(2), reqs(3))
	}
}

func TestE3Runs(t *testing.T) {
	tables := E3MapLatency(Quick)
	out := render(tables)
	for _, frag := range []string{"row-major arithmetic", "F* (axial)", "B-tree lookup"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("E3 missing %q:\n%s", frag, out)
		}
	}
}

func TestE4Runs(t *testing.T) {
	tables := E4Scaling(Quick)
	if len(tables[0].Rows) != 5 {
		t.Fatalf("E4 rows = %d", len(tables[0].Rows))
	}
	out := render(tables)
	if strings.Contains(out, "error") {
		t.Fatalf("E4 reported errors:\n%s", out)
	}
}

func TestE5ShapeHolds(t *testing.T) {
	tables := E5Collective(Quick)
	rows := tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("E5 rows = %d: %v", len(rows), tables[0].Notes)
	}
	ind, coll := rows[0], rows[1]
	if ind[0] != "independent" || coll[0] != "collective (two-phase)" {
		t.Fatalf("E5 row labels: %v / %v", ind[0], coll[0])
	}
	indReq := atoi(t, ind[1])
	collReq := atoi(t, coll[1])
	if collReq*2 > indReq {
		t.Fatalf("collective %d requests not ≪ independent %d", collReq, indReq)
	}
}

func atoi(t *testing.T, s string) int64 {
	t.Helper()
	var v int64
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			t.Fatalf("not a number: %q", s)
		}
		v = v*10 + int64(ch-'0')
	}
	return v
}

func TestE6Runs(t *testing.T) {
	tables := E6ChunkStripe(Quick)
	if len(tables[0].Rows) < 3 {
		t.Fatalf("E6 rows = %d", len(tables[0].Rows))
	}
}

func TestE7Runs(t *testing.T) {
	tables := E7Formats(Quick)
	if len(tables[0].Rows) != 4 {
		t.Fatalf("E7 rows = %d", len(tables[0].Rows))
	}
	out := render(tables)
	for _, f := range []string{"drx-axial", "hdf5-btree", "dra-rowmajor", "ncdf-record"} {
		if !strings.Contains(out, f) {
			t.Fatalf("E7 missing %s", f)
		}
	}
}

func TestE8Runs(t *testing.T) {
	tables := E8RMA(Quick)
	out := render(tables)
	for _, frag := range []string{"local zone memory", "remote zone (one-sided)", "direct file read"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("E8 missing %q:\n%s", frag, out)
		}
	}
	// All three paths must have read correct values.
	for _, row := range tables[0].Rows {
		if row[2] != "true" {
			t.Fatalf("E8 path %q returned wrong values", row[0])
		}
	}
}

func TestE9InvariantHolds(t *testing.T) {
	tables := E9ParallelExtend(Quick)
	rows := tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("E9 rows = %d (notes: %v)", len(rows), tables[0].Notes)
	}
	if rows[1][3] != "0" {
		t.Fatalf("E9: %s old bytes changed after parallel extension", rows[1][3])
	}
}

func TestE11AblationShape(t *testing.T) {
	tables := E11LayoutAblation(Quick)
	rows := tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("E11 rows = %d", len(rows))
	}
	byName := map[string][]string{}
	for _, r := range rows {
		byName[r[0]] = r
	}
	ax := byName["axial"]
	if ax == nil || ax[4] != "0" || ax[5] != "0" || ax[6] != "0" {
		t.Fatalf("axial row not clean: %v", ax)
	}
	if rm := byName["row-major"]; rm == nil || rm[5] == "0" {
		t.Fatalf("row-major moved no cells: %v", rm)
	}
	if z := byName["z-order"]; z == nil || z[4] == "0" {
		t.Fatalf("z-order wasted no cells: %v", z)
	}
	if sh := byName["symmetric-shell"]; sh == nil || sh[4] == "0" {
		t.Fatalf("shell wasted no cells under arbitrary growth: %v", sh)
	}
}

func TestE10ShapeHolds(t *testing.T) {
	tables := E10Transpose(Quick)
	rows := tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("E10 rows = %d", len(rows))
	}
	// The explicit transpose reads, writes and re-reads the array.
	fly, explicit := atoi(t, rows[0][1]), atoi(t, rows[1][1])
	if fly == 0 || explicit != 3*fly {
		t.Fatalf("E10 bytes: fly=%d explicit=%d, want exactly 3x", fly, explicit)
	}
}
