package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from this run")

// scheduled names, per experiment, the columns whose cells follow the
// goroutine scheduler: in E5 and E6 four ranks share each server's seek
// state, so the order their requests arrive in moves E5's seeks and
// both tables' simulated time. Their request counts do not move.
var scheduled = map[string][]string{
	"e5": {"seeks", "sim time"},
	"e6": {"sim time"},
}

const goldenPath = "testdata/paper.golden"

// renderExp renders e at Quick scale as drxbench prints it, under its
// golden heading, its scheduled cells as "~".
func renderExp(e Experiment) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "### %s — %s\n\n", e.Name, e.Desc)
	for _, tb := range e.Run(Quick) {
		for c, col := range tb.Columns {
			if slices.Contains(scheduled[e.Name], col) {
				for _, row := range tb.Rows {
					row[c] = "~"
				}
			}
		}
		tb.Render(&b)
	}
	return b.Bytes()
}

// diffGolden fails t with the first ten lines where got and want part,
// numbered from the top of what was compared.
func diffGolden(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of file>"
	}
	for i, bad := 0, 0; i < max(len(g), len(w)) && bad < 10; i++ {
		if gl, wl := at(g, i), at(w, i); gl != wl {
			t.Errorf("%s:%d\n got %q\nwant %q", what, i+1, gl, wl)
			bad++
		}
	}
	t.Error("the paper's tables changed; if that is meant, rerun with -update and commit the golden's diff")
}

// TestPaperGolden renders every experiment but E15 (wall clock only)
// and compares the text with testdata/paper.golden byte for byte. The
// experiments share no state, so they run at once.
// `go test ./internal/exp -run TestPaperGolden -update` rewrites it.
func TestPaperGolden(t *testing.T) {
	runs := make([][]byte, len(All))
	var wg sync.WaitGroup
	for i, e := range All {
		if e.Name != "e15" {
			wg.Add(1)
			go func() { defer wg.Done(); runs[i] = renderExp(e) }()
		}
	}
	wg.Wait()
	got := bytes.Join(runs, nil)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, goldenPath, got, want)
}

// checkSection compares one experiment's rendering with its own
// section of the golden, so a change to it fails under its own name.
func checkSection(t *testing.T, name string) {
	t.Helper()
	i := slices.IndexFunc(All, func(e Experiment) bool { return e.Name == name })
	if i < 0 {
		t.Fatalf("no experiment %q", name)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(golden, []byte("### "+name+" — "))
	if start < 0 {
		t.Fatalf("%s has no section for %s", goldenPath, name)
	}
	want := golden[start:]
	if end := bytes.Index(want[1:], []byte("\n### ")); end >= 0 {
		want = want[:end+2]
	}
	diffGolden(t, goldenPath+" section "+name, renderExp(All[i]), want)
}

func TestFig1Render(t *testing.T) { checkSection(t, "fig1") }
func TestFig2Render(t *testing.T) { checkSection(t, "fig2") }
func TestFig3Render(t *testing.T) { checkSection(t, "fig3") }
func TestE1Runs(t *testing.T)     { checkSection(t, "e1") }
func TestE3Runs(t *testing.T)     { checkSection(t, "e3") }
func TestE4Runs(t *testing.T)     { checkSection(t, "e4") }
func TestE6Runs(t *testing.T)     { checkSection(t, "e6") }
func TestE7Runs(t *testing.T)     { checkSection(t, "e7") }
func TestE8Runs(t *testing.T)     { checkSection(t, "e8") }

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

func TestFig3SpaceMatchesPaper(t *testing.T) {
	s := Fig3Space()
	if s.Total() != 96 {
		t.Fatalf("total = %d", s.Total())
	}
	if got := s.MustMap([]int{4, 2, 2}); got != 56 {
		t.Fatalf("F*(4,2,2) = %d", got)
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
