package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// printed parses a report into section -> name -> units seen.
func printed(t *testing.T, workload, out string) map[string]map[string][]string {
	t.Helper()
	got := map[string]map[string][]string{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 5 || f[0] != workload {
			continue
		}
		section, name, unit := f[1], f[2], f[4]
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", workload, name)
		}
		if got[section] == nil {
			got[section] = map[string][]string{}
		}
		got[section][name] = append(got[section][name], unit)
	}
	return got
}

// TestSmoke runs all five workloads at toy size, scored and traced, on
// a second seed, and checks the report against BENCHMARK.json: every
// end-to-end metric printed exactly once per workload with its unit,
// every per-layer metric at most once per workload and at least once
// somewhere, nothing failing, and the contract line carrying exactly
// the listed names.
func TestSmoke(t *testing.T) {
	bm, err := loadBenchmark("")
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bm.Workloads), len(specs))
	}
	layerSeen := map[string]bool{}
	for i, sp := range specs {
		if bm.Workloads[i].Name != sp.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, bm.Workloads[i].Name, sp.name)
		}
		cfg := runConfig{sp: sp, seed: 2, seconds: 1, scale: 0.1, dir: t.TempDir()}
		res, err := cfg.scored()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.print(&buf)
		got := printed(t, sp.name, buf.String())
		for _, m := range bm.EndToEnd {
			if units := got["end_to_end"][m.Name]; !reflect.DeepEqual(units, []string{m.Unit}) {
				t.Errorf("%s: end-to-end %s printed with units %v, want once with %q", sp.name, m.Name, units, m.Unit)
			}
		}
		if f, ok := res.EndToEnd.get("fail_frac"); !ok || f.Value != 0 || !res.Correct || res.Failed != 0 {
			t.Errorf("%s: fail_frac %v, correct %v, failed %d", sp.name, f.Value, res.Correct, res.Failed)
		}
		for _, m := range res.EndToEnd {
			if m.Name != "fail_frac" && !(m.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v, want above 0", sp.name, m.Name, m.Value)
			}
		}

		tres, spans, err := cfg.traced()
		if err != nil {
			t.Fatal(err)
		}
		if !tres.Correct || len(spans) == 0 {
			t.Errorf("%s traced: correct %v, %d spans", sp.name, tres.Correct, len(spans))
		}
		buf.Reset()
		tres.print(&buf)
		got = printed(t, sp.name, buf.String())
		for _, m := range bm.PerLayer {
			units := got["per_layer"][m.Name]
			if len(units) > 1 || (len(units) == 1 && units[0] != m.Unit) {
				t.Errorf("%s: per-layer %s printed with units %v, want at most once with %q", sp.name, m.Name, units, m.Unit)
			}
			layerSeen[m.Name] = layerSeen[m.Name] || len(units) == 1
		}
		buf.Reset()
		if err := contractLine(&buf, "", tres); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool
			Attempted int
			Metrics   map[string]struct{ Unit string }
		}
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatalf("%s: contract line %q: %v", sp.name, buf.String(), err)
		}
		if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(bm.PerLayer) {
			t.Errorf("%s: contract line correct %v attempted %d with %d metrics, want %d", sp.name, line.Correct, line.Attempted, len(line.Metrics), len(bm.PerLayer))
		}
	}
	for _, m := range bm.PerLayer {
		if !layerSeen[m.Name] {
			t.Errorf("per-layer %s is listed in BENCHMARK.json but no workload prints it", m.Name)
		}
	}
}

// TestOracleFlipFails flips one oracle byte under a live array: the op
// that reads it and the whole-array compare must both report it.
func TestOracleFlipFails(t *testing.T) {
	sp := specByName("section_mixed")
	r := newRunner(sp, 1, t.TempDir())
	_, err := r.withInstance(false, nil, func(in *instance) error {
		b := box{100, 100, 130, 130}
		var rec recorder
		in.drive(0, 1, []op{{kind: opRead, box: b}}, plain, nil, &rec)
		if rec.failed != 0 || in.verifyAll() != 0 {
			t.Errorf("before the flip: %d failed ops, %d bad bands", rec.failed, in.verifyAll())
		}
		in.or.row(110, 110, 111)[3] ^= 1
		for _, mode := range []passMode{plain, paired} {
			rec = recorder{}
			in.drive(0, 1, []op{{kind: opRead, box: b}}, mode, nil, &rec)
			if rec.failed != 1 {
				t.Errorf("mode %d: a read over the flipped byte counted %d failures, want 1", mode, rec.failed)
			}
		}
		if bad := in.verifyAll(); bad != 1 {
			t.Errorf("whole-array compare found %d bad bands, want 1", bad)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGenerator checks that op lists depend on the seed alone, that a
// shorter list is a prefix of a longer one, and that section ops keep
// the template's mix and stay unaligned and in bounds.
func TestGenerator(t *testing.T) {
	for _, sp := range specs {
		a, b := newRunner(sp, 7, ""), newRunner(sp, 7, "")
		n := 3 * max(sp.block, 1)
		la, lb, long := a.ops(n), b.ops(n), a.ops(2*n)
		if !reflect.DeepEqual(la, lb) {
			t.Errorf("%s: same seed, different ops", sp.name)
		}
		if reflect.DeepEqual(la, newRunner(sp, 8, "").ops(n)) {
			t.Errorf("%s: different seeds, same ops", sp.name)
		}
		for d := range la {
			short := la[d]
			if sp.name == "outofcore_scan" {
				short = short[:len(short)-1] // the closing Sync
			}
			if !reflect.DeepEqual(short, long[d][:len(short)]) {
				t.Errorf("%s driver %d: %d units are not a prefix of %d", sp.name, d, n, 2*n)
			}
			writes := 0
			for _, o := range la[d] {
				if o.kind == opWrite {
					writes++
				}
				if o.kind != opRead && o.kind != opWrite {
					continue
				}
				if o.box.bytes() > sp.maxPayload || o.box.r0 < 0 || o.box.c0 < 0 || o.box.rows() < 1 || o.box.cols() < 1 {
					t.Errorf("%s: bad box %+v", sp.name, o.box)
				}
				if sp.block > 0 && (o.box.r0%chunkSide == 0 || o.box.r1%chunkSide == 0 || o.box.c0%chunkSide == 0 || o.box.c1%chunkSide == 0) {
					t.Errorf("%s: chunk-aligned box %+v", sp.name, o.box)
				}
			}
			if sp.name == "section_mixed" && writes != 3*6 {
				t.Errorf("section_mixed: %d writes in 3 blocks, want 18", writes)
			}
		}
	}
}

func TestOracle(t *testing.T) {
	fill := make([]byte, 100)
	rand.New(rand.NewSource(1)).Read(fill)
	o := newOracle(8, 8, fill)
	b := box{2, 3, 5, 7}
	src := make([]byte, b.bytes())
	for i := range src {
		src[i] = byte(i + 1)
	}
	o.write(b, src)
	got := make([]byte, b.bytes())
	o.read(b, got)
	if !bytes.Equal(got, src) || !o.equal(b, src) {
		t.Fatal("write then read differs")
	}
	before := make([]byte, 8*8*elemSize)
	o.read(box{0, 0, 8, 8}, before)
	o.extend(1, 8)
	o.extend(0, 8)
	after := make([]byte, 8*8*elemSize)
	o.read(box{0, 0, 8, 8}, after)
	if !bytes.Equal(before, after) {
		t.Error("extending moved existing elements")
	}
	zeros := make([]byte, 8*8*elemSize)
	if !o.equal(box{8, 0, 16, 8}, zeros) || !o.equal(box{0, 8, 8, 16}, zeros) {
		t.Error("extended region does not read as zeros")
	}
	src[0] ^= 1
	if o.equal(b, src) {
		t.Error("equal missed a flipped byte")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	v := []float64{9, 2, 7, 4, 12, 1, 5, 8, 30, 3}
	q1, q3 := quartiles(v)
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-9.75) > 1e-12 || median(v) != 6 {
		t.Errorf("quartiles %v %v median %v, want 2.75 9.75 6", q1, q3, median(v))
	}
	if got := histQuantile([]int64{0, 0, 4, 4}, 0.5); got != 4 {
		t.Errorf("histQuantile = %v, want 4", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{10, 10.1, 9.9, 10, 10}, "same"},
		{[]float64{12, 12.1, 11.9, 12, 12}, "worse"},
		{[]float64{8, 8.1, 7.9, 8, 8}, "better"},
	} {
		if got, _ := verdict(base, c.b, 0.1); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	if got, _ := verdict([]float64{5, 10, 15, 20, 25}, base, 0.1); got != "unresolved" {
		t.Errorf("a base spread wider than the bound gave %s, want unresolved", got)
	}
}
