package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkFile is BENCHMARK.json: the metric lists and, for each
// end-to-end metric, the share of the parent's median by which it may
// get worse before a change counts as a regression.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmark reads path, or the first BENCHMARK.json found in the
// working directory or its parent (the benchmark runs from the
// repository root or from its own directory).
func loadBenchmark(path string) (*benchmarkFile, error) {
	if path == "" {
		for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
			if _, err := os.Stat(p); err == nil {
				path = p
				break
			}
		}
		if path == "" {
			return nil, fmt.Errorf("BENCHMARK.json not found here or one level up; pass -benchmark")
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm benchmarkFile
	if err := json.Unmarshal(b, &bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bm, nil
}

// readResults reads a -json result file into end-to-end samples keyed
// by workload then metric. Traced results are skipped.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, m := range r.EndToEnd {
			out[r.Workload][m.Name] = append(out[r.Workload][m.Name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict compares sample sets a (base) and b of a lower-is-better
// metric against bound: "unresolved" when the base's own run-to-run
// spread is wider than the bound, otherwise by the change of the
// median as a share of the base's median.
func verdict(a, b []float64, bound float64) (string, float64) {
	change := (median(b) - median(a)) / median(a)
	switch {
	case relIQR(a) > bound:
		return "unresolved", change
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "same", change
}

// compareFiles prints, per workload, the median and quartiles of every
// end-to-end metric in both files and a verdict against the bounds in
// BENCHMARK.json. Every ratio is printed with its base.
func compareFiles(w io.Writer, benchJSON, pathA, pathB string) error {
	bm, err := loadBenchmark(benchJSON)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base a = %s, b = %s; change = (median b - median a) / median a; all metrics lower-is-better\n", pathA, pathB)
	fmt.Fprintf(w, "%-20s %-22s %4s %12s %12s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "n", "a.median", "a.q1", "a.q3", "b.median", "b.q1", "b.q3", "change", "bound", "verdict")
	worse := 0
	for _, wl := range bm.Workloads {
		for _, m := range bm.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "%-20s %-22s needs at least 2 runs on each side (a=%d b=%d)\n", wl.Name, m.Name, len(va), len(vb))
				continue
			}
			aq1, aq3 := quartiles(va)
			bq1, bq3 := quartiles(vb)
			v, change := verdict(va, vb, m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-20s %-22s %4d %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(va), median(va), aq1, aq3, median(vb), bq1, bq3, change*100, m.Bound*100, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

// spread is one metric's measured steadiness on one workload.
type spread struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Bound    float64 `json:"bound"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	RelIQRA  float64 `json:"rel_iqr_a"`
	RelIQRB  float64 `json:"rel_iqr_b"`
	Gap      float64 `json:"gap"` // (median_b - median_a) / median_a
}

// runSelfcheck runs two interleaved sets of n full runs of this very
// binary, one process per workload run and a new seed per run, prints
// each metric's medians, relative inter-quartile ranges and the gap
// between the sets, writes them to SPREADS.json beside this package's
// sources (BENCHMARK.json's form admits no extra keys), and fails if a
// spread or a gap exceeds the metric's bound.
func runSelfcheck(w io.Writer, benchJSON string, n, seconds int) error {
	bm, err := loadBenchmark(benchJSON)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "drxbench-selfcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	files := [2]string{filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")}
	for i := 0; i < n; i++ {
		for set, file := range files {
			for _, wl := range bm.Workloads {
				cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.Itoa(1+i+set*n),
					"-seconds", strconv.Itoa(seconds), "-json", file, "-benchmark", benchJSON)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("run %d of set %c, %s: %w", i+1, 'a'+set, wl.Name, err)
				}
			}
		}
		fmt.Fprintf(w, "selfcheck: %d/%d runs of each set done\n", i+1, n)
	}
	a, err := readResults(files[0])
	if err != nil {
		return err
	}
	b, err := readResults(files[1])
	if err != nil {
		return err
	}
	var out []spread
	bad := 0
	fmt.Fprintf(w, "%-20s %-22s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median.a", "median.b", "iqr.a", "iqr.b", "gap", "bound")
	for _, wl := range bm.Workloads {
		for _, m := range bm.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			s := spread{wl.Name, m.Name, m.Bound, median(va), median(vb), relIQR(va), relIQR(vb), (median(vb) - median(va)) / median(va)}
			out = append(out, s)
			mark := ""
			// A set-up time's spread is reported, not gated; its gap is.
			if s.Gap > m.Bound || (m.Name != "setup_s" && max(s.RelIQRA, s.RelIQRB) > m.Bound) {
				mark = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-20s %-22s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				wl.Name, m.Name, s.MedianA, s.MedianB, s.RelIQRA*100, s.RelIQRB*100, s.Gap*100, m.Bound*100, mark)
		}
	}
	js, err := json.MarshalIndent(struct {
		Runs    int         `json:"runs_per_set"`
		Seconds int         `json:"seconds"`
		Env     environment `json:"env"`
		Spreads []spread    `json:"spreads"`
	}{n, seconds, currentEnv(), out}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(spreadsPath(), append(js, '\n'), 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", bad)
	}
	return nil
}

// spreadsPath is SPREADS.json in this package's directory, whether the
// benchmark runs from there or from the repository root.
func spreadsPath() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "SPREADS.json")
	}
	return "SPREADS.json"
}
