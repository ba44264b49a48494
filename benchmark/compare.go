package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// spec is the part of BENCHMARK.json the benchmark itself reads: the
// metric names, directions and regression bounds. It is the only place
// bounds live.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// repoRoot finds the directory holding BENCHMARK.json: the working
// directory (run from the repository root) or its parent (run from
// benchmark/).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from benchmark/")
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// resultsFile is what -out appends to and -compare reads. Runs carry a
// set number so one file can hold the two agreement sets of a baseline.
type resultsFile struct {
	Meta map[string]string `json:"meta"`
	Runs []runResult       `json:"runs"`
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResult adds one run to the results file, creating it (with the
// machine description) when absent.
func appendResult(path, sha string, res *runResult) error {
	f, err := loadResults(path)
	if os.IsNotExist(err) {
		f, err = &resultsFile{Meta: map[string]string{
			"nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
			"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH, "git_sha": sha,
		}}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, *res)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Verdicts of one workload x metric comparison.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved"
	vMissing    = "missing"
)

// verdict compares two samples of one metric using only its bound: a
// spread (inter-quartile range over median) wider than the bound on
// either side leaves the pair unresolved; otherwise the medians differ
// by more than the bound, or they are the same.
func verdict(old, new []float64, better string, bound float64) string {
	if len(old) == 0 || len(new) == 0 {
		return vMissing
	}
	if max(spread(old), spread(new)) > bound {
		return vUnresolved
	}
	mo, mn := median(old), median(new)
	if mo == 0 {
		return vUnresolved
	}
	gain := (mn - mo) / mo
	if better == "lower" {
		gain = -gain
	}
	switch {
	case gain > bound:
		return vBetter
	case gain < -bound:
		return vWorse
	}
	return vSame
}

// valuesOf collects one metric of one workload over the runs.
func valuesOf(runs []runResult, workload, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func errorRate(runs []runResult, workload string) (rate float64, n int) {
	var failed, attempted int64
	for _, r := range runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
			n++
		}
	}
	return float64(failed) / float64(max(attempted, 1)), n
}

// compare prints one verdict per workload and end-to-end metric and
// reports whether anything got worse.
func compare(w io.Writer, s *spec, old, new []runResult) (worse bool) {
	fmt.Fprintf(w, "%-18s %-22s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "old iqr", "new iqr", "bound", "verdict")
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			o, n := valuesOf(old, wl.Name, m.Name), valuesOf(new, wl.Name, m.Name)
			v := verdict(o, n, m.Better, m.Bound)
			worse = worse || v == vWorse
			fmt.Fprintf(w, "%-18s %-22s %12.4f %12.4f %7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, median(o), median(n), 100*spread(o), 100*spread(n), 100*m.Bound, v)
		}
		oe, on := errorRate(old, wl.Name)
		ne, nn := errorRate(new, wl.Name)
		v := vSame
		switch {
		case on == 0 || nn == 0:
			v = vMissing
		case ne > oe:
			v, worse = vWorse, true
		case ne < oe:
			v = vBetter
		}
		fmt.Fprintf(w, "%-18s %-22s %12.6f %12.6f %8s %8s %7s  %s\n", wl.Name, "error_rate", oe, ne, "", "", "0", v)
	}
	return worse
}

// runCompare implements -compare: two results files, or one file whose
// runs are split into set 0 and set 1 (the committed baseline).
func runCompare(w io.Writer, root string, files []string) (worse bool, err error) {
	s, err := loadSpec(root)
	if err != nil {
		return false, err
	}
	var sets [2][]runResult
	switch len(files) {
	case 1:
		f, err := loadResults(files[0])
		if err != nil {
			return false, err
		}
		for _, r := range f.Runs {
			i := 0
			if r.Set != 0 {
				i = 1
			}
			sets[i] = append(sets[i], r)
		}
	case 2:
		for i, path := range files {
			f, err := loadResults(path)
			if err != nil {
				return false, err
			}
			sets[i] = f.Runs
		}
	default:
		return false, fmt.Errorf("-compare takes old.json new.json, or one file holding sets 0 and 1")
	}
	return compare(w, s, sets[0], sets[1]), nil
}
