package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"shadowdb/internal/broadcast"
)

// Machine-readable benchmark output. Every experiment can emit a Report
// — a flat list of named metrics with units, stamped with the git commit
// and wall time — written as BENCH_<name>.json so CI and regression
// tooling can diff runs without scraping the human tables.

// Metric is one measured value.
type Metric struct {
	// Name is dotted and stable across runs ("fig8.compiled.c16.tput").
	Name string `json:"name"`
	// Value is the measurement.
	Value float64 `json:"value"`
	// Unit names the value's unit ("msg/s", "ms", "ns", "count", "s").
	Unit string `json:"unit"`
}

// Report is one experiment's machine-readable result set.
type Report struct {
	// Name is the experiment ("fig8", "spans", ...).
	Name string `json:"name"`
	// GitSHA is the commit the binary was built from ("" outside a repo).
	GitSHA string `json:"git_sha,omitempty"`
	// Timestamp is the run's wall time, RFC 3339.
	Timestamp string `json:"timestamp"`
	// Quick marks reduced-scale runs (not comparable to full runs).
	Quick bool `json:"quick,omitempty"`
	// Metrics are the measurements.
	Metrics []Metric `json:"metrics"`
	// Fingerprints are the nemesis injection-log hashes of the run (hex),
	// by run name: equal fingerprints mean bit-identical fault schedules,
	// which is what makes two reports comparable.
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
}

// Add appends one metric.
func (r *Report) Add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// Fingerprint records one run's injection-log hash.
func (r *Report) Fingerprint(name string, hash uint64) {
	if r.Fingerprints == nil {
		r.Fingerprints = make(map[string]string)
	}
	r.Fingerprints[name] = fmt.Sprintf("%016x", hash)
}

// NewReport creates a report stamped with the current commit and time.
func NewReport(name string, quick bool) *Report {
	return &Report{
		Name:      name,
		GitSHA:    GitSHA(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Quick:     quick,
	}
}

// GitSHA returns the working tree's HEAD commit, or "" when git or the
// repository is unavailable (deployed binaries, extracted tarballs).
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// WriteReport writes the report to dir/BENCH_<name>.json ("." when dir
// is empty) and returns the path.
func WriteReport(dir string, r *Report) (string, error) {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: create report dir: %w", err)
	}
	path := filepath.Join(dir, "BENCH_"+r.Name+".json")
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: marshal report %s: %w", r.Name, err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("bench: write report: %w", err)
	}
	return path, nil
}

// ---------------------------------------------- per-experiment builders --

func modeName(m broadcast.Mode) string {
	switch m {
	case broadcast.Compiled:
		return "compiled"
	case broadcast.InterpretedOpt:
		return "interpreted_opt"
	case broadcast.Interpreted:
		return "interpreted"
	default:
		return fmt.Sprintf("mode%d", m)
	}
}

// reportFig8 flattens the broadcast-mode sweep.
func reportFig8(res Fig8Result, r *Report) {
	for mode, curve := range res.Curves {
		mn := modeName(mode)
		for _, p := range curve {
			r.Add(fmt.Sprintf("fig8.%s.c%d.tput", mn, p.Clients), p.Throughput, "msg/s")
			r.Add(fmt.Sprintf("fig8.%s.c%d.mean_lat", mn, p.Clients), p.MeanLatMs, "ms")
		}
	}
}

// metricKey turns a display name into a metric-name component.
func metricKey(name string) string {
	return strings.ToLower(strings.NewReplacer(" ", "_", "-", "_", "/", "_").Replace(name))
}

// reportFig9 flattens a latency/throughput sweep (fig9a or fig9b, as the
// report is named).
func reportFig9(res Fig9Result, r *Report) {
	for _, series := range res.Order {
		for _, p := range res.Curves[series] {
			pre := fmt.Sprintf("%s.%s.c%d.", r.Name, metricKey(series), p.Clients)
			r.Add(pre+"tput", p.Throughput, "tx/s")
			r.Add(pre+"mean_lat", p.MeanLatMs, "ms")
			r.Add(pre+"p99_lat", p.P99LatMs, "ms")
			r.Add(pre+"aborts", float64(p.Aborts), "count")
		}
	}
}

// reportFig10a flattens the recovery timeline.
func reportFig10a(res Fig10aResult, r *Report) {
	r.Add("fig10a.crash_at", res.CrashAt.Seconds(), "s")
	r.Add("fig10a.suspected_at", res.SuspectedAt.Seconds(), "s")
	r.Add("fig10a.config_at", res.ConfigAt.Seconds(), "s")
	r.Add("fig10a.resumed_at", res.ResumedAt.Seconds(), "s")
	r.Add("fig10a.config_latency", res.ConfigLatency.Seconds(), "s")
	r.Add("fig10a.transfer_time", res.TransferTime.Seconds(), "s")
	r.Add("fig10a.committed", float64(res.Committed), "count")
}

// reportFig10b flattens the state-transfer sweep.
func reportFig10b(res Fig10bResult, r *Report) {
	for _, p := range res.Small {
		r.Add(fmt.Sprintf("fig10b.small.rows%d", p.Rows), p.Seconds, "s")
	}
	for _, p := range res.Large {
		r.Add(fmt.Sprintf("fig10b.large.rows%d", p.Rows), p.Seconds, "s")
	}
	if res.TPCCSec > 0 {
		r.Add("fig10b.tpcc_1wh", res.TPCCSec, "s")
	}
}

// reportTable1 flattens the verification statistics.
func reportTable1(rows []Table1Row, r *Report) {
	for _, row := range rows {
		pre := "table1." + metricKey(row.Module) + "."
		r.Add(pre+"spec_nodes", float64(row.SpecNodes), "count")
		r.Add(pre+"term_nodes", float64(row.TermNodes), "count")
		r.Add(pre+"opt_nodes", float64(row.OptNodes), "count")
		r.Add(pre+"props", float64(row.Props), "count")
		r.Add(pre+"auto", float64(row.Counts.Auto), "count")
		r.Add(pre+"manual", float64(row.Counts.Manual), "count")
	}
}

// reportAblations flattens ablation rows.
func reportAblations(rows []AblationResult, r *Report) {
	for _, a := range rows {
		r.Add("ablation."+metricKey(a.Name)+".on", a.WithOn, a.Unit)
		r.Add("ablation."+metricKey(a.Name)+".off", a.WithOff, a.Unit)
	}
}
