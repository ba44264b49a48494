package main

import (
	"os"
	"path/filepath"
	"testing"

	"shadowdb/internal/bench/tpcc"
	"shadowdb/internal/obs"
)

// The smoke runs every workload for one second per phase — set-up,
// solo, loaded, correctness check, restart from the data directory — and
// holds the reported metric names to BENCHMARK.json.
func TestWorkloadsSmoke(t *testing.T) {
	s, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	obs.Default.SetLogLevel(obs.LevelWarn)
	registerWireTypes()
	// The smoke is about the pipeline, not the load: at the measured scale
	// one TPC-C transaction under the race detector outlasts the phases.
	defer func(sc tpcc.Scale) { tpccScale = sc }(tpccScale)
	tpccScale = tpcc.Small()
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, s.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			name, want := w.name+"/untraced", s.EndToEnd
			if traced {
				name, want = w.name+"/traced", s.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				res, err := runWorkload(w, runOpts{seed: 7, seconds: 3, traced: traced, setups: 1, outDir: out, log: testLog{t}})
				if err == nil && traced {
					err = microMetrics(res)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: reported %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}
