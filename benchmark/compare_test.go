package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	noisy := []float64{60, 100, 140, 80, 120, 100}
	for _, tc := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"throughput up", steady(1000), steady(1200), "higher", 0.10, vBetter},
		{"throughput down", steady(1000), steady(800), "higher", 0.10, vWorse},
		{"throughput within bound", steady(1000), steady(1050), "higher", 0.10, vSame},
		{"latency down", steady(10), steady(8), "lower", 0.10, vBetter},
		{"latency up", steady(10), steady(12), "lower", 0.10, vWorse},
		{"latency within bound", steady(10), steady(10.9), "lower", 0.10, vSame},
		{"old side too noisy", noisy, steady(50), "lower", 0.10, vUnresolved},
		{"new side too noisy", steady(100), noisy, "higher", 0.10, vUnresolved},
		{"no new runs", steady(10), nil, "lower", 0.10, vMissing},
	} {
		if got := verdict(tc.old, tc.new, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFlagsWorseAndErrorRate(t *testing.T) {
	s := &spec{EndToEnd: []specMetric{{Name: "throughput_tps", Better: "higher", Bound: 0.1}}}
	s.Workloads = append(s.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	runs := func(tps float64, failed int64) []runResult {
		var out []runResult
		for i := 0; i < 4; i++ {
			out = append(out, runResult{Workload: "w", Attempted: 1000, Failed: failed,
				Metrics: map[string]metric{"throughput_tps": {tps + float64(i), "1/s"}}})
		}
		return out
	}
	var buf bytes.Buffer
	if compare(&buf, s, runs(1000, 0), runs(1005, 0)) {
		t.Errorf("same runs reported worse:\n%s", buf.String())
	}
	buf.Reset()
	if !compare(&buf, s, runs(1000, 0), runs(700, 0)) || !strings.Contains(buf.String(), vWorse) {
		t.Errorf("a 30%% throughput drop was not reported worse:\n%s", buf.String())
	}
	buf.Reset()
	if !compare(&buf, s, runs(1000, 0), runs(1000, 1)) {
		t.Errorf("a higher error rate was not reported worse:\n%s", buf.String())
	}
}
