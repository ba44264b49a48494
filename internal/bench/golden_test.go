package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
)

// The golden oracle: every `cmd/bench -quick` report metric and every
// nemesis injection fingerprint, pinned bit-for-bit, and every
// experiment's certification gates, which must hold. The experiments run
// on the discrete-event simulator, so a report is a pure function of
// (config, seed, calibrated broadcast costs); any harness refactor that
// claims to preserve behaviour must reproduce this file exactly. There is
// deliberately no tolerance: regenerate with
//
//	go test ./internal/bench -run TestGoldenQuick -update
//
// only when an experiment's behaviour is meant to change.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_quick.json from this run")

const goldenPath = "testdata/golden_quick.json"

// goldenEntry is one experiment's pinned outcome.
type goldenEntry struct {
	Metrics      map[string]float64 `json:"metrics"`
	Fingerprints map[string]string  `json:"fingerprints,omitempty"`
}

// goldenExcluded lists the metrics that are not a function of (config,
// seed): the postmortem experiment times the same run twice on the WALL
// clock to price the flight recorder, so these three vary with the host.
// Everything else in every report is pinned.
var goldenExcluded = []string{
	"postmortem.wall_on_ms",
	"postmortem.wall_off_ms",
	"postmortem.overhead_pct",
}

// pinCalibration replaces the measured broadcast-mode costs with fixed
// ones for the duration of a test. Calibrate() times the real term
// interpreter, so the interpreted-mode per-message cost differs from
// process to process — and with it Fig. 8's interpreted curves and every
// PBR reconfiguration timeline (fig10a, chaos failover, the overlap
// ablation), whose recovery rides the interpreted service. Pinning the
// three costs at the paper-anchored compiled cost and representative
// measured ratios (8x / 17x) makes those metrics reproducible too, so
// nothing but wall-clock has to be excluded.
func pinCalibration(t *testing.T) {
	t.Helper()
	prev := calibrateOnce
	calibrateOnce = func() BcastCosts {
		return BcastCosts{
			PerMsg: map[broadcast.Mode]time.Duration{
				broadcast.Compiled:       CompiledAnchor,
				broadcast.InterpretedOpt: 8 * CompiledAnchor,
				broadcast.Interpreted:    17 * CompiledAnchor,
			},
			MeasuredRatio: map[broadcast.Mode]float64{
				broadcast.Compiled: 1, broadcast.InterpretedOpt: 8, broadcast.Interpreted: 17,
			},
		}
	}
	t.Cleanup(func() { calibrateOnce = prev })
}

// goldenSlow marks the experiments skipped under -short.
var goldenSlow = map[string]bool{"readpath": true}

func TestGoldenQuick(t *testing.T) {
	pinCalibration(t)
	want := map[string]goldenEntry{}
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("read golden file (regenerate with -update): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("parse %s: %v", goldenPath, err)
		}
	}
	got := map[string]goldenEntry{}
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			if goldenSlow[e.Name] && testing.Short() {
				t.Skip("seconds of virtual load")
			}
			out, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			// The certification gate: what `cmd/bench -experiment <name>
			// -quick` exits nonzero on.
			for _, g := range out.Gates {
				if !g.OK {
					t.Errorf("gate %s failed: %s", g.Name, g.Detail)
				}
			}
			entry := goldenEntry{Metrics: map[string]float64{}, Fingerprints: out.Report.Fingerprints}
			for _, m := range out.Report.Metrics {
				if slices.Contains(goldenExcluded, m.Name) {
					continue
				}
				if _, dup := entry.Metrics[m.Name]; dup {
					t.Errorf("metric %s reported twice", m.Name)
				}
				entry.Metrics[m.Name] = m.Value
			}
			got[e.Name] = entry
			if *updateGolden {
				return
			}
			compareGolden(t, want[e.Name], entry)
		})
	}
	if !*updateGolden {
		return
	}
	if testing.Short() {
		t.Fatal("-update needs every experiment: run without -short")
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// compareGolden requires exact equality of every metric and fingerprint,
// in both directions (nothing missing, nothing extra).
func compareGolden(t *testing.T, want, got goldenEntry) {
	t.Helper()
	var diffs []string
	for name, w := range want.Metrics {
		g, ok := got.Metrics[name]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("metric %s missing (golden %v)", name, w))
		case g != w:
			diffs = append(diffs, fmt.Sprintf("metric %s = %v, golden %v", name, g, w))
		}
	}
	for name, g := range got.Metrics {
		if _, ok := want.Metrics[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("metric %s = %v not in golden file", name, g))
		}
	}
	for name, w := range want.Fingerprints {
		if g, ok := got.Fingerprints[name]; !ok || g != w {
			diffs = append(diffs, fmt.Sprintf("fingerprint %s = %q, golden %q", name, g, w))
		}
	}
	for name, g := range got.Fingerprints {
		if _, ok := want.Fingerprints[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("fingerprint %s = %q not in golden file", name, g))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Errorf("%d differences from %s:\n  %s", len(diffs), goldenPath, strings.Join(diffs, "\n  "))
	}
}
