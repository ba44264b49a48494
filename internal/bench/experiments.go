package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// Options are the cmd/bench flags an experiment run sees.
type Options struct {
	// Quick selects the reduced CI scale.
	Quick bool
	// FlightDir, when non-empty, is where flight-recorder postmortem
	// bundles go (experiments with Flight set honour it).
	FlightDir string
}

// Outcome is what one experiment run hands back: the human-readable
// rendering, the machine-readable report, and the certification gates
// (empty for experiments that only measure).
type Outcome struct {
	Render func(io.Writer)
	Report *Report
	Gates  []Gate
}

// Experiment is one registry entry: an experiment is a config (default
// and quick), a run, and what the run yields — render, report, gates.
type Experiment struct {
	Name string
	// Flight reports whether the experiment honours Options.FlightDir.
	Flight bool
	Run    func(Options) (Outcome, error)
}

// experiment assembles a registry entry from an experiment's parts.
// flight (nil when the experiment arms no recorders) points the config
// at the flight dir; gates (nil when ungated) is the result's gate list.
func experiment[C, R any](name string, def, quick func() C, flight func(*C, string),
	run func(C) (R, error), render func(io.Writer, R), report func(R, *Report),
	gates func(R) []Gate) Experiment {
	return Experiment{Name: name, Flight: flight != nil, Run: func(o Options) (Outcome, error) {
		cfg := def()
		if o.Quick {
			cfg = quick()
		}
		if flight != nil {
			flight(&cfg, o.FlightDir)
		}
		res, err := run(cfg)
		if err != nil {
			return Outcome{}, err
		}
		out := Outcome{Report: NewReport(name, o.Quick)}
		report(res, out.Report)
		if gates != nil {
			out.Gates = gates(res)
		}
		out.Render = func(w io.Writer) {
			render(w, res)
			renderFingerprints(w, out.Report)
		}
		return out, nil
	}}
}

// renderFingerprints prints the report's injection fingerprints — the
// one place they are shown, so no experiment formats its own.
func renderFingerprints(w io.Writer, r *Report) {
	names := make([]string, 0, len(r.Fingerprints))
	for n := range r.Fingerprints {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  nemesis fingerprint %s: %s\n", n, r.Fingerprints[n])
	}
}

// infallible adapts a run that cannot fail.
func infallible[C, R any](run func(C) R) func(C) (R, error) {
	return func(cfg C) (R, error) { return run(cfg), nil }
}

// none is the config of experiments that have nothing to scale.
type none struct{}

func noConfig() none { return none{} }

// titled binds a sweep's headline to its renderer.
func titled(title string) func(io.Writer, Fig9Result) {
	return func(w io.Writer, res Fig9Result) { RenderFig9(w, title, res) }
}

// Experiments is the registry, in `-experiment all` order. cmd/bench's
// usage string, -experiment validation and -flight-dir help all come
// from it.
func Experiments() []Experiment {
	return []Experiment{
		experiment("table1", noConfig, noConfig, nil,
			func(none) ([]Table1Row, error) { return Table1(), nil }, RenderTable1, reportTable1, nil),
		experiment("fig8", DefaultFig8, QuickFig8, nil, infallible(Fig8), RenderFig8, reportFig8, nil),
		experiment("fig9a", DefaultFig9a, QuickFig9a, nil, infallible(Fig9a),
			titled("Fig. 9(a) — micro-benchmark: latency vs committed transactions/sec"), reportFig9, nil),
		experiment("fig9b", DefaultFig9b, QuickFig9b, nil, infallible(Fig9b),
			titled("Fig. 9(b) — TPC-C: latency vs committed transactions/sec"), reportFig9, nil),
		experiment("fig10a", DefaultFig10a, QuickFig10a, nil, infallible(Fig10a), RenderFig10a, reportFig10a, nil),
		experiment("fig10b", DefaultFig10b, QuickFig10b, nil, infallible(Fig10b), RenderFig10b, reportFig10b, nil),
		experiment("ablations", noConfig, noConfig, nil,
			func(none) ([]AblationResult, error) {
				return []AblationResult{AblationBatching(16, 300, 5_000), AblationOverlap(50_000)}, nil
			}, RenderAblations, reportAblations, nil),
		experiment("batch", DefaultBatch, QuickBatch, nil, infallible(Batch), RenderBatch, reportBatch, BatchResult.Gates),
		experiment("spans", DefaultSpans, QuickSpans, nil, infallible(Spans), RenderSpans, reportSpans, SpanResult.Gates),
		experiment("chaos", DefaultChaos, QuickChaos,
			func(c *ChaosConfig, dir string) { c.FlightDir = dir },
			infallible(Chaos), RenderChaos, reportChaos, ChaosResult.Gates),
		experiment("recovery", DefaultRecovery, QuickRecovery,
			func(c *RecoveryConfig, dir string) { c.FlightDir = dir },
			infallible(Recovery), RenderRecovery, reportRecovery, RecoveryResult.Gates),
		experiment("membership", DefaultMembership, QuickMembership,
			func(c *MembershipConfig, dir string) { c.FlightDir = dir },
			infallible(Membership), RenderMembership, reportMembership, MembershipResult.Gates),
		experiment("shard", DefaultShard, QuickShard,
			func(c *ShardConfig, dir string) { c.FlightDir = dir },
			infallible(Shard), RenderShard, reportShard, ShardResult.Gates),
		experiment("readpath", DefaultReadPath, QuickReadPath,
			func(c *ReadPathConfig, dir string) { c.FlightDir = dir },
			infallible(ReadPath), RenderReadPath, reportReadPath, ReadPathResult.Gates),
		experiment("overload", DefaultOverload, QuickOverload,
			func(c *OverloadConfig, dir string) { c.FlightDir = dir },
			infallible(Overload), RenderOverload, reportOverload, OverloadResult.Gates),
		// Scoped under its own subdirectory: with -experiment all the
		// other experiments' evidence shares the same root, and the
		// postmortem analysis must only see its own bundles.
		experiment("postmortem", DefaultPostmortem, QuickPostmortem,
			func(c *PostmortemConfig, dir string) {
				if dir != "" {
					c.Dir = filepath.Join(dir, "postmortem")
				}
			},
			Postmortem, RenderPostmortem, reportPostmortem, PostmortemResult.Gates),
	}
}
