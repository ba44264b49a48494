package twothird

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"shadowdb/internal/gpm"
	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
	"shadowdb/internal/verify"
)

// The correctness properties of TwoThird Consensus, registered in the
// verify.Suite so Table I can report the automatic/manual split. The
// paper proved 8 lemmas automatically and 6 manually over three days; we
// check the corresponding end-to-end properties mechanically.

// Agreement is the module's single-value-per-slot property (the
// definition is verify.Agreement; the Decide format is ours). The same
// constructor serves the schedule explorer here and, through
// broadcast.Checks, the online checker and the offline replay.
func Agreement() *verify.Agreement { return verify.NewAgreement("twothird", Decided) }

// Irrevocable states that no node ever announces two different values
// for one instance: a decision, once emitted, stands.
func Irrevocable() verify.Invariant {
	said := make(map[string]string) // loc\x00inst → value
	return verify.Invariant{Name: "twothird/irrevocability", Step: func(e *verify.Event) (inScope bool, bad []string) {
		for _, o := range e.Outs {
			d, ok := o.M.Body.(Decide)
			if !ok || o.M.Hdr != HdrDecide {
				continue
			}
			inScope = true
			k := string(e.Loc) + "\x00" + strconv.Itoa(d.Inst)
			if prev, dup := said[k]; dup && prev != d.Val {
				bad = append(bad, fmt.Sprintf("node %s revoked decision %q for %q", e.Loc, prev, d.Val))
			}
			said[k] = d.Val
		}
		return inScope, bad
	}}
}

// testConfig builds the 3-node model instance used by the checkers.
func testConfig() Config {
	return Config{
		Nodes:    []msg.Loc{"n1", "n2", "n3"},
		Learners: []msg.Loc{"learner"},
	}
}

// model builds a verify.Model proposing the given values concurrently.
func model(cfg Config, proposals map[msg.Loc]string, crashes int) verify.Model {
	gen := Spec(cfg).Generator()
	var init []verify.Injection
	proposed := make(map[string]bool)
	for _, n := range cfg.Nodes {
		if v, ok := proposals[n]; ok {
			init = append(init, verify.Injection{To: n, M: msg.M(HdrPropose, Propose{Inst: 0, Val: v})})
			proposed[v] = true
		}
	}
	m := verify.Model{
		Gen:  gen,
		Locs: cfg.Nodes,
		Init: init,
		// Agreement and validity over every decision the schedule reveals.
		Invariants: func() []verify.Set {
			agree := Agreement()
			return []verify.Set{verify.Just(agree.Invariant(), agree.Validity(proposed))}
		},
		MaxDepth: 40,
		MaxRuns:  12_000,
	}
	if crashes > 0 {
		m.CrashLocs = cfg.Nodes[:1]
		m.Crashes = crashes
	}
	return m
}

// Properties returns the registered property set of the module.
func Properties() []verify.Property {
	return []verify.Property{
		{Module: "TwoThird", Name: "agreement/exhaustive", Mode: verify.Auto, Check: checkAgreementExhaustive},
		{Module: "TwoThird", Name: "validity/exhaustive", Mode: verify.Auto, Check: checkAgreementExhaustive},
		{Module: "TwoThird", Name: "agreement/crash", Mode: verify.Auto, Check: checkAgreementCrash},
		{Module: "TwoThird", Name: "agreement/fuzz-n4", Mode: verify.Auto, Check: checkAgreementFuzz},
		{Module: "TwoThird", Name: "refinement/term-program", Mode: verify.Auto, Check: checkRefinement},
		{Module: "TwoThird", Name: "termination/simple-run", Mode: verify.Manual, Check: checkTermination},
		{Module: "TwoThird", Name: "liveness-bug/regression", Mode: verify.Manual, Check: checkDeadlockRegression},
		{Module: "TwoThird", Name: "irrevocability", Mode: verify.Manual, Check: checkIrrevocable},
	}
}

// checkAgreementExhaustive also discharges validity: the model's
// invariant checks both on every reached state. The result is cached so
// the two registered properties share one exploration.
var exhaustiveOnce = sync.OnceValue(func() error {
	cfg := testConfig()
	m := model(cfg, map[msg.Loc]string{"n1": "a", "n2": "b", "n3": "b"}, 0)
	_, err := verify.Exhaustive(m)
	return err
})

func checkAgreementExhaustive() error { return exhaustiveOnce() }

func checkAgreementCrash() error {
	cfg := testConfig()
	m := model(cfg, map[msg.Loc]string{"n1": "a", "n2": "b"}, 1)
	m.MaxRuns = 8_000
	_, err := verify.Exhaustive(m)
	return err
}

func checkAgreementFuzz() error {
	cfg := Config{
		Nodes:    []msg.Loc{"n1", "n2", "n3", "n4"},
		Learners: []msg.Loc{"learner"},
	}
	m := model(cfg, map[msg.Loc]string{"n1": "a", "n2": "b", "n3": "c", "n4": "a"}, 0)
	_, err := verify.Fuzz(m, 300, 120, 7)
	return err
}

// checkTermination runs the 3-node instance under FIFO scheduling and
// requires every node to decide.
func checkTermination() error {
	missing, err := runFIFO(testConfig())
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("nodes %v never decided", missing)
	}
	return nil
}

// runFIFO runs the protocol to quiescence under FIFO delivery and returns
// the nodes that never decided.
func runFIFO(cfg Config) ([]msg.Loc, error) {
	r := gpm.NewRunner(Spec(cfg).System())
	r.Inject("n1", msg.M(HdrPropose, Propose{Inst: 0, Val: "a"}))
	r.Inject("n2", msg.M(HdrPropose, Propose{Inst: 0, Val: "b"}))
	r.Inject("n3", msg.M(HdrPropose, Propose{Inst: 0, Val: "c"}))
	if _, err := r.Run(10_000); err != nil {
		return nil, err
	}
	return undecided(cfg, r.Trace()), nil
}

// undecided returns the group members that never emitted a learner
// Decide and never received one, i.e. the stalled nodes of a drained run.
func undecided(cfg Config, trace []gpm.TraceEntry) []msg.Loc {
	decided := make(map[msg.Loc]bool)
	for _, e := range trace {
		if e.In.Hdr == HdrDecide {
			decided[e.Loc] = true
		}
		for _, o := range e.Outs {
			if o.M.Hdr == HdrDecide && o.Dest == "learner" {
				decided[e.Loc] = true
			}
		}
	}
	var missing []msg.Loc
	for _, n := range cfg.Nodes {
		if !decided[n] {
			missing = append(missing, n)
		}
	}
	return missing
}

// ErrStall marks a drained schedule in which some node never decided.
var ErrStall = errors.New("twothird: node stalled without deciding")

// checkDeadlockRegression verifies that the Legacy variant deadlocks in
// some schedule that the fixed protocol completes — the paper's "not live
// because of a deadlock scenario" bug, pinned as a regression. The fuzzer
// searches delivery interleavings for a stall; it must find one for the
// legacy version and none for the fixed version.
func checkDeadlockRegression() error {
	stallSearch := func(cfg Config) error {
		m := model(cfg, map[msg.Loc]string{"n1": "a", "n2": "b", "n3": "c"}, 0)
		m.Invariants = nil
		m.Final = func(trace []gpm.TraceEntry) error {
			if missing := undecided(cfg, trace); len(missing) > 0 {
				return fmt.Errorf("%w: %v", ErrStall, missing)
			}
			return nil
		}
		// Deep enough that every schedule drains completely.
		_, err := verify.Fuzz(m, 400, 500, 99)
		return err
	}

	if err := stallSearch(testConfig()); err != nil {
		return fmt.Errorf("fixed protocol stalled: %w", err)
	}
	legacy := testConfig()
	legacy.Legacy = true
	err := stallSearch(legacy)
	if err == nil {
		return errors.New("legacy protocol never stalled; regression scenario lost its bite")
	}
	if !errors.Is(err, ErrStall) {
		return fmt.Errorf("legacy protocol failed differently: %w", err)
	}
	return nil
}

// checkIrrevocable replays a full run and verifies no node ever emits two
// different decide values.
func checkIrrevocable() error {
	cfg := testConfig()
	r := gpm.NewRunner(Spec(cfg).System())
	r.Inject("n1", msg.M(HdrPropose, Propose{Inst: 0, Val: "x"}))
	r.Inject("n2", msg.M(HdrPropose, Propose{Inst: 0, Val: "y"}))
	if _, err := r.Run(10_000); err != nil {
		return err
	}
	return verify.CheckTrace(r.Trace(), verify.Just(Irrevocable()))
}

// checkRefinement verifies the interpreted term program is bisimilar to
// the native class on a message workload (arrow (c) for this module).
func checkRefinement() error {
	cfg := testConfig()
	spec := Spec(cfg)
	// Denotational equality between spec class and generated process over
	// an actual run.
	denote := func(trace []gpm.TraceEntry) [][]msg.Directive {
		eo := loe.FromTrace(trace)
		den := loe.Denote(spec.Main, eo)
		out := make([][]msg.Directive, len(den))
		for i, vals := range den {
			for _, v := range vals {
				out[i] = append(out[i], v.(msg.Directive))
			}
		}
		return out
	}
	inject := []verify.Injection{
		{To: "n1", M: msg.M(HdrPropose, Propose{Inst: 0, Val: "a"})},
		{To: "n2", M: msg.M(HdrPropose, Propose{Inst: 0, Val: "b"})},
	}
	return verify.CheckRefinement(spec.System(), inject, 5_000, denote)
}
