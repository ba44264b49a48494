package verify

import (
	"errors"
	"testing"

	"shadowdb/internal/gpm"
	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
)

// twoCounter is a tiny test system: two counters that each forward "inc"
// to the other once, so exploration has real interleavings.
func relayGen(peers map[msg.Loc]msg.Loc) gpm.Generator {
	return func(slf msg.Loc) gpm.Process {
		peer, ok := peers[slf]
		if !ok {
			return gpm.Halt()
		}
		forwarded := false
		var rec gpm.StepFunc
		rec = func(in msg.Msg) (gpm.Process, []msg.Directive) {
			if in.Hdr == "inc" && !forwarded {
				forwarded = true
				return rec, []msg.Directive{msg.Send(peer, msg.M("ack", slf))}
			}
			return rec, nil
		}
		return rec
	}
}

// stepped states a one-property model invariant as a step; mk runs per
// schedule, so whatever it closes over starts fresh. The step returns
// the violation, "" for none.
func stepped(mk func() func(e *Event) string) func() []Set {
	return func() []Set {
		step := mk()
		return []Set{Just(Invariant{Name: "test", Step: func(e *Event) (bool, []string) {
			if bad := step(e); bad != "" {
				return true, []string{bad}
			}
			return true, nil
		}})}
	}
}

func TestExhaustiveExploresAllInterleavings(t *testing.T) {
	peers := map[msg.Loc]msg.Loc{"a": "b", "b": "a"}
	m := Model{
		Gen:  relayGen(peers),
		Locs: []msg.Loc{"a", "b"},
		Init: []Injection{
			{To: "a", M: msg.M("inc", nil)},
			{To: "b", M: msg.M("inc", nil)},
		},
	}
	st, err := Exhaustive(m)
	if err != nil {
		t.Fatal(err)
	}
	// Two independent initial deliveries → at least 2 distinct maximal
	// schedules explored.
	if st.Schedules < 2 {
		t.Errorf("explored %d schedules, want >= 2", st.Schedules)
	}
	if st.Deliveries == 0 {
		t.Error("no deliveries executed")
	}
	if st.Truncated {
		t.Error("tiny model truncated")
	}
}

func TestExhaustiveFindsViolation(t *testing.T) {
	// Invariant "b never receives ack" is violated only in schedules that
	// deliver a's inc; the checker must find one.
	peers := map[msg.Loc]msg.Loc{"a": "b", "b": "a"}
	m := Model{
		Gen:  relayGen(peers),
		Locs: []msg.Loc{"a", "b"},
		Init: []Injection{{To: "a", M: msg.M("inc", nil)}},
		Invariants: stepped(func() func(*Event) string {
			return func(e *Event) string {
				if e.Loc == "b" && e.In.Hdr == "ack" {
					return "b received ack"
				}
				return ""
			}
		}),
	}
	_, err := Exhaustive(m)
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CheckError", err)
	}
	if len(ce.Schedule) == 0 {
		t.Error("violation schedule is empty")
	}
	// The schedule must replay to the same violation.
	if _, _, err := replay(m, ce.Schedule, &Stats{}); err == nil {
		t.Error("replaying the violating schedule did not reproduce the violation")
	}
}

func TestExhaustiveCrashInjection(t *testing.T) {
	// With crash injection enabled, there must exist a schedule where b
	// crashed and never acked: Final sees traces without any ack at a.
	peers := map[msg.Loc]msg.Loc{"a": "b", "b": "a"}
	sawSilent := false
	m := Model{
		Gen:       relayGen(peers),
		Locs:      []msg.Loc{"a", "b"},
		Init:      []Injection{{To: "a", M: msg.M("inc", nil)}},
		CrashLocs: []msg.Loc{"b"},
		Crashes:   1,
		Final: func(trace []gpm.TraceEntry) error {
			acked := false
			for _, e := range trace {
				if e.Loc == "a" && e.In.Hdr == "ack" {
					acked = true
				}
			}
			if !acked {
				sawSilent = true
			}
			return nil
		},
	}
	if _, err := Exhaustive(m); err != nil {
		t.Fatal(err)
	}
	if !sawSilent {
		t.Error("crash injection never produced a schedule without acks")
	}
}

func TestFuzzRuns(t *testing.T) {
	peers := map[msg.Loc]msg.Loc{"a": "b", "b": "a"}
	m := Model{
		Gen:  relayGen(peers),
		Locs: []msg.Loc{"a", "b"},
		Init: []Injection{
			{To: "a", M: msg.M("inc", nil)},
			{To: "b", M: msg.M("inc", nil)},
		},
		Invariants: stepped(func() func(*Event) string {
			return func(*Event) string { return "" }
		}),
	}
	st, err := Fuzz(m, 50, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.Schedules != 50 {
		t.Errorf("fuzz ran %d schedules, want 50", st.Schedules)
	}
}

func TestExhaustiveDropInjection(t *testing.T) {
	// With one drop allowed, there must be a schedule where a's inc was
	// eaten by the link and no ack ever reached a; and the fault choices
	// must strictly enlarge the explored tree.
	peers := map[msg.Loc]msg.Loc{"a": "b", "b": "a"}
	base := Model{
		Gen:  relayGen(peers),
		Locs: []msg.Loc{"a", "b"},
		Init: []Injection{{To: "a", M: msg.M("inc", nil)}},
	}
	st0, err := Exhaustive(base)
	if err != nil {
		t.Fatal(err)
	}
	faulty := base
	faulty.Drops = 1
	sawSilent := false
	faulty.Final = func(trace []gpm.TraceEntry) error {
		acked := false
		for _, e := range trace {
			if e.Loc == "a" && e.In.Hdr == "ack" {
				acked = true
			}
		}
		if !acked {
			sawSilent = true
		}
		return nil
	}
	st1, err := Exhaustive(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if !sawSilent {
		t.Error("drop injection never produced a schedule without acks")
	}
	if st1.Schedules <= st0.Schedules {
		t.Errorf("drop choices explored %d schedules, fault-free %d; want strictly more",
			st1.Schedules, st0.Schedules)
	}
}

func TestExhaustiveDupInjection(t *testing.T) {
	// Duplicating b's inc lets b receive it twice; relayGen forwards only
	// once, so no schedule — even with the duplicated delivery — may make
	// b emit a second ack (at-most-once forwarding survives a duplicating
	// link).
	peers := map[msg.Loc]msg.Loc{"a": "b", "b": "a"}
	m := Model{
		Gen:  relayGen(peers),
		Locs: []msg.Loc{"a", "b"},
		Init: []Injection{{To: "b", M: msg.M("inc", nil)}},
		Dups: 1,
		Invariants: stepped(func() func(*Event) string {
			forwards := 0
			return func(e *Event) string {
				if e.Loc == "b" && len(e.Outs) > 0 {
					forwards++
				}
				if forwards > 1 {
					return "duplicate delivery produced a second forward"
				}
				return ""
			}
		}),
	}
	if _, err := Exhaustive(m); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzWithFaultsDeterministic(t *testing.T) {
	peers := map[msg.Loc]msg.Loc{"a": "b", "b": "a"}
	m := Model{
		Gen:  relayGen(peers),
		Locs: []msg.Loc{"a", "b"},
		Init: []Injection{
			{To: "a", M: msg.M("inc", nil)},
			{To: "b", M: msg.M("inc", nil)},
		},
		CrashLocs: []msg.Loc{"b"},
		Crashes:   1,
		Drops:     2,
		Dups:      2,
	}
	run := func() Stats {
		st, err := Fuzz(m, 200, 30, 7)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed fuzzed differently: %+v vs %+v", a, b)
	}
	if a.Schedules != 200 {
		t.Errorf("fuzz ran %d schedules, want 200", a.Schedules)
	}
}

func TestFuzzFaultScheduleReplays(t *testing.T) {
	// A violation found by the fuzzer under faults must replay through the
	// exhaustive replayer to the same violation: both sides share the
	// choice encoding, including the drop and duplicate ranges.
	peers := map[msg.Loc]msg.Loc{"a": "b", "b": "a"}
	m := Model{
		Gen:  relayGen(peers),
		Locs: []msg.Loc{"a", "b"},
		Init: []Injection{{To: "b", M: msg.M("inc", nil)}},
		Dups: 1,
		Invariants: stepped(func() func(*Event) string {
			// Deliberately falsifiable: "b never steps twice".
			steps := 0
			return func(e *Event) string {
				if e.Loc == "b" {
					steps++
				}
				if steps > 1 {
					return "b stepped twice"
				}
				return ""
			}
		}),
	}
	_, err := Fuzz(m, 500, 20, 3)
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CheckError (duplication makes b step twice)", err)
	}
	if _, _, err := replay(m, ce.Schedule, &Stats{}); err == nil {
		t.Error("replaying the fuzzer's fault schedule did not reproduce the violation")
	}
}

func TestCheckRefinementCLK(t *testing.T) {
	// The compiled CLK program implements the CLK specification: the
	// paper's automatic proof, as a check.
	spec := loe.ClkRing(3)
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
	inject := []Injection{{To: loe.RingLoc(0), M: msg.M(loe.ClkHeader, loe.ClkBody{Val: 0, TS: 0})}}
	if err := CheckRefinement(spec.System(), inject, 30, denote); err != nil {
		t.Fatalf("CLK refinement failed: %v", err)
	}
}

func TestCheckRefinementCatchesDeviation(t *testing.T) {
	// A program that implements nothing must fail against the CLK spec.
	spec := loe.ClkRing(2)
	sys := gpm.System{
		Gen: func(slf msg.Loc) gpm.Process {
			var rec gpm.StepFunc
			rec = func(in msg.Msg) (gpm.Process, []msg.Directive) { return rec, nil } // silent
			return rec
		},
		Locs: spec.Locs,
	}
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
	inject := []Injection{{To: loe.RingLoc(0), M: msg.M(loe.ClkHeader, loe.ClkBody{Val: 3, TS: 0})}}
	err := CheckRefinement(sys, inject, 30, denote)
	if !errors.Is(err, ErrRefinement) {
		t.Fatalf("err = %v, want ErrRefinement", err)
	}
}

func TestCheckInductiveCLK(t *testing.T) {
	// Fig. 5 of the paper: ClockVal@e = imax(ts(e), ClockVal@pred(e)) + 1
	// on msg events. Validate the characterization against a real run.
	spec := loe.ClkRing(3)
	r := gpm.NewRunner(spec.System())
	r.Inject(loe.RingLoc(0), msg.M(loe.ClkHeader, loe.ClkBody{Val: 0, TS: 0}))
	if _, err := r.Run(20); err != nil {
		t.Fatal(err)
	}
	trace := r.Trace()
	den := loe.Denote(loe.ClkClock(), loe.FromTrace(trace))
	states := make([]any, len(den))
	for i, vals := range den {
		states[i] = vals[0]
	}
	char := StateStep{
		Init: func(msg.Loc) any { return 0 },
		Step: func(_ msg.Loc, prev any, in msg.Msg) any {
			if in.Hdr != loe.ClkHeader {
				return prev
			}
			ts := in.Body.(loe.ClkBody).TS
			p := prev.(int)
			if ts > p {
				return ts + 1
			}
			return p + 1
		},
	}
	if err := CheckInductive(trace, states, char); err != nil {
		t.Fatalf("CLK inductive characterization failed: %v", err)
	}

	// A wrong characterization must be rejected.
	bad := StateStep{
		Init: char.Init,
		Step: func(msg.Loc, any, msg.Msg) any { return 0 },
	}
	if err := CheckInductive(trace, states, bad); err == nil {
		t.Error("wrong characterization accepted")
	}
}

func TestSuite(t *testing.T) {
	var s Suite
	s.Add(
		Property{Module: "X", Name: "p1", Mode: Auto, Check: func() error { return nil }},
		Property{Module: "X", Name: "p2", Mode: Manual, Check: func() error { return nil }},
		Property{Module: "Y", Name: "q", Mode: Auto, Check: func() error { return nil }},
	)
	counts := s.CountByModule()
	if counts["X"] != (Counts{Auto: 1, Manual: 1}) {
		t.Errorf("X counts = %+v", counts["X"])
	}
	if counts["X"].String() != "1A/1M" {
		t.Errorf("X counts string = %q", counts["X"].String())
	}
	if got := len(s.Properties()); got != 3 {
		t.Errorf("suite holds %d properties, want 3", got)
	}
}

func TestModeString(t *testing.T) {
	if Auto.String() != "A" || Manual.String() != "M" || Mode(0).String() != "?" {
		t.Error("Mode.String mismatch")
	}
}

func TestSymmetryPruning(t *testing.T) {
	// Two identical initial messages: delivering either first leads to
	// isomorphic states, so the explorer should not branch on them.
	peers := map[msg.Loc]msg.Loc{"a": "b", "b": "a"}
	m := Model{
		Gen:  relayGen(peers),
		Locs: []msg.Loc{"a", "b"},
		Init: []Injection{
			{To: "a", M: msg.M("inc", nil)},
			{To: "a", M: msg.M("inc", nil)},
		},
	}
	st, err := Exhaustive(m)
	if err != nil {
		t.Fatal(err)
	}
	// Without symmetry reduction the root branches over both identical
	// messages, doubling the tree to 4 maximal schedules; with it, the
	// duplicate root choice is pruned and only the genuinely distinct
	// interleavings below remain.
	if st.Schedules != 2 {
		t.Errorf("explored %d schedules, want 2 (pruned from 4)", st.Schedules)
	}
}

func TestMonitorFoldsSkipsAndCounts(t *testing.T) {
	// Two sets. The first folds a fact its invariants read; its second
	// invariant waits for a deployment fact. The second set repeats a
	// property name, which shares one coverage entry.
	var folded string
	ready := false
	hdrIs := func(h string) func(*Event) (bool, []string) {
		return func(e *Event) (bool, []string) {
			if folded != e.In.Hdr {
				t.Errorf("step ran before the fold of %q", e.In.Hdr)
			}
			if e.In.Hdr != h {
				return false, nil
			}
			return true, []string{"saw " + h}
		}
	}
	mon := NewMonitor(
		Set{Fold: func(e *Event) { folded = e.In.Hdr }, Invariants: []Invariant{
			{Name: "p/always", Step: hdrIs("x")},
			{Name: "p/needs-fact", Step: hdrIs("x"), Needs: "the fact", Known: func() bool { return ready }},
		}},
		Just(Invariant{Name: "p/always", Step: hdrIs("y")}),
	)
	step := func(h string) []Violation {
		return mon.Step(&Event{Loc: "a", At: 7, In: msg.M(h, nil), LC: 3, Trace: "tr"})
	}
	if vs := step("x"); len(vs) != 1 || vs[0] != (Violation{Property: "p/always", Detail: "saw x", Loc: "a", At: 7, LC: 3, Trace: "tr"}) {
		t.Fatalf("violations = %+v", vs)
	}
	if cov := mon.Coverage(); cov[1] != (Coverage{Name: "p/needs-fact", Skipped: "the fact"}) {
		t.Fatalf("waiting property reported as %+v", cov[1])
	}
	ready = true
	if vs := step("x"); len(vs) != 2 {
		t.Fatalf("with the fact known: %+v", vs)
	}
	step("y")
	step("z")
	want := []Coverage{{Name: "p/always", Seen: 3}, {Name: "p/needs-fact", Seen: 1}}
	if cov := mon.Coverage(); len(cov) != 2 || cov[0] != want[0] || cov[1] != want[1] {
		t.Fatalf("coverage = %+v, want %+v", cov, want)
	}
}

func TestAgreementKeysByGroup(t *testing.T) {
	a := NewAgreement("proto", func(hdr string, body any) (int, string, bool) {
		v, ok := body.(string)
		return 0, v, ok && hdr == "decide"
	})
	mon := NewMonitor(Just(a.Invariant(), a.Validity(map[string]bool{"v": true, "w": true})))
	decide := func(group, val string) []Violation {
		return mon.Step(&Event{Loc: "n", Group: group, Outs: []msg.Directive{msg.Send("m", msg.M("decide", val))}})
	}
	if vs := append(decide("s0", "v"), decide("s1", "w")...); len(vs) != 0 {
		t.Fatalf("independent groups compared: %v", vs)
	}
	if vs := decide("s0", "w"); len(vs) != 1 || vs[0].Property != "consensus/single-value-per-slot" {
		t.Fatalf("second value in one group: %v", vs)
	}
	if vs := decide("s2", "u"); len(vs) != 1 || vs[0].Property != "consensus/validity" {
		t.Fatalf("unproposed value: %v", vs)
	}
	if a.Decided() != 3 {
		t.Fatalf("Decided = %d, want 3", a.Decided())
	}
}
