package synod

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/store"
	"shadowdb/internal/verify"
)

// The correctness properties of the Synod module. The paper reports 24
// automatically and 75 manually proved lemmas over three weeks for
// Paxos-Synod; here the corresponding end-to-end safety properties are
// checked mechanically, and the Google acceptor-amnesia bug (Section II-D)
// is preserved as a fault-injection regression that the checker must
// catch.

// testConfig builds the 1-leader, 3-acceptor instance used by the
// exhaustive checker.
func testConfig() Config {
	return Config{
		Leaders:   []msg.Loc{"l1"},
		Acceptors: []msg.Loc{"a1", "a2", "a3"},
		Learners:  []msg.Loc{"learner"},
	}
}

// duelConfig builds the 2-leader instance used by the fuzzer.
func duelConfig() Config {
	return Config{
		Leaders:   []msg.Loc{"l1", "l2"},
		Acceptors: []msg.Loc{"a1", "a2", "a3"},
		Learners:  []msg.Loc{"learner"},
		Backoff:   time.Millisecond,
	}
}

// Agreement is the module's single-value-per-slot property (the
// definition is verify.Agreement; the Decide format is ours). The same
// constructor serves the schedule explorer here and, through
// broadcast.Checks, the online checker and the offline replay.
func Agreement() *verify.Agreement { return verify.NewAgreement("synod", Decided) }

// PromiseMonotonic states that the ballots one acceptor location reveals
// in its replies never regress — "an acceptor never forgets a promise",
// the invariant the Google bug violates and, across crash-restart, the
// obligation the WAL discharges.
func PromiseMonotonic() verify.Invariant {
	last := make(map[msg.Loc]Ballot)
	return verify.Invariant{Name: "synod/promise-monotonicity", Step: func(e *verify.Event) (inScope bool, bad []string) {
		for _, o := range e.Outs {
			var b Ballot
			switch body := o.M.Body.(type) {
			case P1b:
				b = body.B
			case P2b:
				b = body.B
			default:
				continue
			}
			inScope = true
			if prev, ok := last[e.Loc]; ok && b.Less(prev) {
				bad = append(bad, fmt.Sprintf("acceptor %s forgot its promise: ballot went back from %s to %s",
					e.Loc, prev, b))
			}
			last[e.Loc] = b
		}
		return inScope, bad
	}}
}

// agreement is the model invariant of the safety properties.
func agreement() []verify.Set {
	return []verify.Set{verify.Just(Agreement().Invariant())}
}

// Properties returns the registered property set of the module.
func Properties() []verify.Property {
	return []verify.Property{
		{Module: "Paxos-Synod", Name: "agreement/exhaustive", Mode: verify.Auto, Check: checkAgreementExhaustive},
		{Module: "Paxos-Synod", Name: "agreement/acceptor-crash", Mode: verify.Auto, Check: checkAgreementExhaustive},
		{Module: "Paxos-Synod", Name: "agreement/dueling-leaders", Mode: verify.Auto, Check: checkDuelingLeaders},
		{Module: "Paxos-Synod", Name: "durability/crash-restart", Mode: verify.Auto, Check: checkDurableRestart},
		{Module: "Paxos-Synod", Name: "promise-monotonicity", Mode: verify.Manual, Check: checkPromiseMonotonic},
		{Module: "Paxos-Synod", Name: "leader-change-preserves-choice", Mode: verify.Manual, Check: checkLeaderChange},
		{Module: "Paxos-Synod", Name: "amnesia-bug/regression", Mode: verify.Manual, Check: checkAmnesiaBug},
		{Module: "Paxos-Synod", Name: "termination/simple-run", Mode: verify.Manual, Check: checkTermination},
	}
}

// checkAgreementExhaustive explores schedules of a single-leader instance
// with one acceptor allowed to crash; agreement must hold throughout. The
// crash exploration also discharges the acceptor-crash property, so the
// result is shared.
var exhaustiveOnce = sync.OnceValue(func() error {
	cfg := testConfig()
	m := verify.Model{
		Gen:  Spec(cfg).Generator(),
		Locs: Spec(cfg).Locs,
		Init: []verify.Injection{
			{To: "l1", M: msg.M(HdrPropose, Propose{Inst: 0, Val: "v1"})},
			{To: "l1", M: msg.M(HdrPropose, Propose{Inst: 1, Val: "v2"})},
		},
		Invariants: agreement,
		CrashLocs:  []msg.Loc{"a3"},
		Crashes:    1,
		MaxDepth:   30,
		MaxRuns:    10_000,
	}
	_, err := verify.Exhaustive(m)
	return err
})

func checkAgreementExhaustive() error { return exhaustiveOnce() }

// checkDuelingLeaders fuzzes a two-leader instance proposing conflicting
// values for the same slot.
func checkDuelingLeaders() error {
	cfg := duelConfig()
	m := verify.Model{
		Gen:  Spec(cfg).Generator(),
		Locs: Spec(cfg).Locs,
		Init: []verify.Injection{
			{To: "l1", M: msg.M(HdrPropose, Propose{Inst: 0, Val: "from-l1"})},
			{To: "l2", M: msg.M(HdrPropose, Propose{Inst: 0, Val: "from-l2"})},
		},
		Invariants: agreement,
	}
	_, err := verify.Fuzz(m, 250, 200, 11)
	return err
}

// checkDurableRestart fuzzes dueling leaders over WAL-backed acceptors
// that the scheduler may crash AND restart — not the crash-stop of the
// other properties, and not the StateLoss reset of the amnesia
// regression: a restarted acceptor is rebuilt from its store, exactly
// as a real process reopens its data directory. Agreement and validity
// must hold, and no acceptor incarnation may ever reply with a ballot
// below one an earlier incarnation revealed ("an acceptor never
// forgets a promise" — the obligation the WAL discharges).
func checkDurableRestart() error {
	mem := store.NewMem()
	cfg := duelConfig()
	cfg.Stable = func(l msg.Loc) store.Stable {
		st, _ := mem.Open("acc-" + string(l))
		return st
	}
	m := verify.Model{
		Gen:  Spec(cfg).Generator(),
		Locs: Spec(cfg).Locs,
		Init: []verify.Injection{
			{To: "l1", M: msg.M(HdrPropose, Propose{Inst: 0, Val: "from-l1"})},
			{To: "l2", M: msg.M(HdrPropose, Propose{Inst: 0, Val: "from-l2"})},
		},
		CrashLocs:  cfg.Acceptors,
		Crashes:    2,
		Restarts:   2,
		Reset:      mem.Reset,
		Invariants: durableRestart,
	}
	_, err := verify.Fuzz(m, 400, 250, 17)
	return err
}

// durableRestart is the crash-restart model invariant: agreement,
// validity over the two proposals, and promises kept across incarnations.
func durableRestart() []verify.Set {
	agree := Agreement()
	return []verify.Set{verify.Just(
		agree.Invariant(),
		agree.Validity(map[string]bool{"from-l1": true, "from-l2": true}),
		PromiseMonotonic(),
	)}
}

// checkPromiseMonotonic verifies on a full run that every acceptor's
// promised ballot never decreases — the invariant the Google bug
// violates.
func checkPromiseMonotonic() error {
	cfg := duelConfig()
	r := gpm.NewRunner(Spec(cfg).System())
	r.Inject("l1", msg.M(HdrPropose, Propose{Inst: 0, Val: "x"}))
	r.Inject("l2", msg.M(HdrPropose, Propose{Inst: 0, Val: "y"}))
	if _, err := r.Run(50_000); err != nil {
		return err
	}
	return verify.CheckTrace(r.Trace(), verify.Just(PromiseMonotonic()))
}

// checkLeaderChange verifies that a value chosen under one leader survives
// a later leader's takeover: the second leader must re-decide the same
// value.
func checkLeaderChange() error {
	trace, err := leaderChangeTrace(false)
	if err != nil {
		return err
	}
	if err := verify.CheckTrace(trace, agreement()...); err != nil {
		return err
	}
	// The run must actually contain decisions from both leaders' eras.
	n := 0
	for _, e := range trace {
		n += len(DecisionsOf(e.Outs, []msg.Loc{"learner"})[0])
	}
	if n < 2 {
		return fmt.Errorf("synod: scenario produced %d learner decisions, want >= 2", n)
	}
	return nil
}

// checkAmnesiaBug reproduces the Google bug of Section II-D at the
// acceptor level: "A Paxos acceptor could promise one leader not to
// accept ballots lower than b, lose this state after a disk corruption,
// and subsequently accept lower ballots." With amnesia enabled two
// different values end up chosen (accepted by majorities at their
// respective ballots); with healthy acceptors the low ballot is preempted
// and only one value can be chosen.
func checkAmnesiaBug() error {
	healthy, err := amnesiaScenario(false)
	if err != nil {
		return err
	}
	if len(healthy) > 1 {
		return fmt.Errorf("healthy acceptors chose %d values: %v", len(healthy), healthy)
	}
	broken, err := amnesiaScenario(true)
	if err != nil {
		return err
	}
	if len(broken) < 2 {
		return errors.New("amnesiac acceptors did not violate agreement; regression lost its bite")
	}
	return nil
}

// amnesiaScenario drives three acceptors through the violating message
// order directly and returns the set of values chosen for slot 0 (a value
// is chosen when a majority of acceptors accept it at the same ballot).
func amnesiaScenario(amnesia bool) (map[string]bool, error) {
	cfg := duelConfig()
	cfg.Amnesia = amnesia
	gen := Spec(cfg).Generator()
	accs := map[msg.Loc]gpm.Process{
		"a1": gen("a1"), "a2": gen("a2"), "a3": gen("a3"),
	}
	bLow := Ballot{N: 0, L: "l1"}
	bHigh := Ballot{N: 0, L: "l2"}

	send := func(to msg.Loc, m msg.Msg) []msg.Directive {
		next, outs := accs[to].Step(m)
		accs[to] = next
		return outs
	}

	// 1. Leader l2's scout: all acceptors promise the high ballot.
	for _, a := range []msg.Loc{"a1", "a2", "a3"} {
		send(a, msg.M(HdrP1a, P1a{B: bHigh, From: "l2"}))
	}
	// 2. a1 and a2 suffer disk corruption.
	send("a1", msg.M(HdrCorrupt, Corrupt{}))
	send("a2", msg.M(HdrCorrupt, Corrupt{}))
	// 3. Leader l1 runs a full round at the LOWER ballot on {a1, a2}.
	accepts := make(map[Ballot]map[string]int)
	record := func(outs []msg.Directive, b Ballot, val string) {
		for _, o := range outs {
			if r, ok := o.M.Body.(P2b); ok && r.B.Equal(b) {
				if accepts[b] == nil {
					accepts[b] = make(map[string]int)
				}
				accepts[b][val]++
			}
		}
	}
	for _, a := range []msg.Loc{"a1", "a2"} {
		send(a, msg.M(HdrP1a, P1a{B: bLow, From: "l1"}))
	}
	for _, a := range []msg.Loc{"a1", "a2"} {
		record(send(a, msg.M(HdrP2a, P2a{B: bLow, Inst: 0, Val: "v1", From: "l1"})), bLow, "v1")
	}
	// 4. Leader l2's commander proceeds on {a3, a1}.
	for _, a := range []msg.Loc{"a3", "a1"} {
		record(send(a, msg.M(HdrP2a, P2a{B: bHigh, Inst: 0, Val: "v2", From: "l2"})), bHigh, "v2")
	}

	chosen := make(map[string]bool)
	for _, vals := range accepts {
		for v, n := range vals {
			if n >= cfg.Majority() {
				chosen[v] = true
			}
		}
	}
	return chosen, nil
}

// leaderChangeTrace drives the scenario of Section II-D: leader l1 gets v1
// chosen, the acceptors are then hit with Corrupt messages (no-ops unless
// amnesia is enabled), and leader l2 proposes v2 for the same slot.
func leaderChangeTrace(amnesia bool) ([]gpm.TraceEntry, error) {
	cfg := duelConfig()
	cfg.Amnesia = amnesia
	r := gpm.NewRunner(Spec(cfg).System())
	r.Inject("l1", msg.M(HdrPropose, Propose{Inst: 0, Val: "v1"}))
	for i, a := range cfg.Acceptors {
		r.InjectAfter(time.Duration(i+1)*time.Millisecond, a, msg.M(HdrCorrupt, Corrupt{}))
	}
	r.InjectAfter(10*time.Millisecond, "l2", msg.M(HdrPropose, Propose{Inst: 0, Val: "v2"}))
	if _, err := r.Run(50_000); err != nil {
		return nil, err
	}
	return r.Trace(), nil
}

// checkTermination verifies a plain run decides every proposed instance.
func checkTermination() error {
	cfg := testConfig()
	r := gpm.NewRunner(Spec(cfg).System())
	for i := 0; i < 5; i++ {
		r.Inject("l1", msg.M(HdrPropose, Propose{Inst: i, Val: fmt.Sprintf("v%d", i)}))
	}
	if _, err := r.Run(50_000); err != nil {
		return err
	}
	decided := make(map[int]bool)
	for _, e := range r.Trace() {
		for inst := range DecisionsOf(e.Outs, cfg.Learners) {
			decided[inst] = true
		}
	}
	for i := 0; i < 5; i++ {
		if !decided[i] {
			return fmt.Errorf("synod: instance %d never decided", i)
		}
	}
	return nil
}
