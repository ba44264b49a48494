package synod

import (
	"testing"
	"testing/quick"
	"time"

	"shadowdb/internal/gpm"
	"shadowdb/internal/interp"
	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
	"shadowdb/internal/verify"
)

func TestBallotOrdering(t *testing.T) {
	tests := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{0, "l1"}, Ballot{1, "l1"}, true},
		{Ballot{1, "l1"}, Ballot{0, "l1"}, false},
		{Ballot{0, "l1"}, Ballot{0, "l2"}, true},
		{Ballot{0, "l2"}, Ballot{0, "l1"}, false},
		{Ballot{0, "l1"}, Ballot{0, "l1"}, false},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.less {
			t.Errorf("%s < %s = %v, want %v", tt.a, tt.b, got, tt.less)
		}
	}
}

func TestBallotOrderIsTotalProperty(t *testing.T) {
	f := func(n1, n2 uint8, l1, l2 bool) bool {
		loc := func(b bool) msg.Loc {
			if b {
				return "l1"
			}
			return "l2"
		}
		a := Ballot{N: int(n1), L: loc(l1)}
		b := Ballot{N: int(n2), L: loc(l2)}
		// Exactly one of <, =, > holds.
		cnt := 0
		if a.Less(b) {
			cnt++
		}
		if b.Less(a) {
			cnt++
		}
		if a.Equal(b) {
			cnt++
		}
		return cnt == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMajority(t *testing.T) {
	tests := []struct{ n, want int }{{1, 1}, {3, 2}, {5, 3}, {7, 4}}
	for _, tt := range tests {
		cfg := Config{Acceptors: make([]msg.Loc, tt.n)}
		if got := cfg.Majority(); got != tt.want {
			t.Errorf("Majority(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestSingleLeaderDecides(t *testing.T) {
	cfg := testConfig()
	r := gpm.NewRunner(Spec(cfg).System())
	r.Inject("l1", msg.M(HdrPropose, Propose{Inst: 0, Val: "hello"}))
	if _, err := r.Run(10_000); err != nil {
		t.Fatal(err)
	}
	got := decisions(r.Trace(), cfg)
	if got[0] != "hello" {
		t.Errorf("instance 0 decided %q, want hello", got[0])
	}
}

// decisions collects the final learner decision per instance, failing the
// test on disagreement.
func decisions(trace []gpm.TraceEntry, cfg Config) map[int]string {
	out := make(map[int]string)
	for _, e := range trace {
		for inst, vals := range DecisionsOf(e.Outs, cfg.Learners) {
			for _, v := range vals {
				out[inst] = v
			}
		}
	}
	return out
}

func TestPipelinedInstances(t *testing.T) {
	cfg := testConfig()
	r := gpm.NewRunner(Spec(cfg).System())
	const n = 20
	for i := 0; i < n; i++ {
		r.Inject("l1", msg.M(HdrPropose, Propose{Inst: i, Val: string(rune('a' + i))}))
	}
	if _, err := r.Run(100_000); err != nil {
		t.Fatal(err)
	}
	got := decisions(r.Trace(), cfg)
	for i := 0; i < n; i++ {
		if got[i] != string(rune('a'+i)) {
			t.Errorf("instance %d decided %q, want %q", i, got[i], string(rune('a'+i)))
		}
	}
}

func TestDuelingLeadersAgree(t *testing.T) {
	cfg := duelConfig()
	r := gpm.NewRunner(Spec(cfg).System())
	r.Inject("l1", msg.M(HdrPropose, Propose{Inst: 0, Val: "x"}))
	r.Inject("l2", msg.M(HdrPropose, Propose{Inst: 0, Val: "y"}))
	if _, err := r.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckTrace(r.Trace(), agreement()...); err != nil {
		t.Fatal(err)
	}
	got := decisions(r.Trace(), cfg)
	if got[0] != "x" && got[0] != "y" {
		t.Errorf("instance 0 decided %q, want one of the proposals", got[0])
	}
}

func TestLeaderRemindsLearnersOfDecisions(t *testing.T) {
	cfg := testConfig()
	r := gpm.NewRunner(Spec(cfg).System())
	r.Inject("l1", msg.M(HdrPropose, Propose{Inst: 0, Val: "v"}))
	if _, err := r.Run(10_000); err != nil {
		t.Fatal(err)
	}
	before := len(r.Trace())
	// Re-proposing a decided instance must re-announce the same value,
	// not run a new ballot.
	r.Inject("l1", msg.M(HdrPropose, Propose{Inst: 0, Val: "other"}))
	if _, err := r.Run(10_000); err != nil {
		t.Fatal(err)
	}
	reminded := false
	for _, e := range r.Trace()[before:] {
		for _, o := range e.Outs {
			if o.Dest == "learner" && o.M.Hdr == HdrDecide {
				d := o.M.Body.(Decide)
				if d.Val != "v" {
					t.Errorf("reminder carried %q, want v", d.Val)
				}
				reminded = true
			}
			if o.M.Hdr == HdrP1a || o.M.Hdr == HdrP2a {
				t.Error("re-proposal of a decided instance started a new ballot")
			}
		}
	}
	if !reminded {
		t.Error("no decision reminder emitted")
	}
}

func TestAcceptorRejectsLowerBallots(t *testing.T) {
	cfg := testConfig()
	gen := Spec(cfg).Generator()
	acc := gen("a1")

	high := Ballot{N: 5, L: "l9"}
	low := Ballot{N: 1, L: "l0"}
	acc, outs := acc.Step(msg.M(HdrP1a, P1a{B: high, From: "scout"}))
	if len(outs) != 1 {
		t.Fatalf("p1a produced %d outputs", len(outs))
	}
	if b := outs[0].M.Body.(P1b); !b.B.Equal(high) {
		t.Errorf("promise = %s, want %s", b.B, high)
	}
	// A lower p2a must not be accepted: the reply carries the higher
	// promised ballot, and no pvalue is stored for it.
	acc, outs = acc.Step(msg.M(HdrP2a, P2a{B: low, Inst: 0, Val: "evil", From: "cmd"}))
	if len(outs) != 1 {
		t.Fatalf("p2a produced %d outputs", len(outs))
	}
	if b := outs[0].M.Body.(P2b); !b.B.Equal(high) {
		t.Errorf("p2b ballot = %s, want the promised %s", b.B, high)
	}
	_, outs = acc.Step(msg.M(HdrP1a, P1a{B: Ballot{N: 9, L: "l9"}, From: "scout"}))
	if b := outs[0].M.Body.(P1b); len(b.Accepted) != 0 {
		t.Errorf("acceptor stored pvalue from rejected ballot: %v", b.Accepted)
	}
}

func TestCorruptIsNoOpWithoutAmnesia(t *testing.T) {
	cfg := testConfig()
	gen := Spec(cfg).Generator()
	acc := gen("a1")
	b := Ballot{N: 3, L: "lx"}
	acc, _ = acc.Step(msg.M(HdrP1a, P1a{B: b, From: "s"}))
	acc, _ = acc.Step(msg.M(HdrCorrupt, Corrupt{}))
	_, outs := acc.Step(msg.M(HdrP1a, P1a{B: Ballot{N: 0, L: "l0"}, From: "s"}))
	if got := outs[0].M.Body.(P1b).B; !got.Equal(b) {
		t.Errorf("promise after no-op corrupt = %s, want %s", got, b)
	}
}

func TestProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("model checking is slow")
	}
	for _, p := range Properties() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Check(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestInterpretedSynodBisimilar(t *testing.T) {
	// The acceptor class (the protocol's durable heart) runs identically
	// natively, interpreted, and optimized.
	cfg := testConfig()
	cl := AcceptorClass(cfg)
	inputs := []msg.Msg{
		msg.M(HdrP1a, P1a{B: Ballot{N: 0, L: "l1"}, From: "s1"}),
		msg.M(HdrP2a, P2a{B: Ballot{N: 0, L: "l1"}, Inst: 0, Val: "v", From: "c1"}),
		msg.M(HdrP1a, P1a{B: Ballot{N: 1, L: "l2"}, From: "s2"}),
		msg.M(HdrP2a, P2a{B: Ballot{N: 0, L: "l1"}, Inst: 1, Val: "w", From: "c2"}),
		msg.M(HdrCorrupt, Corrupt{}),
		msg.M(HdrP1a, P1a{B: Ballot{N: 2, L: "l1"}, From: "s3"}),
	}
	ev := &interp.Evaluator{MaxSteps: 100_000_000}
	tp, err := interp.NewProcess(interp.Compile(cl), "a1", ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := interp.Bisimilar(tp, loeProcess(cl, "a1"), inputs); err != nil {
		t.Fatalf("interpreted acceptor diverges: %v", err)
	}
	op, err := interp.NewProcess(interp.Optimize(cl), "a1", ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := interp.Bisimilar(op, loeProcess(cl, "a1"), inputs); err != nil {
		t.Fatalf("optimized acceptor diverges: %v", err)
	}
}

func TestInterpretedLeaderWithDelegationBisimilar(t *testing.T) {
	// The leader class exercises the Delegate combinator end to end in
	// the interpreter: scouts and commanders spawn, act, and finish.
	cfg := testConfig()
	cl := LeaderClass(cfg)
	b := Ballot{N: 0, L: "l1"}
	inputs := []msg.Msg{
		msg.M(HdrPropose, Propose{Inst: 0, Val: "v"}),
		msg.M(HdrSpawnSct, SpawnScout{B: b}),
		msg.M(HdrP1b, P1b{From: "a1", B: b}),
		msg.M(HdrP1b, P1b{From: "a2", B: b}),
		msg.M(HdrAdopted, Adopted{B: b}),
		msg.M(HdrSpawnCmd, SpawnCmd{B: b, Inst: 0, Val: "v"}),
		msg.M(HdrP2b, P2b{From: "a1", B: b, Inst: 0}),
		msg.M(HdrP2b, P2b{From: "a2", B: b, Inst: 0}),
		msg.M(HdrDecide, Decide{Inst: 0, Val: "v"}),
	}
	ev := &interp.Evaluator{MaxSteps: 500_000_000}
	tp, err := interp.NewProcess(interp.Compile(cl), "l1", ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := interp.Bisimilar(tp, loeProcess(cl, "l1"), inputs); err != nil {
		t.Fatalf("interpreted leader diverges: %v", err)
	}
}

// loeProcess compiles a class natively at a location.
func loeProcess(cl loe.Class, slf msg.Loc) gpm.Process {
	return loe.NewProcess(cl, slf)
}

func TestWakeRetriesAfterBackoff(t *testing.T) {
	// A preempted leader must retry after its backoff and eventually
	// decide.
	cfg := duelConfig()
	cfg.Backoff = 2 * time.Millisecond
	r := gpm.NewRunner(Spec(cfg).System())
	r.Inject("l1", msg.M(HdrPropose, Propose{Inst: 0, Val: "x"}))
	r.Inject("l2", msg.M(HdrPropose, Propose{Inst: 1, Val: "y"}))
	if _, err := r.Run(100_000); err != nil {
		t.Fatal(err)
	}
	got := decisions(r.Trace(), cfg)
	if got[0] == "" || got[1] == "" {
		t.Errorf("instances not all decided: %v", got)
	}
}
