package bench

import (
	"fmt"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/consensus/twothird"
	"shadowdb/internal/gpm"
	"shadowdb/internal/interp"
	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
	"shadowdb/internal/verify"
)

// Table I: specification, verification and code-generation statistics for
// CLK, TwoThird Consensus, Paxos-Synod, and the Broadcast Service. The
// paper counts EventML/Nuprl AST nodes and Nuprl lemmas; here we count
// the live artifacts of this reproduction: class-AST nodes of each
// specification, term nodes of the generated GPM program before and after
// optimization, and the registered correctness properties split into
// automatically checked (A) and manually harnessed (M) — see DESIGN.md
// for the metric substitution.

// Table1Row is one module's statistics.
type Table1Row struct {
	Module    string
	SpecNodes int
	TermNodes int
	OptNodes  int
	Props     int
	Counts    verify.Counts
	// Spec is the specification measured; cmd/specstats -render prints
	// its logical form.
	Spec loe.Spec
}

// String renders the row in the paper's layout.
func (r Table1Row) String() string {
	return fmt.Sprintf("%-20s %8dN %8dN %8dN %6d %8s",
		r.Module, r.SpecNodes, r.TermNodes, r.OptNodes, r.Props, r.Counts)
}

// Table1 computes the statistics from the live specifications.
func Table1() []Table1Row {
	// Each specification with the module name its properties register
	// under and its title in the paper's table.
	specs := []struct {
		spec          loe.Spec
		module, title string
	}{
		{loe.ClkRing(3), "CLK", "CLK"},
		{twothird.Spec(twothird.Config{
			Nodes:    []msg.Loc{"n1", "n2", "n3"},
			Learners: []msg.Loc{"learner"},
		}), "TwoThird", "TwoThird Consensus"},
		{synod.Spec(synod.Config{
			Leaders:   []msg.Loc{"l1"},
			Acceptors: []msg.Loc{"a1", "a2", "a3"},
			Learners:  []msg.Loc{"learner"},
		}), "Paxos-Synod", "Paxos-Synod"},
		{broadcast.Spec(broadcast.Config{
			Nodes:       []msg.Loc{"b1", "b2", "b3"},
			Subscribers: []msg.Loc{"sub"},
		}), "Broadcast", "Broadcast Service"},
	}
	suite := PropertySuite()
	counts := suite.CountByModule()
	propsPer := make(map[string]int)
	for _, p := range suite.Properties() {
		propsPer[p.Module]++
	}
	var rows []Table1Row
	for _, s := range specs {
		rows = append(rows, Table1Row{
			Module:    s.title,
			SpecNodes: s.spec.Nodes(),
			TermNodes: interp.Size(interp.CompileSpec(s.spec)),
			OptNodes:  interp.Size(interp.OptimizeSpec(s.spec)),
			Props:     propsPer[s.module],
			Counts:    counts[s.module],
			Spec:      s.spec,
		})
	}
	return rows
}

// PropertySuite assembles the full property registry of the repository:
// CLK plus the three protocol modules. Running it discharges every
// registered property.
func PropertySuite() *verify.Suite {
	var s verify.Suite
	s.Add(clkProperties()...)
	s.Add(twothird.Properties()...)
	s.Add(synod.Properties()...)
	s.Add(broadcast.Properties()...)
	return &s
}

// clkProperties checks the running example: the paper proved 1 lemma
// automatically and 3 manually for CLK.
func clkProperties() []verify.Property {
	return []verify.Property{
		{Module: "CLK", Name: "refinement/program-implements-spec", Mode: verify.Auto, Check: checkCLKRefinement},
		{Module: "CLK", Name: "inductive-characterization", Mode: verify.Auto, Check: checkCLKInductive},
		{Module: "CLK", Name: "clock-condition", Mode: verify.Manual, Check: checkCLKClockCondition},
		{Module: "CLK", Name: "progress/C1", Mode: verify.Manual, Check: checkCLKProgress},
	}
}

func clkTrace(hops int) ([]gpm.TraceEntry, loe.Spec, error) {
	spec := loe.ClkRing(3)
	r := gpm.NewRunner(spec.System())
	r.Inject(loe.RingLoc(0), msg.M(loe.ClkHeader, loe.ClkBody{Val: 0, TS: 0}))
	_, err := r.Run(hops)
	return r.Trace(), spec, err
}

func checkCLKRefinement() error {
	spec := loe.ClkRing(3)
	denote := func(trace []gpm.TraceEntry) [][]msg.Directive {
		den := loe.Denote(spec.Main, loe.FromTrace(trace))
		out := make([][]msg.Directive, len(den))
		for i, vals := range den {
			for _, v := range vals {
				out[i] = append(out[i], v.(msg.Directive))
			}
		}
		return out
	}
	inject := []verify.Injection{{To: loe.RingLoc(0), M: msg.M(loe.ClkHeader, loe.ClkBody{Val: 0, TS: 0})}}
	return verify.CheckRefinement(spec.System(), inject, 30, denote)
}

func clkClocks(trace []gpm.TraceEntry) ([]int, error) {
	den := loe.Denote(loe.ClkClock(), loe.FromTrace(trace))
	clocks := make([]int, len(den))
	for i, vals := range den {
		if len(vals) != 1 {
			return nil, fmt.Errorf("clock not single-valued at event %d", i)
		}
		clocks[i] = vals[0].(int)
	}
	return clocks, nil
}

func checkCLKInductive() error {
	trace, _, err := clkTrace(25)
	if err != nil {
		return err
	}
	den := loe.Denote(loe.ClkClock(), loe.FromTrace(trace))
	states := make([]any, len(den))
	for i, vals := range den {
		states[i] = vals[0]
	}
	char := verify.StateStep{
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
	return verify.CheckInductive(trace, states, char)
}

func checkCLKClockCondition() error {
	trace, _, err := clkTrace(30)
	if err != nil {
		return err
	}
	eo := loe.FromTrace(trace)
	clocks, err := clkClocks(trace)
	if err != nil {
		return err
	}
	for i := range eo.Events {
		for j := range eo.Events {
			if eo.HappensBefore(i, j) && clocks[i] >= clocks[j] {
				return fmt.Errorf("clock condition violated: e%d -> e%d with LC %d >= %d",
					i, j, clocks[i], clocks[j])
			}
		}
	}
	return nil
}

func checkCLKProgress() error {
	trace, _, err := clkTrace(30)
	if err != nil {
		return err
	}
	clocks, err := clkClocks(trace)
	if err != nil {
		return err
	}
	last := make(map[msg.Loc]int)
	for i, e := range trace {
		if prev, seen := last[e.Loc]; seen && clocks[i] <= prev {
			return fmt.Errorf("C1 violated at %s: %d after %d", e.Loc, clocks[i], prev)
		}
		last[e.Loc] = clocks[i]
	}
	return nil
}
