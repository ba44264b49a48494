// Package twothird implements the TwoThird Consensus protocol of the
// paper (Section II-D): a leaderless, round-based, fully symmetric
// consensus algorithm in the style of the One-Third Rule algorithm of the
// Heard-Of model. Each node broadcasts its estimate every round; once a
// node has received votes from more than two thirds of the nodes for its
// current round it decides if a single value reaches that threshold, and
// otherwise adopts the smallest most-frequent value and advances.
//
// The protocol is expressed as an LoE specification (loe.Handler over base
// classes), so it can be run natively, interpreted as a term program, and
// model-checked — the same artifact the paper verifies in Nuprl.
//
// The paper reports that manual inspection found their initial TwoThird
// version "was not live because of a deadlock scenario" and that two lines
// of code fixed it. Config.Legacy re-introduces that early version
// (skipping the quorum re-check after a round advance, and not notifying
// peers of decisions) so the regression is preserved as a checkable
// artifact; see properties.go.
package twothird

import (
	"fmt"
	"slices"
	"sort"

	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
)

// Message headers of the protocol.
const (
	HdrPropose = "tt.propose"
	HdrVote    = "tt.vote"
	HdrDecide  = "tt.decide"
)

// Propose asks the consensus group to decide Val for instance Inst.
type Propose struct {
	Inst int
	Val  string
}

// Vote carries a node's estimate for a round of an instance.
type Vote struct {
	Inst  int
	Round int
	From  msg.Loc
	Val   string
}

// Decide announces the decided value of an instance.
type Decide struct {
	Inst int
	Val  string
}

// The protocol's bodies are registered with the wire codec at init (tags
// 0x60–0x6f, DESIGN.md "Wire format and allocation hot path").
func init() {
	msg.RegisterCodec(0x60, Propose{}, appendPropose, readPropose)
	msg.RegisterCodec(0x61, Vote{}, appendVote, readVote)
	msg.RegisterCodec(0x62, Decide{}, appendDecide, readDecide)
}

// RegisterWireTypes does nothing: the codecs are registered at init. It
// stays for the benchmark module's callers (ROADMAP item 1(b)).
func RegisterWireTypes() {}

func appendPropose(w *msg.Writer, p Propose) {
	w.Int(p.Inst)
	w.Text(p.Val)
}

func readPropose(r *msg.Reader) Propose { return Propose{Inst: r.Int(), Val: r.Text()} }

func appendVote(w *msg.Writer, v Vote) {
	w.Int(v.Inst)
	w.Int(v.Round)
	w.Loc(v.From)
	w.Text(v.Val)
}

func readVote(r *msg.Reader) Vote {
	return Vote{Inst: r.Int(), Round: r.Int(), From: r.Loc(), Val: r.Text()}
}

func appendDecide(w *msg.Writer, d Decide) {
	w.Int(d.Inst)
	w.Text(d.Val)
}

func readDecide(r *msg.Reader) Decide { return Decide{Inst: r.Int(), Val: r.Text()} }

// Config parameterizes a TwoThird group.
type Config struct {
	// Nodes is the consensus group membership.
	Nodes []msg.Loc
	// Learners receive a Decide directive for every decided instance.
	Learners []msg.Loc
	// Legacy re-introduces the paper's early, not-live version of the
	// protocol: after advancing to a new round the node does not
	// re-examine already-buffered votes, deciders notify only learners
	// (not peers), and decided nodes do not remind laggards. A node whose
	// final quorum vote is its own then stalls forever.
	Legacy bool
}

// Quorum returns the vote threshold: more than two thirds of the nodes.
func (c Config) Quorum() int { return (2*len(c.Nodes))/3 + 1 }

// instState is the per-instance protocol state of one node.
type instState struct {
	started bool
	decided bool
	est     string
	val     string // decided value
	round   int
	votes   map[int]map[msg.Loc]string // round -> voter -> value
}

// nodeState is the state of one node across instances.
type nodeState struct {
	insts map[int]*instState
}

func (s *nodeState) inst(i int) *instState {
	st, ok := s.insts[i]
	if !ok {
		st = &instState{votes: make(map[int]map[msg.Loc]string)}
		s.insts[i] = st
	}
	return st
}

// Class builds the per-node event class of the protocol.
func Class(cfg Config) loe.Class {
	in := loe.Parallel(loe.Base(HdrPropose), loe.Base(HdrVote), loe.Base(HdrDecide))
	init := func(msg.Loc) any { return &nodeState{insts: make(map[int]*instState)} }
	step := func(slf msg.Loc, input, state any) (any, []msg.Directive) {
		s := state.(*nodeState)
		var outs []msg.Directive
		switch b := input.(type) {
		case Propose:
			outs = onPropose(cfg, slf, s, b)
		case Vote:
			outs = onVote(cfg, slf, s, b)
		case Decide:
			outs = onDecide(cfg, slf, s, b)
		}
		return s, outs
	}
	return loe.Handler("TwoThird", init, step, in)
}

// Spec builds the complete specification: the node class running at every
// group member.
func Spec(cfg Config) loe.Spec {
	return loe.Spec{
		Name:   "TwoThird",
		Main:   Class(cfg),
		Locs:   append([]msg.Loc(nil), cfg.Nodes...),
		Params: 3, // nodes, learners, value type
	}
}

func onPropose(cfg Config, slf msg.Loc, s *nodeState, b Propose) []msg.Directive {
	st := s.inst(b.Inst)
	if st.decided || st.started {
		return nil
	}
	st.started = true
	st.est = b.Val
	mProposals.Inc()
	return castVote(cfg, slf, s, b.Inst, st)
}

// castVote records the node's own vote for its current round and sends it
// to the other group members, then runs the quorum check (the own vote may
// complete a quorum formed by buffered votes).
func castVote(cfg Config, slf msg.Loc, s *nodeState, inst int, st *instState) []msg.Directive {
	v := Vote{Inst: inst, Round: st.round, From: slf, Val: st.est}
	mVotes.Inc()
	var outs []msg.Directive
	for _, n := range cfg.Nodes {
		if n != slf {
			outs = append(outs, msg.Send(n, msg.M(HdrVote, v)))
		}
	}
	record(st, v)
	outs = append(outs, checkRounds(cfg, slf, s, inst, st)...)
	return outs
}

func record(st *instState, v Vote) {
	rv, ok := st.votes[v.Round]
	if !ok {
		rv = make(map[msg.Loc]string)
		st.votes[v.Round] = rv
	}
	rv[v.From] = v.Val
}

func onVote(cfg Config, slf msg.Loc, s *nodeState, b Vote) []msg.Directive {
	st := s.inst(b.Inst)
	if st.decided {
		if cfg.Legacy {
			return nil
		}
		// Help laggards: remind the sender of the decision.
		return []msg.Directive{msg.Send(b.From, msg.M(HdrDecide, Decide{Inst: b.Inst, Val: st.val}))}
	}
	record(st, b)
	if !st.started {
		// A vote from a peer starts this node too: adopt the value as its
		// estimate (it has no proposal of its own yet).
		st.started = true
		st.est = b.Val
		return castVote(cfg, slf, s, b.Inst, st)
	}
	return checkRounds(cfg, slf, s, instOf(b), st)
}

func instOf(b Vote) int { return b.Inst }

func onDecide(cfg Config, slf msg.Loc, s *nodeState, b Decide) []msg.Directive {
	st := s.inst(b.Inst)
	if st.decided {
		return nil
	}
	return decide(cfg, slf, st, b.Inst, b.Val)
}

// checkRounds evaluates the quorum rule for the node's current round and,
// unless the liveness bug is enabled, keeps re-evaluating after each round
// advance since buffered future-round votes may already form a quorum —
// the paper's two-line deadlock fix.
func checkRounds(cfg Config, slf msg.Loc, s *nodeState, inst int, st *instState) []msg.Directive {
	var outs []msg.Directive
	for {
		advanced, ds := checkOnce(cfg, slf, s, inst, st)
		outs = append(outs, ds...)
		if !advanced || st.decided {
			return outs
		}
		if cfg.Legacy {
			// BUG (preserved deliberately): stop after one advance; if the
			// quorum for the new round is already buffered, no future
			// message will re-trigger the check and the node deadlocks.
			return outs
		}
	}
}

// checkOnce applies the round rule once. It reports whether the node
// advanced to a new round.
func checkOnce(cfg Config, slf msg.Loc, s *nodeState, inst int, st *instState) (bool, []msg.Directive) {
	rv := st.votes[st.round]
	if len(rv) < cfg.Quorum() {
		return false, nil
	}
	top, count := mostFrequent(rv)
	if count >= cfg.Quorum() {
		return false, decide(cfg, slf, st, inst, top)
	}
	// Advance: adopt the smallest most-frequent value, vote for the next
	// round.
	st.est = top
	st.round++
	mRounds.Inc()
	mVotes.Inc()
	v := Vote{Inst: inst, Round: st.round, From: slf, Val: st.est}
	var outs []msg.Directive
	for _, n := range cfg.Nodes {
		if n != slf {
			outs = append(outs, msg.Send(n, msg.M(HdrVote, v)))
		}
	}
	record(st, v)
	return true, outs
}

// mostFrequent returns the smallest value with the maximal count.
func mostFrequent(rv map[msg.Loc]string) (string, int) {
	counts := make(map[string]int)
	for _, v := range rv {
		counts[v]++
	}
	vals := make([]string, 0, len(counts))
	for v := range counts {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	best, bestCount := "", -1
	for _, v := range vals {
		if counts[v] > bestCount {
			best, bestCount = v, counts[v]
		}
	}
	return best, bestCount
}

func decide(cfg Config, slf msg.Loc, st *instState, inst int, val string) []msg.Directive {
	st.decided = true
	st.val = val
	traceDecide(slf, inst, st.round)
	d := Decide{Inst: inst, Val: val}
	var outs []msg.Directive
	if !cfg.Legacy {
		for _, n := range cfg.Nodes {
			if n != slf {
				outs = append(outs, msg.Send(n, msg.M(HdrDecide, d)))
			}
		}
	}
	for _, l := range cfg.Learners {
		outs = append(outs, msg.Send(l, msg.M(HdrDecide, d)))
	}
	return outs
}

// Decided recognizes a decision announcement and extracts its instance
// and value.
func Decided(hdr string, body any) (inst int, val string, ok bool) {
	d, ok := body.(Decide)
	return d.Inst, d.Val, ok && hdr == HdrDecide
}

// DecisionsOf extracts the decisions announced to learners from
// directives, keyed by instance.
func DecisionsOf(outs []msg.Directive, learners []msg.Loc) map[int][]string {
	ds := make(map[int][]string)
	for _, o := range outs {
		if inst, val, ok := Decided(o.M.Hdr, o.M.Body); ok && slices.Contains(learners, o.Dest) {
			ds[inst] = append(ds[inst], val)
		}
	}
	return ds
}

// String implements fmt.Stringer for debugging.
func (s *instState) String() string {
	return fmt.Sprintf("round=%d est=%q decided=%v val=%q", s.round, s.est, s.decided, s.val)
}
