// Package synod implements the multi-decree Paxos Synod protocol, "the
// heart of the same protocol in the Paxos implementation used by Google"
// (paper, Section II-D), following the role decomposition of Van Renesse's
// "Paxos Made Moderately Complex" [20]: Leaders drive ballots and delegate
// to short-lived Scout and Commander sub-processes; Acceptors maintain the
// fault-tolerant memory of the protocol.
//
// The protocol is an LoE specification: leaders are the parallel
// composition of a core handler and two Delegate combinators (one spawning
// scouts, one spawning commanders) — the paper's sub-process delegation
// pattern ("Our LoE delegation combinator allows us to specify distributed
// programs using a modular or divide and conquer method"). Sub-processes
// are addressed through self-messages, so the whole protocol stays inside
// the primitive combinator algebra and can be compiled to term programs
// and model-checked unchanged.
//
// Pipelining: Config.Window bounds how many instances the leader drives
// through phase 2 concurrently (commanders in flight); excess proposals
// queue and drain as decides arrive. The window throttles only when a
// proposal enters phase 2, never what an acceptor may accept, so it is
// a pure liveness/resource knob — safety is per-instance and per-ballot
// regardless of how instances interleave (DESIGN.md §8). Window = 0
// keeps the unbounded legacy behaviour; the broadcast sequencer's
// Pipeline knob maps onto it.
//
// The acceptor-amnesia bug that Google's Paxos extension suffered from
// (promising a ballot, losing the promise to disk corruption, and
// accepting lower ballots — Section II-D) is reproducible via
// Config.Amnesia and is caught by the model checker; see properties.go.
package synod

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
	"shadowdb/internal/store"
)

// Message headers of the protocol.
const (
	HdrPropose   = "px.propose"
	HdrP1a       = "px.p1a"
	HdrP1b       = "px.p1b"
	HdrP2a       = "px.p2a"
	HdrP2b       = "px.p2b"
	HdrAdopted   = "px.adopted"
	HdrPreempted = "px.preempted"
	HdrSpawnSct  = "px.spawnscout"
	HdrSpawnCmd  = "px.spawncmd"
	HdrWake      = "px.wake"
	HdrDecide    = "px.decide"
	HdrCorrupt   = "px.corrupt"
)

// Ballot is a Paxos ballot number: a round ordered lexicographically with
// the leader identity as tie-breaker.
type Ballot struct {
	N int
	L msg.Loc
}

// Less orders ballots.
func (b Ballot) Less(o Ballot) bool {
	if b.N != o.N {
		return b.N < o.N
	}
	return b.L < o.L
}

// Equal reports ballot equality.
func (b Ballot) Equal(o Ballot) bool { return b == o }

// String implements fmt.Stringer.
func (b Ballot) String() string { return fmt.Sprintf("(%d,%s)", b.N, b.L) }

// PValue is an accepted proposal: ballot, slot, value.
type PValue struct {
	B    Ballot
	Inst int
	Val  string
}

// Protocol message bodies.
type (
	// Propose asks the leaders to get Val chosen in instance Inst.
	Propose struct {
		Inst int
		Val  string
	}
	// P1a is the scout's phase-1 request.
	P1a struct {
		B    Ballot
		From msg.Loc
	}
	// P1b is an acceptor's phase-1 response: its current ballot and all
	// pvalues it has accepted.
	P1b struct {
		From     msg.Loc
		B        Ballot
		Accepted []PValue
	}
	// P2a is the commander's phase-2 request for one pvalue.
	P2a struct {
		B    Ballot
		Inst int
		Val  string
		From msg.Loc
	}
	// P2b is an acceptor's phase-2 response.
	P2b struct {
		From msg.Loc
		B    Ballot
		Inst int
	}
	// Adopted is the scout→leader self-message on majority adoption.
	Adopted struct {
		B        Ballot
		Accepted []PValue
	}
	// Preempted is the scout/commander→leader self-message on observing a
	// higher ballot.
	Preempted struct {
		B Ballot
	}
	// SpawnScout is the leader core→delegate self-message starting a
	// scout for ballot B.
	SpawnScout struct {
		B Ballot
	}
	// SpawnCmd is the leader core→delegate self-message starting a
	// commander for one pvalue.
	SpawnCmd struct {
		B    Ballot
		Inst int
		Val  string
	}
	// Wake retries leadership after a preemption backoff.
	Wake struct{}
	// Decide announces a chosen value to learners and leaders.
	Decide struct {
		Inst int
		Val  string
	}
	// Corrupt is the fault-injection message of the amnesia variant: the
	// receiving acceptor forgets everything, as if restarting from a
	// corrupted disk.
	Corrupt struct{}
)

// The protocol's bodies are registered with the wire codec at init (tags
// 0x30–0x3f, DESIGN.md "Wire format and allocation hot path").
func init() {
	msg.RegisterCodec(0x30, Propose{}, appendPropose, readPropose)
	msg.RegisterCodec(0x31, P2a{}, appendP2a, readP2a)
	msg.RegisterCodec(0x32, P2b{}, appendP2b, readP2b)
	msg.RegisterCodec(0x33, Decide{}, appendDecide, readDecide)
	msg.RegisterCodec(0x34, P1a{}, appendP1a, readP1a)
	msg.RegisterCodec(0x35, P1b{}, appendP1b, readP1b)
	msg.RegisterCodec(0x36, Adopted{}, appendAdopted, readAdopted)
	msg.RegisterCodec(0x37, Preempted{}, appendPreempted, readPreempted)
	msg.RegisterCodec(0x38, SpawnScout{}, appendSpawnScout, readSpawnScout)
	msg.RegisterCodec(0x39, SpawnCmd{}, appendSpawnCmd, readSpawnCmd)
	msg.RegisterCodec(0x3a, Wake{}, func(*msg.Writer, Wake) {}, func(*msg.Reader) Wake { return Wake{} })
	msg.RegisterCodec(0x3b, Corrupt{}, func(*msg.Writer, Corrupt) {}, func(*msg.Reader) Corrupt { return Corrupt{} })
}

// RegisterWireTypes does nothing: the codecs are registered at init. It
// stays for the benchmark module's callers (ROADMAP item 1(b)).
func RegisterWireTypes() {}

func appendBallot(w *msg.Writer, b Ballot) {
	w.Int(b.N)
	w.Loc(b.L)
}

func readBallot(r *msg.Reader) Ballot { return Ballot{N: r.Int(), L: r.Loc()} }

func appendPropose(w *msg.Writer, p Propose) {
	w.Int(p.Inst)
	w.Text(p.Val)
}

func readPropose(r *msg.Reader) Propose { return Propose{Inst: r.Int(), Val: r.Text()} }

func appendP2a(w *msg.Writer, p P2a) {
	appendBallot(w, p.B)
	w.Int(p.Inst)
	w.Text(p.Val)
	w.Loc(p.From)
}

func readP2a(r *msg.Reader) P2a {
	return P2a{B: readBallot(r), Inst: r.Int(), Val: r.Text(), From: r.Loc()}
}

func appendP1a(w *msg.Writer, p P1a) {
	appendBallot(w, p.B)
	w.Loc(p.From)
}

func readP1a(r *msg.Reader) P1a { return P1a{B: readBallot(r), From: r.Loc()} }

func appendP2b(w *msg.Writer, p P2b) {
	w.Loc(p.From)
	appendBallot(w, p.B)
	w.Int(p.Inst)
}

func readP2b(r *msg.Reader) P2b { return P2b{From: r.Loc(), B: readBallot(r), Inst: r.Int()} }

func appendDecide(w *msg.Writer, d Decide) {
	w.Int(d.Inst)
	w.Text(d.Val)
}

func readDecide(r *msg.Reader) Decide { return Decide{Inst: r.Int(), Val: r.Text()} }

func appendPValues(w *msg.Writer, pvs []PValue) {
	w.Uvarint(uint64(len(pvs)))
	for _, pv := range pvs {
		appendBallot(w, pv.B)
		w.Int(pv.Inst)
		w.Text(pv.Val)
	}
}

// minPValue is the fewest bytes an encoded PValue occupies.
const minPValue = 4

func readPValues(r *msg.Reader) []PValue {
	n := r.Count(minPValue)
	if n == 0 {
		return nil
	}
	pvs := make([]PValue, n)
	for i := range pvs {
		pvs[i] = PValue{B: readBallot(r), Inst: r.Int(), Val: r.Text()}
	}
	return pvs
}

func appendP1b(w *msg.Writer, p P1b) {
	w.Loc(p.From)
	appendBallot(w, p.B)
	appendPValues(w, p.Accepted)
}

func readP1b(r *msg.Reader) P1b {
	return P1b{From: r.Loc(), B: readBallot(r), Accepted: readPValues(r)}
}

func appendAdopted(w *msg.Writer, a Adopted) {
	appendBallot(w, a.B)
	appendPValues(w, a.Accepted)
}

func readAdopted(r *msg.Reader) Adopted { return Adopted{B: readBallot(r), Accepted: readPValues(r)} }

func appendPreempted(w *msg.Writer, p Preempted) { appendBallot(w, p.B) }

func readPreempted(r *msg.Reader) Preempted { return Preempted{B: readBallot(r)} }

func appendSpawnScout(w *msg.Writer, s SpawnScout) { appendBallot(w, s.B) }

func readSpawnScout(r *msg.Reader) SpawnScout { return SpawnScout{B: readBallot(r)} }

func appendSpawnCmd(w *msg.Writer, c SpawnCmd) {
	appendBallot(w, c.B)
	w.Int(c.Inst)
	w.Text(c.Val)
}

func readSpawnCmd(r *msg.Reader) SpawnCmd {
	return SpawnCmd{B: readBallot(r), Inst: r.Int(), Val: r.Text()}
}

// Config parameterizes a Synod deployment.
type Config struct {
	// Leaders are the proposer locations.
	Leaders []msg.Loc
	// Acceptors are the acceptor locations.
	Acceptors []msg.Loc
	// Learners receive a Decide for every chosen instance.
	Learners []msg.Loc
	// Backoff is the base preemption backoff; a preempted leader retries
	// after Backoff scaled by its index (deterministic, keeps dueling
	// leaders apart). Zero means 50ms.
	Backoff time.Duration
	// Window bounds how many instances an active leader commands
	// concurrently (the pipeline window): proposals beyond it queue in
	// instance order and launch as earlier instances decide. 0 means
	// unbounded. Safety does not depend on the window — every instance
	// is a full Synod — it only bounds the burst of concurrent phase-2
	// rounds; in-order delivery is the learner's (sequencer's) job.
	Window int
	// Amnesia re-introduces the Google bug: acceptors honour Corrupt
	// messages by forgetting their promises. Only the fault-injection
	// tests enable it.
	Amnesia bool
	// Stable, when set, gives each acceptor durable storage: promises
	// and accepted pvalues are journaled before the reply that reveals
	// them leaves the acceptor, and a re-instantiated acceptor restores
	// itself from the store (see durability.go). Nil keeps acceptors
	// volatile (the pre-durability behaviour).
	Stable func(msg.Loc) store.Stable
	// AcceptorsFor, when set, resolves the acceptor set per instance —
	// the dynamic-membership hook (member.View.AcceptorsFor). A
	// commander captures the set for its instance at spawn; a scout
	// asks with inst = -1 for the newest set (it is electing for the
	// whole future). Nil keeps the static Acceptors.
	AcceptorsFor func(inst int) []msg.Loc
	// LearnersFor, when set, resolves the Decide fan-out at decision
	// time (member.View.Learners), so broadcast nodes joining the
	// cluster start learning without a restart. Nil keeps the static
	// Learners.
	LearnersFor func() []msg.Loc
}

// Majority is the static acceptor quorum size.
func (c Config) Majority() int { return len(c.Acceptors)/2 + 1 }

// acceptorsFor resolves the acceptor set governing inst (inst < 0 asks
// for the newest set).
func (c Config) acceptorsFor(inst int) []msg.Loc {
	if c.AcceptorsFor != nil {
		return c.AcceptorsFor(inst)
	}
	return c.Acceptors
}

// learnersNow resolves the current Decide fan-out.
func (c Config) learnersNow() []msg.Loc {
	if c.LearnersFor != nil {
		return c.LearnersFor()
	}
	return c.Learners
}

// majorityOf is the quorum size of one resolved acceptor set: quorums
// are per-epoch under dynamic membership, never mixed across sets.
func majorityOf(accs []msg.Loc) int { return len(accs)/2 + 1 }

func (c Config) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 50 * time.Millisecond
}

// ------------------------------------------------------------ acceptor --

// acceptorState is the durable state of an acceptor.
type acceptorState struct {
	ballot   Ballot
	hasB     bool
	accepted map[int]PValue // slot -> highest-ballot accepted pvalue

	// j journals mutations write-ahead when durability is configured.
	j *store.Journal
}

// AcceptorClass builds the acceptor event class.
func AcceptorClass(cfg Config) loe.Class {
	in := loe.Parallel(loe.Base(HdrP1a), loe.Base(HdrP2a), loe.Base(HdrCorrupt))
	init := func(slf msg.Loc) any {
		s, err := openAcceptor(cfg, slf)
		if err != nil {
			// An acceptor that cannot read its promises back must not
			// answer as if it had made none.
			panic(fmt.Sprintf("synod: acceptor %s: %v", slf, err))
		}
		return s
	}
	step := func(slf msg.Loc, input, state any) (any, []msg.Directive) {
		s := state.(*acceptorState)
		switch b := input.(type) {
		case P1a:
			if !s.hasB || s.ballot.Less(b.B) {
				// The promise is a durable commitment: journal it
				// before the P1b that reveals it exists.
				s.record(b)
			}
			return s, []msg.Directive{msg.Send(b.From, msg.M(HdrP1b, P1b{
				From: slf, B: s.ballot, Accepted: s.pvalues(),
			}))}
		case P2a:
			if !s.hasB || !b.B.Less(s.ballot) {
				// b.B >= current ballot: adopt and accept.
				s.record(b)
			}
			return s, []msg.Directive{msg.Send(b.From, msg.M(HdrP2b, P2b{
				From: slf, B: s.ballot, Inst: b.Inst,
			}))}
		case Corrupt:
			if cfg.Amnesia {
				// The Google bug: all promises and accepted pvalues are
				// lost, as after restarting from a corrupted disk. With
				// durability configured the "disk" is wiped too, so a
				// later restore cannot resurrect the forgotten promises.
				*s = acceptorState{accepted: make(map[int]PValue), j: s.j}
				if s.j != nil {
					if err := s.j.Compact(s.snapshot()); err != nil {
						panic(fmt.Sprintf("synod: acceptor wipe: %v", err))
					}
				}
			}
			return s, nil
		}
		return s, nil
	}
	return loe.Handler("Acceptor", init, step, in)
}

// pvalues returns the accepted pvalues in deterministic slot order.
func (s *acceptorState) pvalues() []PValue {
	slots := make([]int, 0, len(s.accepted))
	for k := range s.accepted {
		slots = append(slots, k)
	}
	sort.Ints(slots)
	out := make([]PValue, 0, len(slots))
	for _, k := range slots {
		out = append(out, s.accepted[k])
	}
	return out
}

// -------------------------------------------------------------- leader --

// leaderState is the state of the leader core.
type leaderState struct {
	idx       int // index in cfg.Leaders, for deterministic backoff
	ballot    Ballot
	active    bool
	scouting  bool
	proposals map[int]string
	decided   map[int]string
	// inflight tracks the instances whose commanders are running under
	// the current ballot; queued holds proposal instances awaiting a
	// free pipeline-window slot, in arrival order.
	inflight map[int]bool
	queued   []int
}

// LeaderClass builds the leader event class: core handler in parallel with
// the scout and commander delegates.
func LeaderClass(cfg Config) loe.Class {
	core := leaderCore(cfg)
	scouts := loe.Delegate("Scouts", loe.Base(HdrSpawnSct), func(slf msg.Loc, v any) loe.Class {
		return scoutClass(cfg, v.(SpawnScout).B)
	})
	commanders := loe.Delegate("Commanders", loe.Base(HdrSpawnCmd), func(slf msg.Loc, v any) loe.Class {
		sc := v.(SpawnCmd)
		return commanderClass(cfg, sc.B, sc.Inst, sc.Val)
	})
	return loe.Parallel(core, scouts, commanders)
}

func leaderCore(cfg Config) loe.Class {
	in := loe.Parallel(
		loe.Base(HdrPropose), loe.Base(HdrAdopted), loe.Base(HdrPreempted),
		loe.Base(HdrWake), loe.Base(HdrDecide),
	)
	init := func(slf msg.Loc) any {
		idx := 0
		for i, l := range cfg.Leaders {
			if l == slf {
				idx = i
			}
		}
		return &leaderState{
			idx:       idx,
			ballot:    Ballot{N: 0, L: slf},
			proposals: make(map[int]string),
			decided:   make(map[int]string),
			inflight:  make(map[int]bool),
		}
	}
	step := func(slf msg.Loc, input, state any) (any, []msg.Directive) {
		s := state.(*leaderState)
		switch b := input.(type) {
		case Propose:
			return s, s.onPropose(cfg, slf, b)
		case Adopted:
			return s, s.onAdopted(cfg, slf, b)
		case Preempted:
			return s, s.onPreempted(cfg, slf, b)
		case Wake:
			mWakes.Inc()
			return s, s.onWake(slf)
		case Decide:
			return s, s.onDecide(cfg, slf, b)
		}
		return s, nil
	}
	return loe.Handler("LeaderCore", init, step, in)
}

func (s *leaderState) onPropose(cfg Config, slf msg.Loc, b Propose) []msg.Directive {
	if _, done := s.decided[b.Inst]; done {
		// Already chosen: remind the learners (idempotent; they dedupe).
		var outs []msg.Directive
		for _, l := range cfg.learnersNow() {
			outs = append(outs, msg.Send(l, msg.M(HdrDecide, Decide{Inst: b.Inst, Val: s.decided[b.Inst]})))
		}
		return outs
	}
	if _, dup := s.proposals[b.Inst]; dup {
		return nil
	}
	s.proposals[b.Inst] = b.Val
	mProposals.Inc()
	if s.active {
		return s.launch(cfg, slf, b.Inst)
	}
	if !s.scouting {
		s.scouting = true
		return []msg.Directive{msg.Send(slf, msg.M(HdrSpawnSct, SpawnScout{B: s.ballot}))}
	}
	return nil
}

// launch spawns a commander for inst if the pipeline window has room,
// queueing it otherwise. Only called while active.
func (s *leaderState) launch(cfg Config, slf msg.Loc, inst int) []msg.Directive {
	if cfg.Window > 0 && len(s.inflight) >= cfg.Window {
		s.queued = append(s.queued, inst)
		return nil
	}
	return []msg.Directive{s.spawn(slf, inst)}
}

// spawn emits the commander-delegate self-message for inst under the
// current ballot and marks it in flight.
func (s *leaderState) spawn(slf msg.Loc, inst int) msg.Directive {
	s.inflight[inst] = true
	return msg.Send(slf, msg.M(HdrSpawnCmd, SpawnCmd{B: s.ballot, Inst: inst, Val: s.proposals[inst]}))
}

// onDecide records a chosen instance and drains the proposal queue into
// the freed pipeline-window slot.
func (s *leaderState) onDecide(cfg Config, slf msg.Loc, b Decide) []msg.Directive {
	s.decided[b.Inst] = b.Val
	delete(s.proposals, b.Inst)
	delete(s.inflight, b.Inst)
	// The instance may have been decided by a competing leader while
	// sitting in our queue; drop it there too.
	for i, inst := range s.queued {
		if inst == b.Inst {
			s.queued = append(s.queued[:i], s.queued[i+1:]...)
			break
		}
	}
	if !s.active {
		return nil
	}
	var outs []msg.Directive
	for len(s.queued) > 0 && (cfg.Window <= 0 || len(s.inflight) < cfg.Window) {
		inst := s.queued[0]
		s.queued = s.queued[1:]
		if _, ok := s.proposals[inst]; !ok {
			continue // decided or withdrawn meanwhile
		}
		outs = append(outs, s.spawn(slf, inst))
	}
	return outs
}

func (s *leaderState) onAdopted(cfg Config, slf msg.Loc, b Adopted) []msg.Directive {
	if !b.B.Equal(s.ballot) {
		return nil // stale adoption of an old ballot
	}
	s.active = true
	s.scouting = false
	mAdopted.Inc()
	// pmax: adopt the highest-ballot accepted value per slot, overriding
	// our own proposals — the core Paxos safety rule.
	best := make(map[int]PValue)
	for _, pv := range b.Accepted {
		if cur, ok := best[pv.Inst]; !ok || cur.B.Less(pv.B) {
			best[pv.Inst] = pv
		}
	}
	for inst, pv := range best {
		if _, done := s.decided[inst]; !done {
			s.proposals[inst] = pv.Val
		}
	}
	// Command every pending proposal under the adopted ballot, lowest
	// instance first, respecting the pipeline window: commanders of any
	// previous ballot are dead (preempted), so the window restarts empty
	// and the overflow re-queues in instance order.
	s.inflight = make(map[int]bool)
	s.queued = nil
	insts := make([]int, 0, len(s.proposals))
	for inst := range s.proposals {
		insts = append(insts, inst)
	}
	sort.Ints(insts)
	var outs []msg.Directive
	for _, inst := range insts {
		outs = append(outs, s.launch(cfg, slf, inst)...)
	}
	return outs
}

func (s *leaderState) onPreempted(cfg Config, slf msg.Loc, b Preempted) []msg.Directive {
	if !s.ballot.Less(b.B) {
		return nil
	}
	s.active = false
	s.scouting = false
	// Commanders of the preempted ballot are doomed; the window restarts
	// on the next adoption, which re-commands every pending proposal.
	s.inflight = make(map[int]bool)
	s.queued = nil
	tracePreempt(slf, b.B)
	s.ballot = Ballot{N: b.B.N + 1, L: slf}
	delay := cfg.backoff() * time.Duration(s.idx+1)
	return []msg.Directive{msg.SendAfter(delay, slf, msg.M(HdrWake, Wake{}))}
}

func (s *leaderState) onWake(slf msg.Loc) []msg.Directive {
	if s.active || s.scouting || len(s.proposals) == 0 {
		return nil
	}
	s.scouting = true
	return []msg.Directive{msg.Send(slf, msg.M(HdrSpawnSct, SpawnScout{B: s.ballot}))}
}

// --------------------------------------------------------------- scout --

// scoutState tracks a scout's quorum.
type scoutState struct {
	waiting  map[msg.Loc]bool
	accepted []PValue
	done     bool
}

// scoutClass builds the sub-process for one ballot. Its spawn event is the
// SpawnScout message itself, on which it emits the p1a round. The
// acceptor set is resolved once, at spawn: a scout elects against the
// newest configuration (inst -1 under dynamic membership).
func scoutClass(cfg Config, b Ballot) loe.Class {
	accs := cfg.acceptorsFor(-1)
	in := loe.Parallel(loe.Base(HdrSpawnSct), loe.Base(HdrP1b))
	init := func(msg.Loc) any {
		w := make(map[msg.Loc]bool, len(accs))
		for _, a := range accs {
			w[a] = true
		}
		return &scoutState{waiting: w}
	}
	step := func(slf msg.Loc, input, state any) (any, []any) {
		s := state.(*scoutState)
		if s.done {
			return s, nil
		}
		switch m := input.(type) {
		case SpawnScout:
			if !m.B.Equal(b) {
				return s, nil
			}
			mScouts.Inc()
			outs := make([]any, 0, len(accs))
			for _, a := range accs {
				outs = append(outs, msg.Send(a, msg.M(HdrP1a, P1a{B: b, From: slf})))
			}
			return s, outs
		case P1b:
			if b.Less(m.B) {
				s.done = true
				return s, []any{msg.Send(slf, msg.M(HdrPreempted, Preempted{B: m.B})), loe.Done{}}
			}
			if !m.B.Equal(b) || !s.waiting[m.From] {
				return s, nil
			}
			delete(s.waiting, m.From)
			s.accepted = append(s.accepted, m.Accepted...)
			if len(accs)-len(s.waiting) >= majorityOf(accs) {
				s.done = true
				return s, []any{msg.Send(slf, msg.M(HdrAdopted, Adopted{B: b, Accepted: s.accepted})), loe.Done{}}
			}
			return s, nil
		}
		return s, nil
	}
	return loe.HandlerRaw(fmt.Sprintf("Scout%s", b), init, step, in)
}

// ----------------------------------------------------------- commander --

// commanderState tracks a commander's quorum.
type commanderState struct {
	waiting map[msg.Loc]bool
	done    bool
}

// commanderClass builds the sub-process driving one pvalue to decision.
// The acceptor set is captured at spawn, resolved for this instance:
// under dynamic membership an instance's quorum comes from exactly the
// epoch that governs it, never from a mixture of configurations.
func commanderClass(cfg Config, b Ballot, inst int, val string) loe.Class {
	accs := cfg.acceptorsFor(inst)
	in := loe.Parallel(loe.Base(HdrSpawnCmd), loe.Base(HdrP2b))
	init := func(msg.Loc) any {
		w := make(map[msg.Loc]bool, len(accs))
		for _, a := range accs {
			w[a] = true
		}
		return &commanderState{waiting: w}
	}
	step := func(slf msg.Loc, input, state any) (any, []any) {
		s := state.(*commanderState)
		if s.done {
			return s, nil
		}
		switch m := input.(type) {
		case SpawnCmd:
			if !m.B.Equal(b) || m.Inst != inst {
				return s, nil
			}
			mCommanders.Inc()
			outs := make([]any, 0, len(accs))
			for _, a := range accs {
				outs = append(outs, msg.Send(a, msg.M(HdrP2a, P2a{B: b, Inst: inst, Val: val, From: slf})))
			}
			return s, outs
		case P2b:
			if m.Inst != inst {
				return s, nil
			}
			if b.Less(m.B) {
				s.done = true
				return s, []any{msg.Send(slf, msg.M(HdrPreempted, Preempted{B: m.B})), loe.Done{}}
			}
			if !m.B.Equal(b) || !s.waiting[m.From] {
				return s, nil
			}
			delete(s.waiting, m.From)
			if len(accs)-len(s.waiting) >= majorityOf(accs) {
				s.done = true
				traceDecide(slf, b, inst)
				d := Decide{Inst: inst, Val: val}
				learners := cfg.learnersNow()
				outs := make([]any, 0, len(learners)+len(cfg.Leaders)+1)
				for _, l := range learners {
					outs = append(outs, msg.Send(l, msg.M(HdrDecide, d)))
				}
				for _, l := range cfg.Leaders {
					outs = append(outs, msg.Send(l, msg.M(HdrDecide, d)))
				}
				outs = append(outs, loe.Done{})
				return s, outs
			}
			return s, nil
		}
		return s, nil
	}
	return loe.HandlerRaw(fmt.Sprintf("Cmd%s/%d", b, inst), init, step, in)
}

// ----------------------------------------------------------------- spec --

// Spec builds the full deployment: acceptors and leaders, each running
// their role class.
func Spec(cfg Config) loe.Spec {
	accSet := make(map[msg.Loc]bool, len(cfg.Acceptors))
	for _, a := range cfg.Acceptors {
		accSet[a] = true
	}
	// Role dispatch by location: acceptors run the acceptor class, leaders
	// the leader class. The union class routes on location via Filter.
	locs := append(append([]msg.Loc(nil), cfg.Leaders...), cfg.Acceptors...)
	main := loe.Parallel(
		guard(AcceptorClass(cfg), func(slf msg.Loc) bool { return accSet[slf] }, "at-acceptor"),
		guard(LeaderClass(cfg), func(slf msg.Loc) bool { return !accSet[slf] }, "at-leader"),
	)
	return loe.Spec{Name: "Paxos-Synod", Main: main, Locs: locs, Params: 4}
}

// guard keeps only the outputs produced at locations satisfying pred,
// giving per-role deployment within one class.
func guard(c loe.Class, pred func(msg.Loc) bool, name string) loe.Class {
	return loe.Filter(name, func(slf msg.Loc, _ any) bool { return pred(slf) }, c)
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
