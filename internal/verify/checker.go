// Package verify is this repository's stand-in for the Nuprl side of the
// paper's methodology. Where the paper proves properties of LoE
// specifications interactively in a proof assistant, this package checks
// the same properties mechanically:
//
//   - an exhaustive bounded model checker that explores every delivery
//     interleaving (optionally with crash, message-drop, and
//     message-duplication injection) of a small instance and checks an
//     invariant at every reachable state;
//   - a randomized schedule fuzzer for larger instances;
//   - a refinement checker that validates that a GPM program implements
//     its LoE specification (the paper's automatic proof, arrow (c));
//   - an inductive state-characterization checker in the style of the
//     Inductive Logical Form (Fig. 5 of the paper);
//   - a property registry that records which properties are checked fully
//     automatically and which needed a hand-written harness — the A/M
//     split of Table I.
//
// The substitution (bounded checking for proof) is documented in DESIGN.md.
package verify

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
)

// Injection is an external message fed to the system before exploration.
type Injection struct {
	To msg.Loc
	M  msg.Msg
}

// Model describes a finite instance of a distributed system to check.
type Model struct {
	// Gen produces the process at each location.
	Gen gpm.Generator
	// Locs are the locations to spawn.
	Locs []msg.Loc
	// Init are the external messages present initially.
	Init []Injection
	// MaxDepth bounds the length of explored schedules; 0 means the
	// number of initial injections times 16.
	MaxDepth int
	// MaxRuns bounds the number of complete schedules explored
	// exhaustively; 0 means two million.
	MaxRuns int
	// CrashLocs lists locations the checker may crash, and Crashes bounds
	// how many crash choices one schedule may contain.
	CrashLocs []msg.Loc
	Crashes   int
	// Drops bounds how many message-drop choices one schedule may contain:
	// a drop removes a pending delivery without executing it, modeling a
	// lossy link. Dups likewise bounds message-duplication choices: a
	// duplicate re-enqueues a copy of a pending delivery, modeling a
	// retransmitting link. Zero (the default) disables the fault.
	Drops int
	Dups  int
	// Restarts bounds crash-restart choices: a restart revives a crashed
	// location by re-invoking Gen for it. With durable state behind Gen
	// (e.g. WAL-backed acceptors reading a store.Stable), the new process
	// restores itself from storage — a real crash-restart without state
	// loss; with volatile processes it models a process reset. Zero (the
	// default) disables restarts.
	Restarts int
	// Reset, if non-nil, runs before each schedule executes. Models whose
	// processes share external durable state across Gen invocations (a
	// store.Mem provider backing restartable acceptors) use it to wipe
	// that state so schedules stay independent.
	Reset func()
	// Invariants constructs the properties to hold throughout every
	// schedule. Each schedule steps a fresh set once per delivery (see
	// invariant.go); the first violation fails the check.
	Invariants func() []Set
	// Final, if non-nil, is checked at the end of each maximal schedule
	// (queue drained or depth bound hit).
	Final func(trace []gpm.TraceEntry) error
}

// Stats reports what an exhaustive check covered.
type Stats struct {
	// Schedules is the number of maximal schedules explored.
	Schedules int
	// Deliveries is the total number of deliveries executed.
	Deliveries int
	// Truncated reports whether MaxRuns stopped exploration early.
	Truncated bool
}

// CheckError describes an invariant violation, including the schedule that
// reached it so the failure can be replayed.
type CheckError struct {
	// Schedule is the sequence of choice indices that led to the
	// violation.
	Schedule []int
	// Err is the invariant's error.
	Err error
}

// Error implements error.
func (e *CheckError) Error() string {
	return fmt.Sprintf("verify: invariant violated on schedule %v: %v", e.Schedule, e.Err)
}

// Unwrap supports errors.Is/As.
func (e *CheckError) Unwrap() error { return e.Err }

// Exhaustive explores every delivery interleaving of the model up to its
// bounds, checking the invariant at every state. Processes are replayed
// from the initial state for every schedule prefix, so process
// implementations may freely mutate internal state.
func Exhaustive(m Model) (Stats, error) {
	maxDepth := m.MaxDepth
	if maxDepth == 0 {
		maxDepth = 16 * len(m.Init)
	}
	maxRuns := m.MaxRuns
	if maxRuns == 0 {
		maxRuns = 2_000_000
	}
	st := &Stats{}
	err := explore(m, nil, maxDepth, maxRuns, st)
	return *st, err
}

// The checker encodes a schedule as a sequence of ints over five
// contiguous ranges: with P pending deliveries, C crashable locations,
// drop/dup budget remaining, and R restartable (crashed) locations,
// values 0..P-1 deliver pending[v], P..P+C-1 crash crash[v-P], the
// next P values drop pending[v-P-C], the following P values duplicate
// pending[v-P-C-drop], and the final R values restart
// restart[v-P-C-drop-dup]. The drop, duplicate, and restart ranges
// collapse to zero width once their budget is spent.
type choices struct {
	deliver   int       // pending deliveries
	crash     []msg.Loc // locations that may crash next
	drop, dup int       // pending messages that may be dropped / duplicated next
	restart   []msg.Loc // crashed locations that may restart next
}

func (c choices) total() int {
	return c.deliver + len(c.crash) + c.drop + c.dup + len(c.restart)
}

// pending maps a choice to the pending delivery it acts on, -1 for the
// crash and restart choices, which act on a location.
func (c choices) pending(v int) int {
	switch {
	case v < c.deliver:
		return v
	case v < c.deliver+len(c.crash):
		return -1
	case v < c.deliver+len(c.crash)+c.drop:
		return v - c.deliver - len(c.crash)
	case v < c.deliver+len(c.crash)+c.drop+c.dup:
		return v - c.deliver - len(c.crash) - c.drop
	default:
		return -1
	}
}

func explore(m Model, schedule []int, maxDepth, maxRuns int, st *Stats) error {
	if st.Schedules >= maxRuns {
		st.Truncated = true
		return nil
	}
	x, deadEnd, err := replay(m, schedule, st)
	if err != nil {
		return &CheckError{Schedule: append([]int(nil), schedule...), Err: err}
	}
	ch := x.choices()
	if deadEnd || ch.total() == 0 || len(schedule) >= maxDepth {
		st.Schedules++
		if m.Final != nil {
			if err := m.Final(x.trace); err != nil {
				return &CheckError{Schedule: append([]int(nil), schedule...), Err: err}
			}
		}
		return nil
	}
	// Delivering, dropping, or duplicating either of two identical pending
	// messages leads to isomorphic states, so the duplicate pending index
	// is skipped in each range (symmetry reduction).
	dup := x.duplicates()
	for c, total := 0, ch.total(); c < total; c++ {
		if pi := ch.pending(c); pi >= 0 && dup[pi] {
			continue
		}
		if err := explore(m, append(schedule, c), maxDepth, maxRuns, st); err != nil {
			return err
		}
		if st.Schedules >= maxRuns {
			st.Truncated = true
			return nil
		}
	}
	return nil
}

// execution is one schedule in progress. Pending deliveries are kept in
// FIFO order of creation; a choice index picks one for delivery. Crashed
// locations drop all input until a restart choice (budget permitting)
// re-instantiates them via Gen. The model's invariants are stepped once
// per executed delivery.
type execution struct {
	m       Model
	st      *Stats
	procs   map[msg.Loc]gpm.Process
	pending []Injection
	crashed map[msg.Loc]bool
	// fault budgets spent so far
	crashes, drops, dups, restarts int
	trace                          []gpm.TraceEntry
	mon                            *Monitor
}

// start puts the model in its initial state, with fresh invariants.
func start(m Model, st *Stats) *execution {
	if m.Reset != nil {
		m.Reset()
	}
	var sets []Set
	if m.Invariants != nil {
		sets = m.Invariants()
	}
	x := &execution{
		m: m, st: st, mon: NewMonitor(sets...),
		procs:   make(map[msg.Loc]gpm.Process, len(m.Locs)),
		pending: append([]Injection(nil), m.Init...),
		crashed: make(map[msg.Loc]bool),
	}
	for _, l := range m.Locs {
		x.procs[l] = m.Gen(l)
	}
	return x
}

// choices lists what may happen next.
func (x *execution) choices() choices {
	ch := choices{deliver: len(x.pending)}
	for _, l := range x.m.CrashLocs {
		if x.crashes < x.m.Crashes && !x.crashed[l] {
			ch.crash = append(ch.crash, l)
		}
		if x.restarts < x.m.Restarts && x.crashed[l] {
			ch.restart = append(ch.restart, l)
		}
	}
	if x.drops < x.m.Drops {
		ch.drop = len(x.pending)
	}
	if x.dups < x.m.Dups {
		ch.dup = len(x.pending)
	}
	return ch
}

// take executes choice v of ch, the choices of the current state. It
// reports false when v is outside their ranges, and the violation a
// delivery exposes.
func (x *execution) take(ch choices, v int) (bool, error) {
	pi := ch.pending(v)
	switch {
	case v < ch.deliver:
		d := x.pending[pi]
		x.pending = append(x.pending[:pi], x.pending[pi+1:]...)
		p, ok := x.procs[d.To]
		if x.crashed[d.To] || !ok {
			break
		}
		next, outs := p.Step(d.M)
		x.procs[d.To] = next
		x.st.Deliveries++
		for _, o := range outs {
			x.pending = append(x.pending, Injection{To: o.Dest, M: o.M})
		}
		x.trace = append(x.trace, gpm.TraceEntry{Loc: d.To, In: d.M, Outs: outs, CausedBy: -1})
		if vs := x.mon.Step(&Event{Loc: d.To, In: d.M, Outs: outs}); len(vs) > 0 {
			return true, vs[0]
		}
	case v < ch.deliver+len(ch.crash):
		x.crashed[ch.crash[v-ch.deliver]] = true
		x.crashes++
	case v < ch.deliver+len(ch.crash)+ch.drop:
		x.pending = append(x.pending[:pi], x.pending[pi+1:]...)
		x.drops++
	case v < ch.deliver+len(ch.crash)+ch.drop+ch.dup:
		x.pending = append(x.pending, x.pending[pi])
		x.dups++
	case v < ch.total():
		// Restart: the location comes back as a fresh Gen instantiation,
		// recovering whatever durable state its generator restores.
		l := ch.restart[v-ch.total()+len(ch.restart)]
		x.crashed[l] = false
		x.procs[l] = x.m.Gen(l)
		x.restarts++
	default:
		return false, nil
	}
	return true, nil
}

// duplicates marks each pending delivery that is identical to an earlier
// pending one.
func (x *execution) duplicates() []bool {
	dup := make([]bool, len(x.pending))
	for i := 1; i < len(x.pending); i++ {
		for j := 0; j < i; j++ {
			if !dup[j] && x.pending[i].To == x.pending[j].To && x.pending[i].M.Hdr == x.pending[j].M.Hdr &&
				reflect.DeepEqual(x.pending[i].M.Body, x.pending[j].M.Body) {
				dup[i] = true
				break
			}
		}
	}
	return dup
}

// replay executes a schedule from the initial state. deadEnd reports a
// schedule that names a choice its state does not offer.
func replay(m Model, schedule []int, st *Stats) (x *execution, deadEnd bool, err error) {
	x = start(m, st)
	for _, c := range schedule {
		ok, err := x.take(x.choices(), c)
		if err != nil || !ok {
			return x, !ok, err
		}
	}
	return x, false, nil
}

// Fuzz runs n random schedules of up to maxDepth deliveries each, drawing
// choices uniformly, and checks the invariants at every state. It is the
// scalable companion to Exhaustive for larger instances. Unlike
// Exhaustive it executes each schedule in a single pass, so deep
// schedules stay cheap; it shares the execution (and so the choice
// encoding) with replay, and the returned CheckError carries the whole
// schedule for a replay-based reproduction.
func Fuzz(m Model, n int, maxDepth int, seed int64) (Stats, error) {
	rng := rand.New(rand.NewSource(seed))
	st := &Stats{}
	for run := 0; run < n; run++ {
		x := start(m, st)
		var schedule []int
		for len(schedule) < maxDepth {
			ch := x.choices()
			if ch.total() == 0 {
				break
			}
			c := rng.Intn(ch.total())
			schedule = append(schedule, c)
			if _, err := x.take(ch, c); err != nil {
				return *st, &CheckError{Schedule: schedule, Err: err}
			}
		}
		st.Schedules++
		if m.Final != nil {
			if err := m.Final(x.trace); err != nil {
				return *st, &CheckError{Schedule: schedule, Err: err}
			}
		}
	}
	return *st, nil
}

// ErrRefinement is wrapped by CheckRefinement failures.
var ErrRefinement = errors.New("verify: program does not implement specification")

// Denoter is the specification side of a refinement check: given an event
// ordering it returns the expected outputs at every event. Package loe's
// Denote matches this shape.
type Denoter func(trace []gpm.TraceEntry) [][]msg.Directive

// CheckRefinement runs a system under the reference runner with the given
// injections and verifies that the operational outputs at every event
// equal the specification's denotational outputs — the paper's automatic
// proof that the GPM program implements the LoE specification (arrow (c)).
func CheckRefinement(sys gpm.System, inject []Injection, maxSteps int, denote Denoter) error {
	r := gpm.NewRunner(sys)
	for _, in := range inject {
		r.Inject(in.To, in.M)
	}
	if _, err := r.Run(maxSteps); err != nil {
		return fmt.Errorf("run system: %w", err)
	}
	trace := r.Trace()
	want := denote(trace)
	if len(want) != len(trace) {
		return fmt.Errorf("%w: specification produced %d events, program %d",
			ErrRefinement, len(want), len(trace))
	}
	for i := range trace {
		if !reflect.DeepEqual(normDirs(trace[i].Outs), normDirs(want[i])) {
			return fmt.Errorf("%w: event %d at %s: program %v, spec %v",
				ErrRefinement, i, trace[i].Loc, trace[i].Outs, want[i])
		}
	}
	return nil
}

func normDirs(ds []msg.Directive) []msg.Directive {
	if len(ds) == 0 {
		return nil
	}
	return ds
}

// StateStep is the expected inductive characterization of a single-valued
// state class (the Fig. 5 equality): the state at an event equals step
// applied to the state at the location's previous event (or init for the
// first event).
type StateStep struct {
	Init func(slf msg.Loc) any
	Step func(slf msg.Loc, prev any, in msg.Msg) any
}

// CheckInductive validates that observed per-event states satisfy the
// inductive characterization over a trace: state(e) = Step(state(pred e),
// msg(e)). states[i] must be the class's value at trace[i].
func CheckInductive(trace []gpm.TraceEntry, states []any, c StateStep) error {
	if len(states) != len(trace) {
		return fmt.Errorf("verify: %d states for %d events", len(states), len(trace))
	}
	prev := make(map[msg.Loc]any)
	for i, e := range trace {
		p, seen := prev[e.Loc]
		if !seen {
			p = c.Init(e.Loc)
		}
		want := c.Step(e.Loc, p, e.In)
		if !reflect.DeepEqual(states[i], want) {
			return fmt.Errorf("verify: event %d at %s: state %v, characterization %v",
				i, e.Loc, states[i], want)
		}
		prev[e.Loc] = states[i]
	}
	return nil
}
