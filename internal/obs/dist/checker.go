package dist

import (
	"sync"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/shard"
	"shadowdb/internal/verify"
)

// Checker is the live driver of the runtime invariants. It defines none
// of them: each is stated once, as a step over verify.Event, beside the
// protocol it constrains (broadcast.Checks with the consensus modules'
// agreement, core.Checks, shard.Checks — the catalogue is DESIGN.md §4),
// and the schedule explorer in internal/verify steps the same
// definitions. What the Checker adds is what a deployment needs around
// them: one lock for concurrent feeds, group keying, the deployment
// Facts and restart announcements no event carries, the violation list
// with its hooks and metrics, and Status. Wire it to a live Obs with
// Watch and every recorded step is checked within that step — a
// violation surfaces on the admin endpoint while the run is still
// going; Result.Check replays a collected trace through the same path.
//
// In sharded deployments several independent broadcast/consensus groups
// run side by side, each with its own slot numbering and instance space.
// Every event is keyed by shard.GroupOf of its location, so shard 1's
// slot 7 is never compared against shard 0's slot 7; the per-group
// properties then hold within each group exactly as they do for a single
// group, and every unsharded location shares the one group "".
//
// Checker is safe for concurrent Feed from many nodes' sinks. The
// interleaving of concurrent feeds is one of the linear extensions of
// the per-node orders, which is exactly the adversary the properties
// quantify over, so concurrency cannot produce false alarms for
// total-order, single-value, or in-order (each keyed by per-node or
// per-slot state). Durability alone is order-sensitive across nodes only
// in the benign direction: a reply observed before its (earlier, other
// sink) delivery cannot happen because both events come from the same
// node's sink in recording order.
type Checker struct {
	mu sync.Mutex
	// groups caches shard.GroupOf per location.
	groups map[msg.Loc]string

	// The invariants' state, by owning package, and the monitor that
	// steps their composition.
	bcast *broadcast.Checks
	db    *core.Checks
	cross *shard.Checks
	mon   *verify.Monitor

	// events counts fed events; violations collects flagged failures.
	events     int64
	violations []Violation

	// metrics, when the checker is watching an Obs.
	cEvents     *obs.Counter
	cViolations *obs.Counter

	// onViolation holds the violation hooks (flight-recorder dumps).
	// Guarded by its own lock so hooks can be fired after mu is released:
	// a hook typically calls back into Status(), which takes mu.
	hookMu      sync.RWMutex
	onViolation []func(Violation)
}

// Violation is one flagged property failure.
type Violation = verify.Violation

// Facts are what the deployment fixes and no event carries. A zero
// field is unknown, and the properties that need it report themselves
// skipped (Status) instead of running.
type Facts struct {
	// LeaseDur and MaxStale are the lease window and the follower
	// staleness bound (0: LeaseDur) the read/* properties need.
	LeaseDur, MaxStale time.Duration
	// Initial is the membership the deployment started from and Alpha the
	// activation lag it runs with, which the member/* properties need.
	Initial member.Config
	Alpha   int
	// MaxQueue is the largest admission-queue bound configured anywhere,
	// which the flow/* properties need: a rejection reporting a bigger
	// one came from a queue outside the configuration.
	MaxQueue int
}

// NewChecker creates an online checker over fresh invariants, armed with
// the deployment's facts.
func NewChecker(f Facts) *Checker {
	c := &Checker{
		groups: make(map[msg.Loc]string),
		bcast:  broadcast.NewChecks(f.Initial, f.Alpha),
		db:     core.NewChecks(f.LeaseDur, f.MaxStale, f.MaxQueue),
		cross:  shard.NewChecks(),
	}
	c.mon = verify.NewMonitor(c.sets()...)
	return c
}

// sets is the registered invariant list: every runtime property of the
// repository, composed bottom-up along the import graph.
func (c *Checker) sets() []verify.Set {
	return append(c.bcast.Sets(), c.db.Set(), c.cross.Set())
}

// NoteRestart tells the checker that loc crashed and was restarted: its
// next delivery may re-enter the slot stream past a gap (see
// broadcast.Checks.Excuse).
func (c *Checker) NoteRestart(loc msg.Loc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bcast.Excuse(loc)
}

// NoteFlowPhase marks the start of a named load phase at trace time at.
func (c *Checker) NoteFlowPhase(name string, at int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.db.NoteFlowPhase(name, at)
}

// FlowPhases snapshots the phase accounting (bench reports).
func (c *Checker) FlowPhases() []core.FlowPhase {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.FlowPhases()
}

// OpenFlows counts submitted requests without an observed terminal
// outcome yet.
func (c *Checker) OpenFlows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.OpenFlows()
}

// FinishFlow runs the flow/terminal-outcome drain check at trace time
// now (see core.Checks.FinishFlow).
func (c *Checker) FinishFlow(now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record(c.db.FinishFlow(now))
}

// CheckGoodputFloor runs the flow/goodput-floor drain check (see
// core.Checks.CheckGoodputFloor).
func (c *Checker) CheckGoodputFloor(base, load string, floor float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record(c.db.CheckGoodputFloor(base, load, floor))
}

// Watch subscribes the checker to o's live event stream: every Record
// with a step payload is fed as it happens. Call once per observed Obs
// (one checker can watch a whole cluster's nodes). Tracing must be
// enabled on o for step events to exist.
func (c *Checker) Watch(o *obs.Obs) {
	c.mu.Lock()
	if c.cEvents == nil {
		c.cEvents = o.Counter("dist.checker.events")
		c.cViolations = o.Counter("dist.checker.violations")
	}
	c.mu.Unlock()
	o.AddSink(c.Feed)
}

// OnViolation registers fn to run for every violation an event exposes,
// after the flagging event finishes — the flight recorder's dump trigger.
// Hooks run on the feeding goroutine with the checker unlocked, so a
// hook may call Status or Violations; it must return promptly (Feed sits
// on the event fan-out path) and must not Feed the same checker.
func (c *Checker) OnViolation(fn func(Violation)) {
	if fn == nil {
		return
	}
	c.hookMu.Lock()
	c.onViolation = append(c.onViolation, fn)
	c.hookMu.Unlock()
}

// Feed advances the checker by one event. Events without a step payload
// (metrics-adjacent records) are counted but otherwise ignored.
func (c *Checker) Feed(e obs.Event) {
	c.mu.Lock()
	c.events++
	if c.cEvents != nil {
		c.cEvents.Inc()
	}
	var fresh []Violation
	if e.M != nil {
		group, ok := c.groups[e.Loc]
		if !ok {
			group = shard.GroupOf(e.Loc)
			c.groups[e.Loc] = group
		}
		ev := verify.Event{Loc: e.Loc, At: e.At, In: *e.M, Outs: e.Outs, LC: e.LC, Trace: e.Trace, Group: group}
		fresh = c.mon.Step(&ev)
		c.record(fresh)
	}
	c.mu.Unlock()
	if len(fresh) == 0 {
		return
	}
	c.hookMu.RLock()
	hooks := c.onViolation
	c.hookMu.RUnlock()
	for _, v := range fresh {
		for _, fn := range hooks {
			fn(v)
		}
	}
}

// record appends flagged violations (callers hold mu).
func (c *Checker) record(vs []Violation) {
	c.violations = append(c.violations, vs...)
	if c.cViolations != nil {
		c.cViolations.Add(int64(len(vs)))
	}
}

// FeedAll replays a recorded trace through the checker.
func (c *Checker) FeedAll(events []obs.Event) {
	for _, e := range events {
		c.Feed(e)
	}
}

// Violations returns the flagged failures so far.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}

// Err returns the first violation as an error, nil when clean.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) == 0 {
		return nil
	}
	return c.violations[0]
}

// Status summarizes the checker for the admin endpoint.
type Status struct {
	// Events is the number of events fed.
	Events int64 `json:"events"`
	// Slots is the number of broadcast slots with an identified batch.
	Slots int `json:"slots"`
	// Decided is the number of consensus instances with a chosen value.
	Decided int `json:"decided"`
	// CrossShard is the number of distributed transactions with a
	// delivered 2PC verdict; CrossOpen counts transactions some location
	// prepared for but has not yet seen decided (nonzero after a drain
	// means a 2PC is stuck mid-protocol somewhere).
	CrossShard int `json:"cross_shard"`
	CrossOpen  int `json:"cross_open"`
	// Invariants says, per property, how many events were in its scope —
	// zero means the run certified it vacuously — or which deployment
	// fact it is still waiting for.
	Invariants []verify.Coverage `json:"invariants"`
	// Violations are the flagged failures (empty means clean so far).
	Violations []Violation `json:"violations"`
}

// Status snapshots the checker.
func (c *Checker) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Events:     c.events,
		Slots:      c.bcast.Slots(),
		Decided:    c.bcast.Decided(),
		CrossShard: c.cross.Decided(),
		CrossOpen:  len(c.cross.Open()),
		Invariants: c.mon.Coverage(),
		Violations: append([]Violation(nil), c.violations...),
	}
}

// OpenCrossShard lists distributed transactions that some location
// delivered a prepare for without (yet) delivering the decision (see
// shard.Checks.Open).
func (c *Checker) OpenCrossShard() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cross.Open()
}
