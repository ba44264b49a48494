package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/flow"
	"shadowdb/internal/msg"
	"shadowdb/internal/verify"
)

// The replicated database's runtime invariants — durability, the three
// read/* lease properties (given the lease window) and the three flow/*
// properties (given the queue bound) — each
// stated once as a step over verify.Event and run by every driver:
// schedule explorer, online checker, offline replay. DESIGN.md §4 is the
// catalogue of what each forbids.
//
// Flow accounting: every request a client submits opens a flow (keyed
// client/seq); a TxResult or flow.Reject addressed to that client closes
// it. At drain time FinishFlow flags every flow still open whose
// deadline has not passed — admitted work that simply vanished. A flow
// whose deadline HAS passed is excused: the client's own retry path
// declares the terminal deadline outcome locally, which produces no
// message to observe. Completions are bucketed into the load phases the
// driving bench marks out with NoteFlowPhase, so CheckGoodputFloor
// certifies graceful degradation from ordered evidence rather than from
// the bench's own bookkeeping.

// The two properties whose verdict comes at drain time rather than from
// a step.
const (
	terminalOutcome = "flow/terminal-outcome"
	goodputFloor    = "flow/goodput-floor"
)

// Checks holds the state of the database's invariants.
type Checks struct {
	// delivered is per location the set of transaction keys that reached
	// it through an ordered path. A location without an entry is not an
	// SMR executor (a PBR replica, whose replies the ack protocol covers)
	// and its replies are out of scope.
	delivered map[msg.Loc]map[string]bool

	// dur and maxStale are the lease window and follower staleness bound
	// in the trace's nanoseconds (zero dur = unknown).
	dur, maxStale int64
	// issue is, per location, the highest issue timestamp among lease
	// renewals delivered there — the node's provable clock frontier,
	// derived from ordered data rather than from anything the node claims
	// about itself.
	issue map[msg.Loc]int64
	// txSlot records the slot each transaction was delivered in (keyed
	// group\x00txkey): the frontier a read serve must cover to include
	// that write.
	txSlot map[string]int64
	// acked is, per group, the monotone history of acknowledged writes:
	// (ack time, running max delivered slot of any acked tx). Appended per
	// TxResult, binary-searched by the read-serve checks.
	acked map[string][]ackPoint

	// flowMax is the queue bound (0 = unknown). flows maps an open
	// request key to its deadline and submission phase; phases is the
	// load-phase timeline in declaration order. touched and completed say
	// what the current event did.
	flowMax            int
	flows              map[string]flowEntry
	phases             []*FlowPhase
	touched, completed bool
}

// ackPoint is one entry of a group's acknowledged-write history.
type ackPoint struct{ at, maxSlot int64 }

// flowEntry is one open (submitted, unresolved) request.
type flowEntry struct {
	deadline int64
	phase    *FlowPhase
}

// FlowPhase is one marked load phase with its completion accounting.
// Requests credit the phase they were SUBMITTED in, so work spilling
// past a phase boundary still counts against the load that created it.
type FlowPhase struct {
	// Name is the bench's label for the phase (e.g. "1x", "16x").
	Name string `json:"name"`
	// From/To bound the phase on the trace clock (To set when the next
	// phase is marked, or by FinishFlow for the last one).
	From int64 `json:"from"`
	To   int64 `json:"to"`
	// Submitted counts distinct requests first submitted in the phase.
	Submitted int64 `json:"submitted"`
	// Completed counts successful results; Aborted counts unsuccessful
	// ones (including deterministic aborts and terminal overload
	// answers); Shed counts explicit flow.Reject answers.
	Completed int64 `json:"completed"`
	Aborted   int64 `json:"aborted"`
	Shed      int64 `json:"shed"`
}

// NewChecks creates the invariants' empty state for a deployment with
// these facts, each 0 when unknown: the lease duration and the follower
// staleness bound (0: the duration) the read/* properties need, and the
// largest admission-queue bound configured anywhere, which the flow/*
// properties need — a Reject reporting a bigger Cap means a queue was
// built outside the certified configuration.
func NewChecks(lease, maxStale time.Duration, maxQueue int) *Checks {
	if maxStale <= 0 {
		maxStale = lease
	}
	return &Checks{
		dur: int64(lease), maxStale: int64(maxStale), flowMax: maxQueue,
		delivered: make(map[msg.Loc]map[string]bool),
		issue:     make(map[msg.Loc]int64),
		txSlot:    make(map[string]int64),
		acked:     make(map[string][]ackPoint),
		flows:     make(map[string]flowEntry),
	}
}

// Set composes the invariants over the facts fold extracts once per
// event: what the incoming message delivered, which writes the outputs
// acknowledge, which flows they open and close.
func (c *Checks) Set() verify.Set {
	const lease, queue = "lease window", "queue bound"
	leaseKnown := func() bool { return c.dur != 0 }
	queueKnown := func() bool { return c.flowMax > 0 }
	inScope := func(flag *bool) func(*verify.Event) (bool, []string) {
		return func(*verify.Event) (bool, []string) { return *flag, nil }
	}
	return verify.Set{Fold: c.fold, Invariants: []verify.Invariant{
		{Name: "shadowdb/durability", Step: c.durability},
		{Name: "read/lease-linearizability", Needs: lease, Known: leaseKnown, Step: c.covered(ReadLease, func() int64 { return 0 })},
		{Name: "read/lease-expiry", Needs: lease, Known: leaseKnown, Step: c.leaseExpiry},
		{Name: "read/follower-staleness", Needs: lease, Known: leaseKnown, Step: c.covered(ReadFollower, func() int64 { return c.maxStale })},
		// The verdicts of these two come at drain time (FinishFlow,
		// CheckGoodputFloor); per event they only report their scope.
		{Name: terminalOutcome, Needs: queue, Known: queueKnown, Step: inScope(&c.touched)},
		{Name: "flow/queue-bound", Needs: queue, Known: queueKnown, Step: c.queueBound},
		{Name: goodputFloor, Needs: queue, Known: queueKnown, Step: inScope(&c.completed)},
	}}
}

func (c *Checks) fold(e *verify.Event) {
	c.touched, c.completed = false, false
	c.foldDelivered(e)
	for _, o := range e.Outs {
		if b, ok := o.M.Body.(TxResult); ok && o.M.Hdr == HdrTxResult {
			if c.dur != 0 && b.Err == "" && c.delivered[e.Loc] != nil {
				c.noteAck(e, TxRequest{Client: b.Client, Seq: b.Seq}.Key())
			}
		}
		if c.flowMax > 0 {
			c.foldFlow(e, o)
		}
	}
}

// foldDelivered credits what the incoming message delivers to e.Loc.
func (c *Checks) foldDelivered(e *verify.Event) {
	credit := func(key string) {
		if c.delivered[e.Loc] == nil {
			c.delivered[e.Loc] = make(map[string]bool)
		}
		c.delivered[e.Loc][key] = true
	}
	// ordered folds one ordered batch. Renewals are the ordered clock
	// beacons: the highest issue delivered here bounds how far behind real
	// time this node's applied state can be. >= so an issue of 0 (a
	// renewal proposed at the simulation epoch) still creates the entry
	// leaseExpiry keys on.
	ordered := func(d broadcast.Deliver, live bool) {
		for _, bc := range d.Msgs {
			switch msg.PayloadTag(bc.Payload) {
			case leaseTag:
				if ren, err := msg.DecodeBody[LeaseRenewal](bc.Payload); err == nil && int64(ren.Issue) >= c.issue[e.Loc] {
					c.issue[e.Loc] = int64(ren.Issue)
				}
			case txTag:
				if req, err := msg.DecodeBody[TxRequest](bc.Payload); err == nil {
					credit(req.Key())
					if live && c.dur != 0 {
						c.txSlot[e.Group+"\x00"+req.Key()] = int64(d.Slot)
					}
				}
			}
		}
	}
	switch b := e.In.Body.(type) {
	case broadcast.Deliver:
		if e.In.Hdr == broadcast.HdrDeliver {
			ordered(b, true)
		}
	case Catchup:
		// Catch-up records are ordered slots served from a peer's
		// journal: transactions and renewals applied through them are as
		// delivered as the live ones, and a restarted lease holder may
		// later acknowledge them (re-acks). Anything else credits nothing.
		if e.In.Hdr == HdrCatchup {
			for _, rec := range b.Records {
				if d, err := msg.DecodeBody[broadcast.Deliver](rec); err == nil {
					ordered(d, false)
				}
			}
		}
	case SnapPart:
		// A state transfer's header part carries the sender's newest
		// cached result per client; the receiver may re-acknowledge
		// exactly those after becoming the lease holder. Bytes that do
		// not decode as a header credit nothing.
		if e.In.Hdr == HdrSnapPart && b.N == 0 {
			if h, _, err := splitSnapshot(b.Bytes); err == nil {
				for _, res := range h.Recent {
					credit(TxRequest{Client: res.Client, Seq: res.Seq}.Key())
				}
			}
		}
	}
}

// noteAck appends one acknowledged write to the group's ack history:
// the running max of delivered slots among acked transactions, at the
// acknowledgement's time. Entry times are kept monotone so the serve
// checks can binary-search the history.
func (c *Checks) noteAck(e *verify.Event, key string) {
	slot, ok := c.txSlot[e.Group+"\x00"+key]
	if !ok {
		return
	}
	hist := c.acked[e.Group]
	at, mx := e.At, slot
	if n := len(hist); n > 0 {
		mx = max(mx, hist[n-1].maxSlot)
		at = max(at, hist[n-1].at)
	}
	c.acked[e.Group] = append(hist, ackPoint{at: at, maxSlot: mx})
}

// maxAckedBefore returns the highest delivered slot among writes of
// group g acknowledged strictly before time t (-1 when none).
func (c *Checks) maxAckedBefore(g string, t int64) int64 {
	hist := c.acked[g]
	// First entry with at >= t; the one before it is the latest ack
	// strictly before t, and its maxSlot is the running maximum.
	i := sort.Search(len(hist), func(i int) bool { return hist[i].at >= t })
	if i == 0 {
		return -1
	}
	return hist[i-1].maxSlot
}

// durability: a replica that executes off the total order acknowledges
// only transactions that already reached it through an ordered path —
// live delivery, journal catch-up or state transfer — never from thin
// air and never ahead of the delivery.
func (c *Checks) durability(e *verify.Event) (inScope bool, bad []string) {
	set := c.delivered[e.Loc]
	if set == nil {
		return false, nil
	}
	for _, o := range e.Outs {
		b, ok := o.M.Body.(TxResult)
		if !ok || o.M.Hdr != HdrTxResult || b.Err != "" {
			continue
		}
		inScope = true
		if key := (TxRequest{Client: b.Client, Seq: b.Seq}).Key(); !set[key] {
			bad = append(bad, fmt.Sprintf("%s acknowledged %s without an ordered delivery", e.Loc, key))
		}
	}
	return inScope, bad
}

// serves judges every local read of the given mode that e.Loc served.
// Rejections and errors are not serves — rejecting is always safe.
func serves(e *verify.Event, mode ReadMode, judge func(r *ReadResult) string) (inScope bool, bad []string) {
	for _, o := range e.Outs {
		r, ok := o.M.Body.(*ReadResult)
		if !ok || o.M.Hdr != HdrReadResult || r.Mode != mode || r.Rejected || r.Err != "" {
			continue
		}
		inScope = true
		if detail := judge(r); detail != "" {
			bad = append(bad, detail)
		}
	}
	return inScope, bad
}

// covered builds the two frontier properties: a serve of the given mode
// covers every write acknowledged more than lag before it. For lease
// reads lag is zero — local reads at the holder miss no acknowledged
// write; for follower reads it is MaxStale.
func (c *Checks) covered(mode ReadMode, lag func() int64) func(*verify.Event) (bool, []string) {
	return func(e *verify.Event) (bool, []string) {
		return serves(e, mode, func(r *ReadResult) string {
			if want := c.maxAckedBefore(e.Group, e.At-lag()); int64(r.Slot) < want {
				return fmt.Sprintf("%s served a %s read at slot frontier %d, missing write slot %d acknowledged more than %dns earlier",
					e.Loc, mode, r.Slot, want, lag())
			}
			return ""
		})
	}
}

// leaseExpiry: a lease-mode serve falls inside the window of the last
// renewal DELIVERED to the serving node.
func (c *Checks) leaseExpiry(e *verify.Event) (bool, []string) {
	return serves(e, ReadLease, func(*ReadResult) string {
		// A node partitioned away from the total order stops receiving
		// renewals, so its delivered issue frontier freezes and this
		// catches it the moment it overstays.
		if iss, ok := c.issue[e.Loc]; !ok || e.At > iss+c.dur {
			return fmt.Sprintf("%s served a lease read at t=%d past its lease window (last delivered renewal issued %d, dur %d)",
				e.Loc, e.At, iss, c.dur)
		}
		return ""
	})
}

// queueBound audits every flow.Reject against the rejecting queue's
// self-reported coordinates: occupancy over the bound (or a bound over
// the certified configuration) means admission accounting leaked.
func (c *Checks) queueBound(e *verify.Event) (inScope bool, bad []string) {
	for _, o := range e.Outs {
		b, ok := o.M.Body.(flow.Reject)
		if !ok || o.M.Hdr != flow.HdrReject {
			continue
		}
		inScope = true
		if b.Cap > 0 && b.Depth > b.Cap {
			bad = append(bad, fmt.Sprintf("%s rejected %d with queue depth %d over its bound %d", e.Loc, b.Seq, b.Depth, b.Cap))
		}
		if b.Cap > c.flowMax {
			bad = append(bad, fmt.Sprintf("%s reports a queue bound %d above the configured maximum %d", e.Loc, b.Cap, c.flowMax))
		}
	}
	return inScope, bad
}

// foldFlow folds one outgoing directive into the flow accounting.
func (c *Checks) foldFlow(e *verify.Event, o msg.Directive) {
	switch b := o.M.Body.(type) {
	case broadcast.Bcast:
		// A Bcast leaving its own originator with a transaction payload
		// is a client submission; forwards and 2PC/control records are
		// not (wrong origin or non-tx payload).
		if o.M.Hdr != broadcast.HdrBcast || b.From != e.Loc {
			return
		}
		if msg.PayloadTag(b.Payload) == txTag {
			c.openFlow(b.Key(), b.Deadline)
		}
	case TxRequest:
		if o.M.Hdr == HdrTx && b.Client == e.Loc {
			c.openFlow(b.Key(), b.Deadline)
		}
	case flow.Reject:
		if o.M.Hdr == flow.HdrReject {
			c.closeFlow(TxRequest{Client: o.Dest, Seq: b.Seq}.Key(), false, true)
		}
	case TxResult:
		if o.M.Hdr == HdrTxResult {
			c.closeFlow(TxRequest{Client: b.Client, Seq: b.Seq}.Key(), !b.Aborted && b.Err == "", false)
		}
	}
}

// openFlow records a submission (idempotent across retransmissions:
// the first open fixes the crediting phase).
func (c *Checks) openFlow(key string, deadline int64) {
	if _, open := c.flows[key]; open {
		return
	}
	c.touched = true
	var p *FlowPhase
	if n := len(c.phases); n > 0 {
		p = c.phases[n-1]
		p.Submitted++
	}
	c.flows[key] = flowEntry{deadline: deadline, phase: p}
}

// closeFlow resolves a flow with an observed terminal outcome. Late
// duplicates (retransmitted results for an already-closed flow) are
// ignored so retries do not double-count completions.
func (c *Checks) closeFlow(key string, completed, shed bool) {
	f, open := c.flows[key]
	if !open {
		return
	}
	c.touched = true
	delete(c.flows, key)
	if f.phase == nil {
		return
	}
	switch {
	case shed:
		f.phase.Shed++
	case completed:
		f.phase.Completed++
		c.completed = true
	default:
		f.phase.Aborted++
	}
}

// NoteFlowPhase marks the start of a named load phase at trace time at,
// closing the previous phase. Subsequent submissions credit the new one.
func (c *Checks) NoteFlowPhase(name string, at int64) {
	c.closeLastPhase(at)
	c.phases = append(c.phases, &FlowPhase{Name: name, From: at})
}

func (c *Checks) closeLastPhase(at int64) {
	if n := len(c.phases); n > 0 && c.phases[n-1].To == 0 {
		c.phases[n-1].To = at
	}
}

// FlowPhases snapshots the phase accounting.
func (c *Checks) FlowPhases() []FlowPhase {
	out := make([]FlowPhase, len(c.phases))
	for i, p := range c.phases {
		out[i] = *p
	}
	return out
}

// OpenFlows counts submitted requests without an observed terminal
// outcome yet.
func (c *Checks) OpenFlows() int { return len(c.flows) }

// FinishFlow is the drain check of flow/terminal-outcome at trace time
// now: it closes the last phase and returns a violation for every flow
// still open whose deadline has not passed.
func (c *Checks) FinishFlow(now int64) []verify.Violation {
	c.closeLastPhase(now)
	keys := make([]string, 0, len(c.flows))
	for k := range c.flows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []verify.Violation
	for _, key := range keys {
		f := c.flows[key]
		if f.deadline > 0 && now >= f.deadline {
			continue // client self-declared the deadline outcome locally
		}
		client := key[:strings.LastIndexByte(key, '/')]
		out = append(out, verify.Violation{
			Property: terminalOutcome, Loc: msg.Loc(client), At: now,
			Detail: fmt.Sprintf("request %s was submitted but reached no terminal outcome (deadline %d, drained at %d)",
				key, f.deadline, now),
		})
	}
	return out
}

// CheckGoodputFloor is the drain check of flow/goodput-floor: the
// completion rate of phase load must be at least floor times the
// completion rate of phase base. The comparison is skipped when either
// phase is unknown or has a degenerate window.
func (c *Checks) CheckGoodputFloor(base, load string, floor float64) []verify.Violation {
	var bp, lp *FlowPhase // the latest phase of each name
	for _, p := range c.phases {
		switch p.Name {
		case base:
			bp = p
		case load:
			lp = p
		}
	}
	if bp == nil || lp == nil || bp.To <= bp.From || lp.To <= lp.From {
		return nil
	}
	baseRate := float64(bp.Completed) / float64(bp.To-bp.From)
	loadRate := float64(lp.Completed) / float64(lp.To-lp.From)
	if loadRate >= floor*baseRate {
		return nil
	}
	return []verify.Violation{{
		Property: goodputFloor, Loc: "checker", At: lp.To,
		Detail: fmt.Sprintf("phase %q completed %.3g/s, below %.0f%% of phase %q's %.3g/s — overload collapsed goodput instead of degrading it",
			load, loadRate*1e9, floor*100, base, baseRate*1e9),
	}}
}
