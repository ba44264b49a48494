package broadcast

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/consensus/twothird"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/verify"
)

// The service's runtime invariants — total order, in-order delivery, the
// two member/* properties, and agreement for each consensus module the
// service can run — each stated once as a step over verify.Event and run
// by every driver: the schedule explorer through Properties, the online
// checker, the offline replay. DESIGN.md §4 is the catalogue of what each
// forbids. Deliver is judged where it is sent and where it is received:
// a sender in the trace shows what it emitted; the receive side
// additionally catches what diverged on the way (corruption, a forged
// notification), which never appears as a send directive.

// BatchID is the order-insensitive identity of a batch: its sorted
// message keys. Two batches are the same batch iff their IDs are equal.
func BatchID(msgs []Bcast) string {
	keys := make([]string, len(msgs))
	for i, b := range msgs {
		keys[i] = b.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x01")
}

// Checks holds the state of the service's invariants.
type Checks struct {
	synod, twothird *verify.Agreement

	// batch identifies the first batch seen for each group\x00slot;
	// batchBy remembers who sent or received it (for messages).
	batch, batchBy map[string]string
	// high is, per delivery stream, the highest delivered slot; rejoin
	// marks the streams an announced restart excuses one jump in, and
	// joinAt the streams an ordered add admits from its slot on.
	high   map[stream]int64
	rejoin map[stream]bool
	joinAt map[stream]int64

	// Dynamic membership (zero alpha = unknown). views is the canonical
	// shadow view per group, derived from the member commands in the
	// delivered order; locViews re-derives per location for locations
	// with full delivery history, so a node that folds the same command
	// stream into a different configuration is caught even though the
	// batches matched.
	initial  member.Config
	alpha    int
	views    map[string]*member.View
	locViews map[string]*member.View
	// partial marks locations whose delivery stream has a hole (restart,
	// join or gap): their own derivation would start from a partial
	// command history, so only the canonical view covers them.
	partial map[msg.Loc]bool
	// epochFP fixes the first configuration fingerprint derived for each
	// group\x00epoch; epochAt remembers who established it.
	epochFP map[string]string
	epochAt map[string]msg.Loc
	// p2b records, per deciding location and instance, the phase-2
	// acknowledgements it received, by ballot — the certificate behind an
	// outgoing Decide. Deleted once the decision is checked.
	p2b map[string]map[string]map[msg.Loc]bool
}

// stream is the Deliver sequence addressed to one node, as its senders
// emit it (sent) or as it receives it.
type stream struct {
	to   msg.Loc
	sent bool
}

// NewChecks creates the invariants' empty state for a deployment that
// started from initial with activation lag alpha, the fact the member/*
// properties need (alpha 0: unknown). Every group shares initial, which
// fits the current single-group membership deployments.
func NewChecks(initial member.Config, alpha int) *Checks {
	return &Checks{
		initial: initial, alpha: alpha,
		synod: synod.Agreement(), twothird: twothird.Agreement(),
		batch: make(map[string]string), batchBy: make(map[string]string),
		high: make(map[stream]int64), rejoin: make(map[stream]bool), joinAt: make(map[stream]int64),
		views: make(map[string]*member.View), locViews: make(map[string]*member.View),
		partial: make(map[msg.Loc]bool),
		epochFP: make(map[string]string), epochAt: make(map[string]msg.Loc),
		p2b: make(map[string]map[string]map[msg.Loc]bool),
	}
}

// Sets composes the invariants: the consensus modules' first, then the
// service's own. in-order steps before epoch-config (which reads the
// holes it found) and epoch-config before stale-quorum (which reads the
// view it folded).
func (c *Checks) Sets() []verify.Set {
	const fact = "initial member configuration"
	known := func() bool { return c.alpha != 0 }
	return []verify.Set{verify.Just(
		c.synod.Invariant(),
		c.twothird.Invariant(),
		verify.Invariant{Name: "broadcast/total-order", Step: c.totalOrder},
		verify.Invariant{Name: "broadcast/in-order-delivery", Step: c.inOrder},
		verify.Invariant{Name: "member/epoch-config", Needs: fact, Known: known, Step: c.epochConfig},
		verify.Invariant{Name: "member/stale-quorum", Needs: fact, Known: known, Step: c.staleQuorum},
	)}
}

// Slots is the number of group slots with an identified batch; Decided
// the number of consensus instances with a chosen value.
func (c *Checks) Slots() int   { return len(c.batch) }
func (c *Checks) Decided() int { return c.synod.Decided() + c.twothird.Decided() }

// Excuse announces that loc crashed and restarted. Its next delivery past
// the frontier re-baselines in-order-delivery instead of being a gap: the
// slots in between are recovered from its journal, catch-up or state
// transfer, none of which produce Deliver events. Nothing else is excused
// — not a reordering, a mismatched batch or an unjustified reply. A join
// needs no announcement: the ordered add admits its node (inOrder).
func (c *Checks) Excuse(loc msg.Loc) {
	c.rejoin[stream{loc, false}], c.rejoin[stream{loc, true}] = true, true
}

// delivers visits the Deliver e.Loc received, then each one it sent,
// with the addressee; it reports whether there was any.
func delivers(e *verify.Event, visit func(d Deliver, to msg.Loc, sent bool)) bool {
	any := false
	if d, ok := e.In.Body.(Deliver); ok && e.In.Hdr == HdrDeliver {
		visit(d, e.Loc, false)
		any = true
	}
	for _, o := range e.Outs {
		if d, ok := o.M.Body.(Deliver); ok && o.M.Hdr == HdrDeliver {
			visit(d, o.Dest, true)
			any = true
		}
	}
	return any
}

func groupKey(group string, n int) string { return group + "\x00" + strconv.Itoa(n) }

// totalOrder: within a group, every Deliver for a slot carries the same
// batch.
func (c *Checks) totalOrder(e *verify.Event) (inScope bool, bad []string) {
	inScope = delivers(e, func(d Deliver, to msg.Loc, sent bool) {
		// The first Deliver identifies the slot's batch; any later one —
		// same node or another — must match.
		k, id := groupKey(e.Group, d.Slot), BatchID(d.Msgs)
		prev, ok := c.batch[k]
		if ok && prev == id {
			return
		}
		who := string(to) + " received"
		if sent {
			who = string(e.Loc) + " sent " + string(to)
		}
		if !ok {
			c.batch[k], c.batchBy[k] = id, who
		} else {
			bad = append(bad, fmt.Sprintf("%s a batch for slot %d that differs from the one %s", who, d.Slot, c.batchBy[k]))
		}
	})
	return inScope, bad
}

// inOrder: the Deliver stream addressed to a node, as sent and as
// received, is ascending and gap-free; repeats are fine (several service
// nodes notify the same subscriber) and each hole is reported once. An
// announced restart excuses one jump, an ordered add admits its replica
// from the add's slot on, and a replica outside the initial
// configuration whose add the trace never shows (its own checker's)
// starts where it is first seen.
func (c *Checks) inOrder(e *verify.Event) (inScope bool, bad []string) {
	inScope = delivers(e, func(d Deliver, to msg.Loc, sent bool) {
		c.admit(d)
		s, slot := stream{to, sent}, int64(d.Slot)
		h, seen := c.high[s]
		if !seen {
			h = -1
		}
		if slot > h+1 {
			owed, admitted := c.joinAt[s]
			if !admitted {
				owed = h + 1
			}
			outsider := !admitted && !seen && c.alpha != 0 && !c.initial.HasReplica(to)
			if (slot < owed || !admitted) && !outsider && !c.rejoin[s] {
				verb := "received"
				if sent {
					verb = "was sent"
				}
				bad = append(bad, fmt.Sprintf("%s %s slot %d before slot %d", to, verb, slot, owed))
			}
			// The stream re-enters here either way, and what the node
			// received now has a hole: its own epoch derivation is off.
			h = slot - 1
			if !sent {
				c.partial[to] = true
				delete(c.locViews, string(to))
			}
		}
		if slot == h+1 {
			// The excuses are spent by the re-entry delivery itself (or a
			// contiguous resume when nothing was missed) — not by a duplicate
			// of an already-seen slot, which a healing partition can flush
			// out just before the node actually re-enters the stream.
			c.high[s] = slot
			delete(c.rejoin, s)
			delete(c.joinAt, s)
		}
	})
	return inScope, bad
}

// admit notes the replicas an ordered add in d admits: the streams
// addressed to each may start, or resume after a removal, at that slot or
// later. A stream already past the slot has entered since.
func (c *Checks) admit(d Deliver) {
	for _, b := range d.Msgs {
		cmd, ok := member.DecodeCommand(b.Payload)
		if !ok || cmd.Op != member.AddReplica {
			continue
		}
		for _, s := range []stream{{cmd.Node, false}, {cmd.Node, true}} {
			if h, seen := c.high[s]; !seen || h < int64(d.Slot) {
				c.joinAt[s] = int64(d.Slot)
			}
		}
	}
}

// epochConfig folds the member commands of the ordered batches into the
// shadow views — a group's canonical one from every Deliver sent or
// received, a location's own from what it received: every derivation of
// an epoch must produce the same configuration.
func (c *Checks) epochConfig(e *verify.Event) (inScope bool, bad []string) {
	derive := func(views map[string]*member.View, key string, cmd member.Command, slot int) {
		v := views[key]
		if v == nil {
			v = member.NewView(c.initial, c.alpha)
			views[key] = v
		}
		cfg, ok := v.Apply(cmd, slot)
		if !ok {
			return
		}
		k, fp := groupKey(e.Group, cfg.Epoch), cfg.Fingerprint()
		if prev, ok := c.epochFP[k]; !ok {
			c.epochFP[k], c.epochAt[k] = fp, e.Loc
		} else if prev != fp {
			bad = append(bad, fmt.Sprintf("%s derived config %q for epoch %d, conflicting with %q first derived at %s",
				e.Loc, fp, cfg.Epoch, prev, c.epochAt[k]))
		}
	}
	delivers(e, func(d Deliver, to msg.Loc, sent bool) {
		for _, b := range d.Msgs {
			cmd, ok := member.DecodeCommand(b.Payload)
			if !ok {
				continue
			}
			inScope = true
			derive(c.views, e.Group, cmd, d.Slot)
			if !sent && !c.partial[to] {
				derive(c.locViews, string(to), cmd, d.Slot)
			}
		}
	})
	return inScope, bad
}

// staleQuorum remembers the phase-2 acknowledgements a location receives
// and checks the first Decide it announces for an instance against the
// acceptor set of the epoch governing that instance. A certificate drawn
// from a superseded configuration — a commander that kept counting a
// quorum of the old acceptors after the epoch switched — is exactly the
// split-brain hazard dynamic membership introduces. Locations that
// re-announce a decision they learned (no recorded P2bs) are skipped.
func (c *Checks) staleQuorum(e *verify.Event) (inScope bool, bad []string) {
	if b, ok := e.In.Body.(synod.P2b); ok && e.In.Hdr == synod.HdrP2b {
		k := groupKey(string(e.Loc), b.Inst)
		if c.p2b[k] == nil {
			c.p2b[k] = make(map[string]map[msg.Loc]bool)
		}
		bal := b.B.String()
		if c.p2b[k][bal] == nil {
			c.p2b[k][bal] = make(map[msg.Loc]bool)
		}
		c.p2b[k][bal][b.From] = true
		inScope = true
	}
	for _, o := range e.Outs {
		inst, _, ok := synod.Decided(o.M.Hdr, o.M.Body)
		if !ok {
			continue
		}
		k := groupKey(string(e.Loc), inst)
		ballots, ok := c.p2b[k]
		if !ok {
			continue
		}
		delete(c.p2b, k)
		inScope = true
		v := c.views[e.Group]
		if v == nil {
			// No member command delivered yet: the initial epoch governs.
			v = member.NewView(c.initial, c.alpha)
		}
		accs := v.AcceptorsFor(inst)
		if !certified(ballots, accs) {
			bad = append(bad, fmt.Sprintf("%s decided instance %d without a single-ballot majority of epoch %d's acceptors %v",
				e.Loc, inst, v.EpochOf(inst).Epoch, accs))
		}
	}
	return inScope, bad
}

// certified reports whether some single ballot was acknowledged by a
// majority of accs.
func certified(ballots map[string]map[msg.Loc]bool, accs []msg.Loc) bool {
	for _, senders := range ballots {
		n := 0
		for _, a := range accs {
			if senders[a] {
				n++
			}
		}
		if n >= len(accs)/2+1 {
			return true
		}
	}
	return false
}
