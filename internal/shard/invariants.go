package shard

import (
	"fmt"
	"sort"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/msg"
	"shadowdb/internal/verify"
)

// The sharded deployment's runtime invariant, cross-shard atomicity:
// every participant that delivers a Decision for a distributed
// transaction delivers the same verdict, and a commit verdict only lands
// on a location that previously delivered the transaction's Prepare. It
// is stated once, as a step over verify.Event, and run by every driver
// (schedule explorer, online checker, offline replay; catalogue in
// DESIGN.md §4). It spans replication groups: the per-shard orders are independent, the
// 2PC records riding them are not. An abort without a prepare is
// legitimate — the coordinator aborts when a partitioned shard never saw
// the prepare — but a commit without one would apply effects the shard
// never voted for. (Prepared state itself is never revealed: replicas
// vote from their reservation ledger and only mutate the database at
// decision delivery, so a read served between the two can never observe
// a half-done transaction.)

// Checks holds the invariant's state.
type Checks struct {
	// prepared records, per location, the distributed transactions whose
	// Prepare was delivered there; decided the ones whose Decision was.
	prepared, decided map[msg.Loc]map[string]bool
	// outcome fixes the first delivered verdict per transaction; any
	// later conflicting verdict is the atomicity violation.
	outcome map[string]bool
}

// NewChecks creates the invariant's empty state.
func NewChecks() *Checks {
	return &Checks{
		prepared: make(map[msg.Loc]map[string]bool),
		decided:  make(map[msg.Loc]map[string]bool),
		outcome:  make(map[string]bool),
	}
}

// Set is the invariant as a step.
func (c *Checks) Set() verify.Set {
	return verify.Just(verify.Invariant{Name: "shard/cross-atomicity", Step: c.step})
}

// Decided is the number of distributed transactions with a delivered
// verdict.
func (c *Checks) Decided() int { return len(c.outcome) }

// Open lists the distributed transactions that some location delivered
// a prepare for without (yet) delivering the decision. After a drain the
// list must be empty: every prepared participant has learned the
// outcome, so no reservation is held forever.
func (c *Checks) Open() []string {
	open := make(map[string]bool)
	for loc, preps := range c.prepared {
		for id := range preps {
			if !c.decided[loc][id] {
				open[id] = true
			}
		}
	}
	out := make([]string, 0, len(open))
	for id := range open {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (c *Checks) step(e *verify.Event) (inScope bool, bad []string) {
	d, ok := e.In.Body.(broadcast.Deliver)
	if !ok || e.In.Hdr != broadcast.HdrDeliver {
		return false, nil
	}
	mark := func(m map[msg.Loc]map[string]bool, id string) {
		if m[e.Loc] == nil {
			m[e.Loc] = make(map[string]bool)
		}
		m[e.Loc][id] = true
	}
	for _, b := range d.Msgs {
		switch msg.PayloadTag(b.Payload) {
		case prepareTag:
			if p, err := msg.DecodeBody[Prepare](b.Payload); err == nil {
				inScope = true
				mark(c.prepared, p.TxID)
			}
		case decisionTag:
			dec, err := msg.DecodeBody[Decision](b.Payload)
			if err != nil {
				continue
			}
			inScope = true
			if prev, ok := c.outcome[dec.TxID]; !ok {
				c.outcome[dec.TxID] = dec.Commit
			} else if prev != dec.Commit {
				bad = append(bad, fmt.Sprintf("transaction %s decided both commit and abort across shards", dec.TxID))
			}
			if dec.Commit && !c.prepared[e.Loc][dec.TxID] {
				bad = append(bad, fmt.Sprintf("%s delivered a commit for %s without delivering its prepare", e.Loc, dec.TxID))
			}
			mark(c.decided, dec.TxID)
		}
	}
	return inScope, bad
}
