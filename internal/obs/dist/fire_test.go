package dist

import (
	"errors"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/consensus/twothird"
	"shadowdb/internal/core"
	"shadowdb/internal/flow"
	"shadowdb/internal/gpm"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/shard"
	"shadowdb/internal/verify"
)

// A checker that cannot fail certifies nothing. The table below holds,
// for every registered invariant, a minimal clean step sequence and a
// minimal violating one, and feeds each through all three drivers — the
// live Feed, the offline Collector replay, and the verify replay adapter
// the schedule explorer's properties use. The drivers must agree: clean
// everywhere, or flagged everywhere with the row's property first.

// act is one entry of a fixture: a process step, or (phase set) the
// bench marking a load phase between steps.
type act struct {
	loc   msg.Loc
	in    msg.Msg
	outs  []msg.Directive
	phase string
}

// fire is one table row.
type fire struct {
	inv   string // the registered invariant the row proves can fire
	label string
	// facts are the deployment facts the invariant needs; restart, when
	// set, is announced restarted before the steps.
	facts   Facts
	restart msg.Loc
	// clean must pass; clean followed by bad must be flagged as inv at
	// the last step's location.
	clean, bad []act
	// drain runs the drain-time checks after the steps, at the tick after
	// the last one (nil: none).
	drain func(c *Checker, now int64)
}

func on(loc msg.Loc, in msg.Msg, outs ...msg.Directive) act {
	return act{loc: loc, in: in, outs: outs}
}

var idle = msg.M("noop", nil)

func deliverMsg(slot int, msgs ...broadcast.Bcast) msg.Msg {
	return msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: slot, Msgs: msgs})
}

func bcastOf(from msg.Loc, seq int64, payload []byte) broadcast.Bcast {
	return broadcast.Bcast{From: from, Seq: seq, Payload: payload}
}

func txOf(t *testing.T, client msg.Loc, seq int64) broadcast.Bcast {
	t.Helper()
	pay, err := core.EncodeTx(core.TxRequest{Client: client, Seq: seq, Type: "deposit", Args: []any{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return bcastOf(client, seq, pay)
}

func ackOf(client msg.Loc, seq int64) msg.Directive {
	return msg.Send(client, msg.M(core.HdrTxResult, core.TxResult{Client: client, Seq: seq}))
}

func serve(mode core.ReadMode, slot int) msg.Directive {
	return msg.Send("c1", msg.M(core.HdrReadResult, &core.ReadResult{Client: "c1", Seq: 9, Mode: mode, Slot: slot}))
}

// The fixture clock: act i of a sequence happens at tick*(i+1).
const tick = 100

func fireTable(t *testing.T) []fire {
	initial := member.Config{Bcast: []msg.Loc{"b1", "b2", "b3"}, Replicas: []msg.Loc{"r1", "r2", "r3"}}
	membership := Facts{Initial: initial, Alpha: 4}
	memberCmd := func(seq int64, op member.Op, node msg.Loc) broadcast.Bcast {
		return bcastOf("admin", seq, member.EncodeCommand(member.Command{Op: op, Node: node}))
	}
	p2b := func(from msg.Loc, inst int) act {
		return on("b1", msg.M(synod.HdrP2b, synod.P2b{From: from, B: synod.Ballot{N: 1, L: "b1"}, Inst: inst}))
	}
	decides := func(inst int) act {
		return on("b1", msg.M(synod.HdrWake, synod.Wake{}),
			msg.Send("r1", msg.M(synod.HdrDecide, synod.Decide{Inst: inst, Val: "v"})))
	}
	renewal := bcastOf("r1", 1, core.EncodeLease(core.LeaseRenewal{Holder: "r1", Issue: 0, Seq: 1}))
	lease := Facts{LeaseDur: 5 * tick, MaxStale: 2 * tick}
	// r1 applies a renewal, then a write in slot 1, and acknowledges it.
	ackedWrite := []act{
		on("r1", deliverMsg(0, renewal)),
		on("r1", deliverMsg(1, txOf(t, "c1", 1)), ackOf("c1", 1)),
	}
	queue := Facts{MaxQueue: 8}
	submit := func(seq int64) act {
		return on("c0", idle, msg.Send("b1", msg.M(broadcast.HdrBcast, txOf(t, "c0", seq))))
	}
	reject := func(seq int64, depth, bound int) act {
		return on("b1", idle, msg.Send("c0", msg.M(flow.HdrReject,
			flow.Reject{From: "b1", Seq: seq, Class: flow.ClassWrite, Reason: flow.ReasonOverload, Depth: depth, Cap: bound})))
	}
	prepare := func(shardIdx int) broadcast.Bcast {
		// Both shards' slot-0 batches share one (from, seq) identity so the
		// row also passes the driver that has no group keying.
		return bcastOf("rt1", 1, shard.EncodePrepare(shard.Prepare{TxID: "c9/1", Coord: "rt1", Shard: shardIdx,
			Participants: []int{0, 1}, Sub: shard.SubTx{Apply: "deposit", ApplyArgs: []any{1, 1}}}))
	}
	decision := func(shardIdx int, commit bool) broadcast.Bcast {
		return bcastOf("rt1", 2, shard.EncodeDecision(shard.Decision{TxID: "c9/1", Shard: shardIdx, Coord: "rt1", Commit: commit}))
	}

	return []fire{
		{inv: "broadcast/total-order", label: "diverged receive",
			clean: []act{
				on("b1", idle, msg.Send("r1", deliverMsg(0, bcastOf("c1", 1, nil))), msg.Send("r2", deliverMsg(0, bcastOf("c1", 1, nil)))),
				on("r1", deliverMsg(0, bcastOf("c1", 1, nil))),
			},
			// Forged on the receive path: no send directive carries it.
			bad: []act{on("r2", deliverMsg(0, bcastOf("evil", 1, nil)))}},
		{inv: "broadcast/total-order", label: "diverged send",
			clean: []act{on("b1", idle, msg.Send("sub1", deliverMsg(0, bcastOf("c1", 1, nil))))},
			bad:   []act{on("b2", idle, msg.Send("sub2", deliverMsg(0, bcastOf("c2", 1, nil))))}},
		{inv: "broadcast/in-order-delivery", label: "reordered receive",
			clean: []act{on("r1", deliverMsg(0)), on("r1", deliverMsg(1)), on("r1", deliverMsg(0))},
			bad:   []act{on("r1", deliverMsg(3))}},
		{inv: "broadcast/in-order-delivery", label: "gap in what a subscriber is sent",
			clean: []act{on("b1", idle, msg.Send("sub1", deliverMsg(0))), on("b2", idle, msg.Send("sub1", deliverMsg(0)))},
			bad:   []act{on("b1", idle, msg.Send("sub1", deliverMsg(2)))}},
		{inv: "broadcast/in-order-delivery", label: "undeclared mid-run joiner",
			clean: []act{on("r1", deliverMsg(0)), on("r1", deliverMsg(1))},
			bad:   []act{on("r4", deliverMsg(1))}},
		{inv: "broadcast/in-order-delivery", label: "one hole, notified by three service nodes",
			clean: []act{on("r1", deliverMsg(0))},
			bad:   []act{on("r1", deliverMsg(2)), on("r1", deliverMsg(2)), on("r1", deliverMsg(2))}},
		{inv: "broadcast/in-order-delivery", label: "joiner admitted by an ordered add, then a real gap",
			// Nobody announces r4: the slot-0 add admits it, into what it is
			// sent and what it receives.
			clean: []act{
				on("b1", idle, msg.Send("r1", deliverMsg(0, memberCmd(1, member.AddReplica, "r4"))),
					msg.Send("r1", deliverMsg(1)), msg.Send("r4", deliverMsg(1))),
				on("r1", deliverMsg(0, memberCmd(1, member.AddReplica, "r4"))),
				on("r4", deliverMsg(1)),
				on("r4", deliverMsg(2)),
			},
			bad: []act{on("r4", deliverMsg(4))}},
		{inv: "broadcast/in-order-delivery", label: "location enters the order before the add that admits it",
			clean: []act{on("r1", deliverMsg(0)), on("r1", deliverMsg(1)),
				on("r1", deliverMsg(2, memberCmd(1, member.AddReplica, "r4")))},
			bad: []act{on("r4", deliverMsg(1))}},
		{inv: "broadcast/in-order-delivery", label: "announced restart, then a real gap",
			restart: "r1",
			clean:   []act{on("r1", deliverMsg(4)), on("r1", deliverMsg(5))},
			bad:     []act{on("r1", deliverMsg(9))}},
		{inv: "consensus/single-value-per-slot", label: "synod",
			clean: []act{
				on("b1", idle, msg.Send("r1", msg.M(synod.HdrDecide, synod.Decide{Inst: 0, Val: "v"}))),
				on("b2", msg.M(synod.HdrDecide, synod.Decide{Inst: 0, Val: "v"})),
			},
			bad: []act{on("b3", idle, msg.Send("r1", msg.M(synod.HdrDecide, synod.Decide{Inst: 0, Val: "w"})))}},
		{inv: "consensus/single-value-per-slot", label: "twothird",
			clean: []act{on("n1", idle, msg.Send("n2", msg.M(twothird.HdrDecide, twothird.Decide{Inst: 3, Val: "v"})))},
			bad:   []act{on("n2", msg.M(twothird.HdrDecide, twothird.Decide{Inst: 3, Val: "w"}))}},
		{inv: "member/epoch-config", label: "same batch identity, different command",
			facts: membership,
			clean: []act{
				on("r1", deliverMsg(0, memberCmd(1, member.AddAcceptor, "b4"))),
				on("r2", deliverMsg(0, memberCmd(1, member.AddAcceptor, "b4"))),
			},
			bad: []act{on("r3", deliverMsg(0, memberCmd(1, member.AddAcceptor, "b9")))}},
		{inv: "member/stale-quorum", label: "majority of the superseded acceptor set",
			facts: membership,
			// The add-acceptor command lands in slot 0: epoch 1 ({b1..b4},
			// majority 3) governs instances from slot 4 on. Instance 2 is
			// still epoch 0's (two of three suffice); instance 11 gets three
			// of the four; instance 10 only two old-set acknowledgements.
			clean: []act{
				on("r1", deliverMsg(0, memberCmd(1, member.AddAcceptor, "b4"))),
				p2b("b2", 2), p2b("b3", 2), decides(2),
				p2b("b1", 11), p2b("b2", 11), p2b("b4", 11), decides(11),
			},
			bad: []act{p2b("b1", 10), p2b("b2", 10), decides(10)}},
		{inv: "shadowdb/durability", label: "acknowledged from thin air",
			clean: []act{on("r1", deliverMsg(0, txOf(t, "c1", 1)), ackOf("c1", 1)), on("r1", idle, ackOf("c1", 1))},
			bad:   []act{on("r1", idle, ackOf("c9", 99))}},
		{inv: "read/lease-linearizability", label: "serve behind an acknowledged write",
			facts: lease, clean: append(ackedWrite, on("r1", idle, serve(core.ReadLease, 1))),
			bad: []act{on("r1", idle, serve(core.ReadLease, 0))}},
		{inv: "read/lease-expiry", label: "serve past the last delivered renewal's window",
			facts: lease, clean: append(ackedWrite, on("r1", idle, serve(core.ReadLease, 1))),
			bad: []act{on("r1", idle), on("r1", idle), on("r1", idle, serve(core.ReadLease, 1))}},
		{inv: "read/follower-staleness", label: "follower misses an old acknowledged write",
			facts: lease, clean: append(ackedWrite, on("r2", idle, serve(core.ReadFollower, 0))), // acked < MaxStale ago
			bad: []act{on("r2", idle), on("r2", idle, serve(core.ReadFollower, 0))}},
		{inv: "flow/terminal-outcome", label: "admitted request vanishes",
			facts: queue, drain: func(c *Checker, now int64) { c.FinishFlow(now) },
			clean: []act{submit(1), on("r1", idle, ackOf("c0", 1)), submit(2), reject(2, 8, 8)},
			bad:   []act{submit(3)}},
		{inv: "flow/queue-bound", label: "occupancy over the queue's own bound",
			facts: queue, clean: []act{submit(1), reject(1, 8, 8)},
			bad: []act{reject(2, 9, 8)}},
		{inv: "flow/queue-bound", label: "bound over the configured maximum",
			facts: queue, clean: []act{submit(1), reject(1, 3, 8)},
			bad: []act{reject(2, 3, 16)}},
		{inv: "flow/goodput-floor", label: "overload collapses goodput",
			facts: queue,
			drain: func(c *Checker, now int64) { c.FinishFlow(now); c.CheckGoodputFloor("1x", "16x", 0.6) },
			// Equal windows; 1x completes two requests. A 16x phase that
			// also completes two holds the floor, one that completes none
			// does not. (clean+bad replays clean's phases first, so bad's
			// 16x re-mark starts the phase the verdict is about.)
			clean: []act{{phase: "1x"}, submit(1), on("r1", idle, ackOf("c0", 1)), submit(2), on("r1", idle, ackOf("c0", 2)),
				{phase: "16x"}, submit(3), on("r1", idle, ackOf("c0", 3)), submit(4), on("r1", idle, ackOf("c0", 4))},
			bad: []act{{phase: "1x"}, submit(5), on("r1", idle, ackOf("c0", 5)), submit(6), on("r1", idle, ackOf("c0", 6)),
				{phase: "16x"}, on("r1", idle), on("r1", idle), on("r1", idle), on("r1", idle)}},
		{inv: "shard/cross-atomicity", label: "commit without prepare",
			clean: []act{
				on("s0r1", deliverMsg(0, prepare(0))), on("s1r1", deliverMsg(0, prepare(1))),
				on("s0r1", deliverMsg(1, decision(0, true))), on("s1r1", deliverMsg(1, decision(1, true))),
			},
			// s1r2 delivers the agreed batches, but its copy of slot 0 lost
			// the prepare.
			bad: []act{on("s1r2", deliverMsg(0, bcastOf("rt1", 1, nil))), on("s1r2", deliverMsg(1, decision(1, true)))}},
		{inv: "shard/cross-atomicity", label: "conflicting verdicts",
			clean: []act{
				on("s0r1", deliverMsg(0, prepare(0))), on("s1r1", deliverMsg(0, prepare(1))),
				on("s0r1", deliverMsg(1, decision(0, false))),
			},
			bad: []act{on("s1r1", deliverMsg(1, decision(1, true)))}},
	}
}

// The three drivers. Each returns the violations of feeding acts to a
// checker that knows the row's facts, including its drain checks.
var drivers = []struct {
	name string
	run  func(*fire, []act) []Violation
}{
	{"online Feed", func(f *fire, acts []act) []Violation {
		ck := f.checker()
		for i, a := range acts {
			if a.phase != "" {
				ck.NoteFlowPhase(a.phase, at(i))
				continue
			}
			ck.Feed(a.event(i))
		}
		return f.drained(ck, at(len(acts)))
	}},
	{"offline Collector replay", func(f *fire, acts []act) []Violation {
		// Per-node downloads, re-sequenced per node as a ring does, merged
		// and replayed; a phase mark cuts the trace into two collections.
		ck := f.checker()
		coll := NewCollector()
		seq := make(map[msg.Loc]int64)
		flush := func() {
			ck.FeedAll(coll.Collect().Merged)
			coll, seq = NewCollector(), make(map[msg.Loc]int64)
		}
		for i, a := range acts {
			if a.phase != "" {
				flush()
				ck.NoteFlowPhase(a.phase, at(i))
				continue
			}
			e := a.event(i)
			e.Seq = seq[a.loc]
			seq[a.loc]++
			coll.Add(string(a.loc), append(coll.nodes[string(a.loc)], e))
		}
		flush()
		return f.drained(ck, at(len(acts)))
	}},
	{"verify replay adapter", func(f *fire, acts []act) []Violation {
		ck := f.checker()
		var vs []Violation
		var trace []gpm.TraceEntry
		flush := func() {
			var v Violation
			if err := verify.CheckTrace(trace, ck.sets()...); errors.As(err, &v) {
				vs = append(vs, v)
			}
			trace = nil
		}
		for i, a := range acts {
			if a.phase != "" {
				flush()
				ck.NoteFlowPhase(a.phase, at(i))
				continue
			}
			trace = append(trace, gpm.TraceEntry{At: time.Duration(at(i)), Loc: a.loc, In: a.in, Outs: a.outs, CausedBy: -1})
		}
		flush()
		return append(vs, f.drained(ck, at(len(acts)))...)
	}},
}

func at(i int) int64 { return int64(tick * (i + 1)) }

func (a act) event(i int) obs.Event {
	in := a.in
	return obs.Event{At: at(i), Loc: a.loc, Layer: obs.LayerRuntime, Kind: "step", Hdr: in.Hdr,
		Slot: obs.NoField, Ballot: obs.NoField, M: &in, Outs: a.outs}
}

func (f *fire) checker() *Checker {
	ck := NewChecker(f.facts)
	if f.restart != "" {
		ck.NoteRestart(f.restart)
	}
	return ck
}

func (f *fire) drained(ck *Checker, now int64) []Violation {
	if f.drain != nil {
		f.drain(ck, now)
	}
	return ck.Violations()
}

func TestEveryInvariantFiresThroughEveryDriver(t *testing.T) {
	table := fireTable(t)
	covered := make(map[string]bool)
	for i := range table {
		f := &table[i]
		covered[f.inv] = true
		t.Run(f.inv+"/"+f.label, func(t *testing.T) {
			violating := append(append([]act(nil), f.clean...), f.bad...)
			for _, d := range drivers {
				if vs := d.run(f, f.clean); len(vs) != 0 {
					t.Errorf("%s: clean sequence flagged: %v", d.name, vs)
				}
				vs := d.run(f, violating)
				if len(vs) == 0 {
					t.Errorf("%s: violating sequence not flagged", d.name)
					continue
				}
				if len(vs) != 1 || vs[0].Property != f.inv {
					t.Errorf("%s: flagged %v, want exactly one %s violation", d.name, vs, f.inv)
				}
				if f.drain == nil && vs[0].Loc != f.bad[len(f.bad)-1].loc {
					t.Errorf("%s: flagged at %s, want at the violating step's %s", d.name, vs[0].Loc, f.bad[len(f.bad)-1].loc)
				}
			}
		})
	}
	// Every registered invariant must have a row: a new property lands
	// with the proof that it can fire, or this fails.
	for _, inv := range NewChecker(Facts{}).Status().Invariants {
		if !covered[inv.Name] {
			t.Errorf("registered invariant %s has no fixture in the fire table", inv.Name)
		}
	}
}
