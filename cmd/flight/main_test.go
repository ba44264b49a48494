package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/flow"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/sqldb"
)

// The tests below go through the code path of `flight merge -check`
// (collect → report) over in-memory bundles. Each pins one way the
// deleted offline re-implementation of the invariants had drifted from
// the online checker; all three fail at the commit before the invariants
// were unified.

// bundlesOf builds per-node bundles from one global event list: events get
// increasing timestamps in list order and per-node ring sequences, the
// shape dumps of a DES run have.
func bundlesOf(events ...obs.Event) []*obs.Bundle {
	byNode := make(map[msg.Loc]*obs.Bundle)
	var out []*obs.Bundle
	for i, e := range events {
		b := byNode[e.Loc]
		if b == nil {
			b = &obs.Bundle{Meta: obs.BundleMeta{Node: e.Loc, Config: map[string]string{}}}
			byNode[e.Loc] = b
			out = append(out, b)
		}
		e.At, e.Seq = int64(i+1), int64(len(b.Trace))
		b.Trace = append(b.Trace, e)
	}
	return out
}

func step(loc msg.Loc, in msg.Msg, outs ...msg.Directive) obs.Event {
	return obs.Event{Loc: loc, Layer: obs.LayerRuntime, Kind: "step", Hdr: in.Hdr,
		Slot: obs.NoField, Ballot: obs.NoField, M: &in, Outs: outs}
}

func deliver(slot int, msgs ...broadcast.Bcast) msg.Msg {
	return msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: slot, Msgs: msgs})
}

func tx(t *testing.T, client msg.Loc, seq int64) broadcast.Bcast {
	t.Helper()
	pay, err := core.EncodeTx(core.TxRequest{Client: client, Seq: seq, Type: "deposit", Args: []any{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return broadcast.Bcast{From: client, Seq: seq, Payload: pay}
}

func ack(client msg.Loc, seq int64) msg.Directive {
	return msg.Send(client, msg.M(core.HdrTxResult, core.TxResult{Client: client, Seq: seq}))
}

var noop = msg.M("noop", nil)

// check runs the -check path and returns its output and verdict.
func check(bundles []*obs.Bundle) (string, error) {
	var buf bytes.Buffer
	err := report(&buf, collect(bundles), facts(bundles))
	return buf.String(), err
}

// Two shards number their slots and consensus instances independently:
// slot 0 of shard 0 and slot 0 of shard 1 carry different batches, and
// instance 0 decides a different value in each. The replay keys its
// state by shard.GroupOf, as the online checker does.
func TestCheckKeepsShardsApart(t *testing.T) {
	decide := func(val string) msg.Msg { return msg.M(synod.HdrDecide, synod.Decide{Inst: 0, Val: val}) }
	a, b := tx(t, "c1", 1), tx(t, "c2", 1)
	out, err := check(bundlesOf(
		step("s0b1", decide("x"), msg.Send("s0r1", deliver(0, a))),
		step("s0r1", deliver(0, a), ack("c1", 1)),
		step("s1b1", decide("y"), msg.Send("s1r1", deliver(0, b))),
		step("s1r1", deliver(0, b), ack("c2", 1)),
	))
	if err != nil {
		t.Fatalf("clean two-shard trace flagged: %v\n%s", err, out)
	}
}

// record is a journal record, as a peer serves it in a Catchup: the
// wire body of the unit, a broadcast.Deliver (SMR) or a core.Repl (PBR).
func record(t *testing.T, body any) []byte {
	t.Helper()
	rec, err := msg.AppendBody(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// headerPart is the first part of a state transfer from a replica whose
// newest result for client c1 is the one of its request seq.
func headerPart(t *testing.T, seq int64) msg.Msg {
	t.Helper()
	db, err := sqldb.Open("h2:mem:flight-xfer")
	if err != nil {
		t.Fatal(err)
	}
	if err := core.BankSetup(db, 2); err != nil {
		t.Fatal(err)
	}
	e := core.NewExecutor(db, core.BankRegistry())
	if _, err := e.Apply(1, core.TxRequest{Client: "c1", Seq: seq, Type: "deposit", Args: []any{1, 5}}); err != nil {
		t.Fatal(err)
	}
	parts, _ := e.SnapshotDirectives("r3", 0, 1)
	return parts[0].M
}

// A replica may acknowledge what reached it through journal catch-up or
// through the Recent results of a state transfer's header, not only
// live deliveries. A catch-up record that is not an SMR slot, or a
// header part that does not decode, credits nothing.
func TestCheckCreditsCatchupAndStateTransfer(t *testing.T) {
	one, two := tx(t, "c1", 1), tx(t, "c1", 2)
	catchup := msg.M(core.HdrCatchup, core.Catchup{Records: [][]byte{record(t, broadcast.Deliver{Slot: 1, Msgs: []broadcast.Bcast{two}})}})
	out, err := check(bundlesOf(
		step("r2", deliver(0, one), ack("c1", 1)),
		step("r2", catchup),
		step("r2", noop, ack("c1", 2)),
		step("r3", deliver(0, one)),
		step("r3", headerPart(t, 7)),
		step("r3", noop, ack("c1", 7)),
	))
	if err != nil {
		t.Fatalf("re-acks after catch-up and state transfer flagged: %v\n%s", err, out)
	}

	pbr := record(t, core.Repl{Order: 2, Req: core.TxRequest{Client: "c1", Seq: 2, Type: "deposit"}})
	junk := msg.M(core.HdrCatchup, core.Catchup{Records: [][]byte{pbr, []byte("not a journal record")}})
	out, err = check(bundlesOf(
		step("r2", deliver(0, one), ack("c1", 1)),
		step("r2", junk),
		step("r2", noop, ack("c1", 2)),
	))
	if err == nil || !strings.Contains(out, "VIOLATION: shadowdb/durability") {
		t.Fatalf("an ack credited by an undecodable catch-up record not flagged: err=%v\n%s", err, out)
	}

	hdr := headerPart(t, 7).Body.(core.SnapPart)
	hdr.Bytes = hdr.Bytes[:len(hdr.Bytes)-1]
	out, err = check(bundlesOf(
		step("r3", deliver(0, one)),
		step("r3", msg.M(core.HdrSnapPart, hdr)),
		step("r3", noop, ack("c1", 7)),
	))
	if err == nil || !strings.Contains(out, "VIOLATION: shadowdb/durability") {
		t.Fatalf("an ack credited by a cut state-transfer header not flagged: err=%v\n%s", err, out)
	}
}

// An acknowledgement that precedes its transaction's ordered delivery is
// the real durability bug; a replay that collects every delivery before
// judging any reply cannot see it.
func TestCheckFlagsAckBeforeDelivery(t *testing.T) {
	one, two := tx(t, "c1", 1), tx(t, "c1", 2)
	out, err := check(bundlesOf(
		step("r1", deliver(0, one), ack("c1", 1)),
		step("r1", noop, ack("c1", 2)), // slot 1 has not reached r1 yet
		step("r1", deliver(1, two)),
	))
	if err == nil || !strings.Contains(out, "VIOLATION: shadowdb/durability") {
		t.Fatalf("early acknowledgement not flagged as shadowdb/durability: err=%v\n%s", err, out)
	}
}

// -check says what it checked: a line per invariant that ran, with the
// events it saw, and a line per invariant whose deployment fact the
// bundles do not carry. A joiner the order admits enters mid-stream with
// no mark in any bundle.
func TestCheckReportsCoverage(t *testing.T) {
	one, two := tx(t, "c1", 1), tx(t, "c1", 2)
	out, err := check(bundlesOf(
		step("r1", deliver(0, one, addReplica("r4")), ack("c1", 1)),
		step("r1", deliver(1, two), ack("c1", 2)),
		step("r4", deliver(1, two)),
	))
	if err != nil {
		t.Fatalf("clean trace with an admitted joiner flagged: %v\n%s", err, out)
	}
	for _, want := range []string{
		"replay: checked broadcast/total-order over 3 events",
		"replay: checked shadowdb/durability over 2 events",
		"replay: checked shard/cross-atomicity over 0 events",
		"replay: skipped read/lease-expiry: lease window not in the bundles",
		"replay: skipped member/epoch-config: initial member configuration not in the bundles",
		"replay: skipped flow/queue-bound: queue bound not in the bundles",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	// The same trace without the add is a gap at r4.
	out, err = check(bundlesOf(
		step("r1", deliver(0, one), ack("c1", 1)),
		step("r1", deliver(1, two), ack("c1", 2)),
		step("r4", deliver(1, two)),
	))
	if err == nil || !strings.Contains(out, "VIOLATION: broadcast/in-order-delivery at r4") {
		t.Fatalf("a replica the order never admitted accepted mid-stream: err=%v\n%s", err, out)
	}
}

func addReplica(node msg.Loc) broadcast.Bcast {
	return broadcast.Bcast{From: "admin", Seq: 1, Payload: member.EncodeCommand(member.Command{Op: member.AddReplica, Node: node})}
}

// A live node's bundle records every setting (deploy.Node.Settings). With
// the topology file they name present, -check arms read/*, member/* and
// flow/* from them as the nodes' own checkers were armed — including the
// bound b1's queue reports under -max-inflight 1, which flow.NewQueue
// raises to 4.
func TestCheckArmsFromTheBundledSettings(t *testing.T) {
	topology := filepath.Join(t.TempDir(), "cluster.json")
	if err := (member.Topology{Nodes: map[string]string{"b1": "127.0.0.1:7101", "r1": "127.0.0.1:7001"}}).Save(topology); err != nil {
		t.Fatal(err)
	}
	renewal := broadcast.Bcast{From: "r1", Seq: 1, Payload: core.EncodeLease(core.LeaseRenewal{Holder: "r1"})}
	bundles := bundlesOf(
		step("b1", noop, msg.Send("c1", msg.M(flow.HdrReject,
			flow.Reject{From: "b1", Seq: 2, Class: flow.ClassWrite, Reason: flow.ReasonOverload, Depth: 3, Cap: 4}))),
		step("r1", deliver(0, renewal, tx(t, "c1", 1), addReplica("r4")), ack("c1", 1)),
		step("r1", noop, msg.Send("c1", msg.M(core.HdrReadResult, &core.ReadResult{Client: "c1", Seq: 3, Mode: core.ReadLease, Slot: 0}))),
	)
	for _, b := range bundles {
		n := deploy.Default()
		n.ID, n.Role, n.Topology, n.MaxInflight = string(b.Meta.Node), "broadcast", topology, 1
		if n.ID == "r1" {
			n.Role, n.Lease = "smr", true
		}
		b.Meta.Config = n.Settings()
	}
	out, err := check(bundles)
	if err != nil {
		t.Fatalf("clean live bundles flagged: %v\n%s", err, out)
	}
	for _, want := range []string{
		"replay: checked read/lease-linearizability over 1 events",
		"replay: checked read/lease-expiry over 1 events",
		"replay: checked read/follower-staleness over 0 events",
		"replay: checked member/epoch-config over 1 events",
		"replay: checked flow/queue-bound over 1 events",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// show prints the deployment a bundle came from: a node's recorder is
// handed every setting (deploy.Node.Settings), not a hand-picked few, so
// the lease window and the admission bound — what a replay needs to
// re-arm read/* and flow/* — are in the bundle.
func TestShowPrintsTheDeployment(t *testing.T) {
	n := deploy.Default()
	n.ID, n.Role, n.Lease, n.MaxInflight = "r1", "smr", true, 64
	rec, err := obs.NewRecorder(obs.New(16), t.TempDir(), "r1")
	if err != nil {
		t.Fatal(err)
	}
	rec.SetConfig(n.Settings())
	dir, err := rec.Dump("test")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := show(&buf, []string{dir}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"config   lease-dur=2s\n", "config   max-inflight=64\n", "config   lease=true\n",
		"config   role=smr\n", "config   joiner=false\n", "config   alpha=16\n", "config   module=paxos\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("show output lacks %q:\n%s", want, buf.String())
		}
	}
}
