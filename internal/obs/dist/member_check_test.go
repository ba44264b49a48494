package dist_test

import (
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

// mDeliver builds a checker event for loc receiving one ordered batch
// in slot.
func mDeliver(loc msg.Loc, slot int, msgs []broadcast.Bcast) obs.Event {
	return obs.Event{
		Loc: loc, At: int64(slot), Slot: obs.NoField, Ballot: obs.NoField,
		M: &msg.Msg{Hdr: broadcast.HdrDeliver, Body: broadcast.Deliver{Slot: slot, Msgs: msgs}},
	}
}

// Back-to-back restarts inside one excuse window: the second
// announcement before any re-entry delivery collapses into the first —
// the node still gets exactly one re-baseline, and the next unannounced
// gap is flagged.
func TestCheckerNoteRestartBackToBack(t *testing.T) {
	ck := dist.NewChecker(dist.Facts{})
	ck.Feed(mDeliver("r1", 0, nil))
	ck.Feed(mDeliver("r1", 1, nil))

	ck.NoteRestart("r1")
	ck.NoteRestart("r1") // crashed again before delivering anything
	ck.Feed(mDeliver("r1", 6, nil))
	if err := ck.Err(); err != nil {
		t.Fatalf("re-entry after back-to-back restarts flagged: %v", err)
	}

	// Both announcements were spent on the single re-entry: a second
	// jump without a new announcement is a real gap.
	ck.Feed(mDeliver("r1", 9, nil))
	if err := ck.Err(); err == nil {
		t.Fatal("gap after consumed back-to-back excuse not flagged")
	}
}

// A restart concurrent with a partition heal: the healing links flush
// duplicates of slots the node already delivered before the node
// re-enters the stream. The duplicates must not consume the restart
// excuse, and the eventual re-entry jump must not be flagged.
func TestCheckerNoteRestartAcrossPartitionHeal(t *testing.T) {
	ck := dist.NewChecker(dist.Facts{})
	ck.Feed(mDeliver("r1", 0, nil))
	ck.Feed(mDeliver("r1", 1, nil))
	ck.Feed(mDeliver("r1", 2, nil))

	ck.NoteRestart("r1")
	// Heal flushes re-sends of old slots first (several service nodes
	// notify the same subscriber; the restarted node sees stale copies).
	ck.Feed(mDeliver("r1", 1, nil))
	ck.Feed(mDeliver("r1", 2, nil))
	if err := ck.Err(); err != nil {
		t.Fatalf("duplicate deliveries after restart flagged: %v", err)
	}
	// The actual re-entry, past the slots recovered from the journal.
	ck.Feed(mDeliver("r1", 8, nil))
	if err := ck.Err(); err != nil {
		t.Fatalf("re-entry after heal-time duplicates flagged: %v", err)
	}
	// Excuse consumed: the next jump is real.
	ck.Feed(mDeliver("r1", 12, nil))
	if err := ck.Err(); err == nil {
		t.Fatal("gap after consumed excuse not flagged")
	}
}

// Restarting the node whose deliveries established the checker's batch
// fingerprints must not reset cross-node state: fingerprints recorded
// before the restart still bind every other node, and the restarted
// feed node itself is re-checked against them after its re-entry.
func TestCheckerNoteRestartOfFeedNode(t *testing.T) {
	batch := func(from msg.Loc, seq int64) []broadcast.Bcast {
		return []broadcast.Bcast{{From: from, Seq: seq}}
	}
	ck := dist.NewChecker(dist.Facts{})
	// r1 is the first deliverer everywhere: it establishes the
	// fingerprint for slots 0 and 1.
	ck.Feed(mDeliver("r1", 0, batch("c0", 1)))
	ck.Feed(mDeliver("r1", 1, batch("c0", 2)))
	ck.Feed(mDeliver("r2", 0, batch("c0", 1)))

	ck.NoteRestart("r1")
	ck.Feed(mDeliver("r1", 3, batch("c1", 7)))
	if err := ck.Err(); err != nil {
		t.Fatalf("feed node re-entry flagged: %v", err)
	}

	// Slot 1's fingerprint survived r1's restart: r2 disagreeing with it
	// is still a total-order violation.
	ck.Feed(mDeliver("r2", 1, batch("cX", 99)))
	vs := ck.Violations()
	if len(vs) != 1 || vs[0].Property != "broadcast/total-order" {
		t.Fatalf("pre-restart fingerprint not enforced: %v", vs)
	}
}

// A joiner's own checker never sees the slot whose add admitted it: a
// replica outside the initial configuration enters the order where its
// trace starts, a charter replica must start at slot 0, and either is
// held to a gap-free stream from there.
func TestCheckerJoinersOwnTrace(t *testing.T) {
	facts := dist.Facts{Initial: member.Config{Bcast: []msg.Loc{"b1"}, Replicas: []msg.Loc{"r1"}}, Alpha: 4}
	joiner := dist.NewChecker(facts)
	joiner.Feed(mDeliver("r4", 7, nil))
	joiner.Feed(mDeliver("r4", 8, nil))
	if err := joiner.Err(); err != nil {
		t.Fatalf("joiner's entry flagged: %v", err)
	}
	joiner.Feed(mDeliver("r4", 10, nil))
	if err := joiner.Err(); err == nil {
		t.Fatal("gap after the joiner's entry not flagged")
	}

	charter := dist.NewChecker(facts)
	charter.Feed(mDeliver("r1", 7, nil))
	if err := charter.Err(); err == nil {
		t.Fatal("charter replica starting at slot 7 not flagged")
	}
}

// A service node's own checker sees the order only as the Deliver
// batches it sends: the member commands in them govern the quorums of
// its later decisions. Instance 20 is epoch 2's ({b1..b5}, majority 3),
// certified by b1, b4 and b5 — one of the initial three.
func TestCheckerServiceNodeFoldsWhatItSends(t *testing.T) {
	initial := member.Config{Bcast: []msg.Loc{"b1", "b2", "b3"}, Replicas: []msg.Loc{"r1"}}
	add := func(seq int64, node msg.Loc) []broadcast.Bcast {
		return []broadcast.Bcast{{From: "admin", Seq: seq, Payload: member.EncodeCommand(member.Command{Op: member.AddAcceptor, Node: node})}}
	}
	bal := synod.Ballot{N: 1, L: "b1"}
	ck := dist.NewChecker(dist.Facts{Initial: initial, Alpha: 4})
	ck.Feed(obs.Event{Loc: "b1", M: &msg.Msg{Hdr: synod.HdrWake, Body: synod.Wake{}}, Outs: []msg.Directive{
		msg.Send("r1", msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: 0, Msgs: add(1, "b4")})),
		msg.Send("r1", msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: 1, Msgs: add(2, "b5")})),
	}})
	for _, a := range []msg.Loc{"b1", "b4", "b5"} {
		ck.Feed(obs.Event{Loc: "b1", M: &msg.Msg{Hdr: synod.HdrP2b, Body: synod.P2b{From: a, B: bal, Inst: 20}}})
	}
	ck.Feed(obs.Event{Loc: "b1", M: &msg.Msg{Hdr: synod.HdrWake, Body: synod.Wake{}},
		Outs: []msg.Directive{msg.Send("r1", msg.M(synod.HdrDecide, synod.Decide{Inst: 20, Val: "v"}))}})
	if err := ck.Err(); err != nil {
		t.Fatalf("epoch-2 quorum judged against a stale view: %v", err)
	}
}

// member/epoch-config: a node that folds the agreed command stream into
// a different configuration for an epoch is caught even when the batch
// identity (sender/sequence) matches what everyone else delivered.
func TestCheckerEpochConfigConflict(t *testing.T) {
	initial := member.Config{
		Bcast:    []msg.Loc{"b1", "b2", "b3"},
		Replicas: []msg.Loc{"r1", "r2", "r3"},
	}
	good := broadcast.Bcast{From: "admin", Seq: 1, Payload: member.EncodeCommand(member.Command{Op: member.AddAcceptor, Node: "b4"})}
	// Same batch identity, different command: batchFingerprint cannot
	// tell them apart, the epoch derivation can.
	evil := broadcast.Bcast{From: "admin", Seq: 1, Payload: member.EncodeCommand(member.Command{Op: member.AddAcceptor, Node: "b9"})}

	ck := dist.NewChecker(dist.Facts{Initial: initial, Alpha: 4})
	ck.Feed(mDeliver("r1", 0, []broadcast.Bcast{good}))
	ck.Feed(mDeliver("r2", 0, []broadcast.Bcast{good}))
	if err := ck.Err(); err != nil {
		t.Fatalf("agreeing derivations flagged: %v", err)
	}
	ck.Feed(mDeliver("r3", 0, []broadcast.Bcast{evil}))
	vs := ck.Violations()
	if len(vs) != 1 || vs[0].Property != "member/epoch-config" {
		t.Fatalf("conflicting epoch config not flagged: %v", vs)
	}
}

// member/stale-quorum: a Decide certified by a majority of a superseded
// acceptor set — but not of the epoch governing the instance — is
// flagged; a certificate that satisfies the governing epoch is not.
func TestCheckerStaleQuorum(t *testing.T) {
	initial := member.Config{
		Bcast:    []msg.Loc{"b1", "b2", "b3"},
		Replicas: []msg.Loc{"r1", "r2", "r3"},
	}
	add := broadcast.Bcast{From: "admin", Seq: 1, Payload: member.EncodeCommand(member.Command{Op: member.AddAcceptor, Node: "b4"})}
	bal := synod.Ballot{N: 1, L: "b1"}
	p2b := func(from msg.Loc, inst int) obs.Event {
		return obs.Event{
			Loc: "b1", At: 1, Slot: obs.NoField, Ballot: obs.NoField,
			M: &msg.Msg{Hdr: synod.HdrP2b, Body: synod.P2b{From: from, B: bal, Inst: inst}},
		}
	}
	decide := func(inst int) obs.Event {
		return obs.Event{
			Loc: "b1", At: 2, Slot: obs.NoField, Ballot: obs.NoField,
			M: &msg.Msg{Hdr: synod.HdrWake, Body: synod.Wake{}},
			Outs: []msg.Directive{
				msg.Send("r1", msg.M(synod.HdrDecide, synod.Decide{Inst: inst, Val: "v"})),
			},
		}
	}

	ck := dist.NewChecker(dist.Facts{Initial: initial, Alpha: 4})
	// The add-acceptor command lands in slot 0: epoch 1 ({b1..b4},
	// majority 3) governs instances from slot 4 on.
	ck.Feed(mDeliver("r1", 0, []broadcast.Bcast{add}))

	// Instance 10 decided off two old-set acks: majority of {b1,b2,b3},
	// not of the governing four.
	ck.Feed(p2b("b1", 10))
	ck.Feed(p2b("b2", 10))
	ck.Feed(decide(10))
	vs := ck.Violations()
	if len(vs) != 1 || vs[0].Property != "member/stale-quorum" {
		t.Fatalf("stale quorum not flagged: %v", vs)
	}

	// Instance 11 certified by three of epoch 1's four acceptors: clean.
	ck2 := dist.NewChecker(dist.Facts{Initial: initial, Alpha: 4})
	ck2.Feed(mDeliver("r1", 0, []broadcast.Bcast{add}))
	for _, a := range []msg.Loc{"b1", "b2", "b4"} {
		ck2.Feed(p2b(a, 11))
	}
	ck2.Feed(decide(11))
	if err := ck2.Err(); err != nil {
		t.Fatalf("valid epoch-1 quorum flagged: %v", err)
	}

	// Instances before the activation slot are still governed by epoch
	// 0: two of three old acceptors suffice.
	ck3 := dist.NewChecker(dist.Facts{Initial: initial, Alpha: 4})
	ck3.Feed(mDeliver("r1", 0, []broadcast.Bcast{add}))
	ck3.Feed(p2b("b2", 2))
	ck3.Feed(p2b("b3", 2))
	ck3.Feed(decide(2))
	if err := ck3.Err(); err != nil {
		t.Fatalf("epoch-0 quorum before activation flagged: %v", err)
	}
}
