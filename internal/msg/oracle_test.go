package msg_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/consensus/twothird"
	"shadowdb/internal/core"
	"shadowdb/internal/flow"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/shard"
	"shadowdb/internal/sqldb"
)

// The tests of this file and fuzz_test.go run the codecs the protocol
// packages register, over sample values of every registered body type.

func init() {
	// The oracle's gob round trip carries each sample in an interface,
	// so gob must know every sample type; the codec itself uses no gob.
	for _, body := range samples() {
		gob.Register(body)
	}
}

// everyKind is a []any holding each kind the codec carries, at the
// edges of its range.
var everyKind = []any{nil, int64(0), int64(-1), int64(math.MinInt64), int64(math.MaxInt64),
	0, math.MinInt, math.MaxInt, 0.0, -2.5, math.MaxFloat64, "", "ünï", false, true}

// samples returns sample bodies of every registered tag: each type's
// zero value, nil and empty slices, negative and extreme integers, and
// each []any kind.
func samples() []any {
	req := core.TxRequest{Client: "c1", Seq: math.MaxInt64, Type: "deposit", Args: everyKind, Deadline: -7}
	bc := broadcast.Bcast{From: "c1", Seq: 3, Payload: []byte("\x10\x00\xff"), Deadline: math.MaxInt64}
	ballot := synod.Ballot{N: -4, L: "b2"}
	return []any{
		core.TxRequest{}, core.TxRequest{Args: []any{}}, req,
		core.TxResult{},
		core.TxResult{Client: "c1", Seq: -1, Aborted: true, Err: "abort", Cols: []string{}, Rows: [][]sqldb.Value{}},
		core.TxResult{Client: "c1", Seq: 9, Cols: []string{"id", ""}, Rows: [][]sqldb.Value{{int64(1), "x"}, {}, nil, everyKind}},
		core.ReadRequest{},
		core.ReadRequest{Client: "c2", Seq: 1, Type: "balance", Args: []any{int64(1)}, Mode: core.ReadFollower},
		&core.ReadResult{},
		&core.ReadResult{Client: "c2", Seq: 5, Mode: core.ReadLease, Slot: -1, Issue: math.MinInt64, Rejected: true, Err: "no lease"},
		&core.ReadResult{Client: "c2", Seq: 6, Mode: core.ReadLease, Slot: 12, Issue: 99, Cols: []string{"balance"}, Vals: everyKind},
		core.Repl{}, core.Repl{CfgSeq: 2, Order: math.MaxInt64, Req: req},
		core.ReplAck{}, core.ReplAck{CfgSeq: -2, Order: 8, From: "r2"},
		core.Heartbeat{}, core.Heartbeat{Members: []msg.Loc{}},
		core.Heartbeat{From: "r1", CfgSeq: 3, Members: []msg.Loc{"r1", "", "r3"}, Stopped: true, Elected: true},
		core.CatchupReq{}, core.CatchupReq{CfgSeq: -1, From: "r2", After: math.MinInt64, Resync: true},
		core.Catchup{}, core.Catchup{Records: [][]byte{}},
		core.Catchup{CfgSeq: 4, Records: [][]byte{{}, nil, []byte("\x00rec\xff"), make([]byte, 300)}},
		core.SnapPart{}, core.SnapPart{Bytes: []byte{}},
		core.SnapPart{CfgSeq: -3, Xfer: math.MinInt64, N: 7, Of: 2, Bytes: []byte("SNP2\x00\xff")},
		core.SnapPart{CfgSeq: 5, Xfer: math.MaxInt64, N: -1, Of: math.MaxInt, Bytes: make([]byte, 300)},
		broadcast.Bcast{}, broadcast.Bcast{Payload: []byte{}}, bc,
		broadcast.Deliver{}, broadcast.Deliver{Msgs: []broadcast.Bcast{}},
		broadcast.Deliver{Slot: math.MaxInt, Msgs: []broadcast.Bcast{{}, bc, {From: "c2", Seq: -1}}},
		broadcast.Batch(nil), broadcast.Batch{}, batch16(),
		synod.Propose{}, synod.Propose{Inst: 7, Val: "v"},
		synod.P2a{}, synod.P2a{B: ballot, Inst: math.MinInt, Val: "\x00", From: "b1"},
		synod.P2b{}, synod.P2b{From: "b3", B: ballot, Inst: 4},
		synod.Decide{}, synod.Decide{Inst: -1, Val: "decided"},
		synod.P1a{}, synod.P1a{B: ballot, From: "b1"},
		flow.Reject{},
		flow.Reject{From: "b1", Seq: 4, Class: flow.ClassControl, Reason: flow.ReasonOverload, Depth: -1, Cap: math.MaxInt},
		shard.Prepare{}, shard.Prepare{Participants: []int{}, Sub: shard.SubTx{Reserve: map[string]int64{}, ApplyArgs: []any{}}},
		prepare(),
		shard.Decision{}, shard.Decision{TxID: "c1/9", Shard: -3, Coord: "rt1", Commit: true},
		core.Redirect{}, core.Redirect{Primary: "r2", CfgSeq: -1},
		core.Elect{}, core.Elect{CfgSeq: 3, From: "r3", Executed: math.MinInt64, HasData: true},
		core.Recovered{}, core.Recovered{CfgSeq: math.MaxInt, From: "r2"},
		core.ClientRetryBody{}, core.ClientRetryBody{Seq: -5},
		core.SubmitBody{}, core.SubmitBody{Args: []any{}}, core.SubmitBody{Type: "deposit", Args: everyKind},
		broadcast.Flush{}, broadcast.Flush{Gen: math.MinInt64},
		synod.P1b{}, synod.P1b{Accepted: []synod.PValue{}},
		synod.P1b{From: "b2", B: ballot, Accepted: []synod.PValue{{}, {B: ballot, Inst: math.MaxInt, Val: "\x00v"}}},
		synod.Adopted{}, synod.Adopted{B: ballot, Accepted: []synod.PValue{{B: ballot, Inst: -1, Val: "v"}}},
		synod.Preempted{}, synod.Preempted{B: ballot},
		synod.SpawnScout{}, synod.SpawnScout{B: ballot},
		synod.SpawnCmd{}, synod.SpawnCmd{B: ballot, Inst: 12, Val: "cmd"},
		synod.Wake{}, synod.Corrupt{},
		twothird.Propose{}, twothird.Propose{Inst: -2, Val: "p"},
		twothird.Vote{}, twothird.Vote{Inst: 3, Round: math.MaxInt, From: "b1", Val: "\xff"},
		twothird.Decide{}, twothird.Decide{Inst: math.MinInt, Val: "d"},
		shard.Vote{}, shard.Vote{TxID: "c1/9", Shard: 2, From: "s1r1", OK: true},
		shard.Ack{}, shard.Ack{TxID: "c1/9", Shard: -1, From: "s0r2"},
		shard.RetryBody{}, shard.RetryBody{TxID: "c1/9"},
		// A command needs a known op and a node, so it has no zero sample.
		commands[0], commands[1], commands[2], commands[3], member.Command{Op: member.AddReplica, Node: "\x00", Addr: "ünï"},
		core.LeaseRenewal{}, lease, core.LeaseRenewal{Epoch: math.MinInt, Holder: "", Issue: math.MaxInt64, Seq: math.MinInt64},
		core.NewConfig{}, core.NewConfig{Members: []msg.Loc{}}, proposal,
		core.NewConfig{OldSeq: math.MaxInt, Members: []msg.Loc{"", "r2"}, Proposer: ""},
	}
}

// deposit is the transaction the bank workloads send most.
var deposit = core.TxRequest{Client: "cli", Seq: 1, Type: "deposit", Args: []any{int64(7), int64(10)}}

// batch16 is a full batch of sixteen deposit broadcasts.
func batch16() broadcast.Batch {
	b := make(broadcast.Batch, 16)
	for i := range b {
		req := deposit
		req.Seq = int64(i + 1)
		p, err := core.EncodeTx(req)
		if err != nil {
			panic(err)
		}
		b[i] = broadcast.Bcast{From: "cli", Seq: int64(i + 1), Payload: p, Deadline: int64(i) * 1e9}
	}
	return b
}

// prepare is a cross-shard Prepare with every field set.
func prepare() shard.Prepare {
	return shard.Prepare{TxID: "c1/9", Coord: "rt1", Shard: 1, Participants: []int{0, 1, math.MaxInt},
		Req: core.TxRequest{Client: "c1", Seq: 9, Type: "transfer", Args: everyKind, Deadline: 5},
		Sub: shard.SubTx{Reserve: map[string]int64{"acct/7": 10, "": math.MinInt64, "acct/1": -1},
			Apply: "debit", ApplyArgs: everyKind}}
}

// gobRoundTrip is the oracle: what one-shot gob makes of the envelope.
func gobRoundTrip(t *testing.T, in msg.Envelope) msg.Envelope {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("gob encode %#v: %v", in.M.Body, err)
	}
	var out msg.Envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %#v: %v", in.M.Body, err)
	}
	return out
}

// TestCodecsAgainstGob is the differential oracle of the hand-written
// codecs: every sample decodes to exactly what a one-shot gob round trip
// of its envelope yields, and every registered tag has samples.
func TestCodecsAgainstGob(t *testing.T) {
	covered := map[reflect.Type]bool{}
	for _, body := range samples() {
		covered[reflect.TypeOf(body)] = true
		in := msg.Envelope{From: "a", To: "b", M: msg.M("hdr", body), Trace: "t", LC: 3, Deadline: -1}
		frame, err := msg.Encode(in)
		if err != nil {
			t.Fatalf("Encode %#v: %v", body, err)
		}
		got, err := msg.Decode(frame)
		if err != nil {
			t.Fatalf("Decode %#v: %v", body, err)
		}
		if want := gobRoundTrip(t, in); !reflect.DeepEqual(got, want) {
			t.Errorf("hand codec: %#v\n         gob: %#v", got.M.Body, want.M.Body)
		}
	}
	for _, wt := range msg.WireTags() {
		if !covered[wt.Type] && wt.Type.PkgPath() != "shadowdb/internal/msg" { // msg's own tests register one
			t.Errorf("tag %#x (%v) has no sample", wt.Tag, wt.Type)
		}
	}
}
