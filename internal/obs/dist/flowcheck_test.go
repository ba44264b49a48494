package dist_test

import (
	"strings"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/flow"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

// flowEvent wraps one outgoing directive as a minimal checker event at
// loc — the shape the flow accounting consumes.
func flowEvent(at int64, loc msg.Loc, out msg.Directive) obs.Event {
	m := msg.M("noop", nil)
	return obs.Event{
		Seq: at, At: at, Loc: loc, Layer: obs.LayerRuntime, Kind: "step",
		Hdr: "noop", Slot: obs.NoField, Ballot: obs.NoField,
		M: &m, Outs: []msg.Directive{out},
	}
}

// submitEvent is a client submitting a transaction as a broadcast.
func submitEvent(t *testing.T, at int64, cli msg.Loc, seq, deadline int64) obs.Event {
	t.Helper()
	pay, err := core.EncodeTx(core.TxRequest{Client: cli, Seq: seq, Type: "deposit", Args: []any{1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	return flowEvent(at, cli, msg.Send("b1", msg.M(broadcast.HdrBcast,
		broadcast.Bcast{From: cli, Seq: seq, Payload: pay, Deadline: deadline})))
}

// resultEvent is a replica answering a client request.
func resultEvent(at int64, cli msg.Loc, seq int64, aborted bool) obs.Event {
	return flowEvent(at, "r1", msg.Send(cli, msg.M(core.HdrTxResult,
		core.TxResult{Client: cli, Seq: seq, Aborted: aborted})))
}

func TestCheckerFlowTerminalOutcome(t *testing.T) {
	ck := dist.NewChecker(dist.Facts{MaxQueue: 8})
	ck.Feed(submitEvent(t, 1, "c0", 1, 0))   // answered below
	ck.Feed(submitEvent(t, 2, "c0", 2, 0))   // vanishes — must be flagged
	ck.Feed(submitEvent(t, 3, "c0", 3, 500)) // vanishes but deadline passes — excused
	ck.Feed(resultEvent(4, "c0", 1, false))
	if n := ck.OpenFlows(); n != 2 {
		t.Fatalf("open flows = %d, want 2", n)
	}
	ck.FinishFlow(1000)
	vs := ck.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	if vs[0].Property != "flow/terminal-outcome" || !strings.Contains(vs[0].Detail, "c0/2") {
		t.Fatalf("flagged %+v, want flow/terminal-outcome for c0/2", vs[0])
	}
}

func TestCheckerFlowRejectClosesAndAudits(t *testing.T) {
	ck := dist.NewChecker(dist.Facts{MaxQueue: 8})
	ck.Feed(submitEvent(t, 1, "c0", 1, 0))
	// A well-formed rejection closes the flow as shed: no violation.
	ck.Feed(flowEvent(2, "b1", msg.Send("c0", msg.M(flow.HdrReject,
		flow.Reject{From: "b1", Seq: 1, Class: flow.ClassWrite, Reason: flow.ReasonOverload, Depth: 8, Cap: 8}))))
	ck.FinishFlow(100)
	if vs := ck.Violations(); len(vs) != 0 {
		t.Fatalf("clean shed flagged: %v", vs)
	}

	// Depth over the queue's own bound, and a bound over the configured
	// maximum, are both admission-accounting leaks.
	ck2 := dist.NewChecker(dist.Facts{MaxQueue: 8})
	ck2.Feed(flowEvent(1, "b1", msg.Send("c0", msg.M(flow.HdrReject,
		flow.Reject{From: "b1", Seq: 1, Reason: flow.ReasonOverload, Depth: 9, Cap: 8}))))
	ck2.Feed(flowEvent(2, "b1", msg.Send("c0", msg.M(flow.HdrReject,
		flow.Reject{From: "b1", Seq: 2, Reason: flow.ReasonOverload, Depth: 3, Cap: 16}))))
	vs := ck2.Violations()
	if len(vs) != 2 {
		t.Fatalf("violations = %v, want two flow/queue-bound", vs)
	}
	for _, v := range vs {
		if v.Property != "flow/queue-bound" {
			t.Fatalf("flagged %+v, want flow/queue-bound", v)
		}
	}
}

func TestCheckerGoodputFloor(t *testing.T) {
	ck := dist.NewChecker(dist.Facts{MaxQueue: 8})
	ck.NoteFlowPhase("1x", 0)
	for i := int64(1); i <= 4; i++ {
		ck.Feed(submitEvent(t, i, "c0", i, 0))
		ck.Feed(resultEvent(i+10, "c0", i, false))
	}
	ck.NoteFlowPhase("16x", 100)
	// Same window length, one completion vs four: 25% goodput.
	ck.Feed(submitEvent(t, 101, "c0", 50, 0))
	ck.Feed(resultEvent(110, "c0", 50, false))
	ck.Feed(submitEvent(t, 102, "c0", 51, 190))
	ck.FinishFlow(200)
	if vs := ck.Violations(); len(vs) != 0 {
		t.Fatalf("drain flagged unexpectedly: %v", vs)
	}

	ck.CheckGoodputFloor("1x", "16x", 0.2) // 25% >= 20%: holds
	if vs := ck.Violations(); len(vs) != 0 {
		t.Fatalf("floor 0.2 flagged: %v", vs)
	}
	ck.CheckGoodputFloor("1x", "16x", 0.6) // 25% < 60%: violated
	vs := ck.Violations()
	if len(vs) != 1 || vs[0].Property != "flow/goodput-floor" {
		t.Fatalf("violations = %v, want one flow/goodput-floor", vs)
	}

	phases := ck.FlowPhases()
	if len(phases) != 2 {
		t.Fatalf("phases = %+v, want 2", phases)
	}
	if p := phases[0]; p.Name != "1x" || p.Submitted != 4 || p.Completed != 4 || p.To != 100 {
		t.Errorf("phase 1x = %+v", p)
	}
	if p := phases[1]; p.Submitted != 2 || p.Completed != 1 || p.To != 200 {
		t.Errorf("phase 16x = %+v", p)
	}
}

func TestCheckerFlowDedupesRetransmissions(t *testing.T) {
	ck := dist.NewChecker(dist.Facts{MaxQueue: 8})
	ck.NoteFlowPhase("p", 0)
	ck.Feed(submitEvent(t, 1, "c0", 1, 0))
	ck.Feed(submitEvent(t, 2, "c0", 1, 0)) // client retransmission
	ck.Feed(resultEvent(3, "c0", 1, false))
	ck.Feed(resultEvent(4, "c0", 1, false)) // duplicate answer
	ck.FinishFlow(100)
	if vs := ck.Violations(); len(vs) != 0 {
		t.Fatalf("retransmissions flagged: %v", vs)
	}
	p := ck.FlowPhases()[0]
	if p.Submitted != 1 || p.Completed != 1 {
		t.Fatalf("phase = %+v, want Submitted=1 Completed=1", p)
	}
}

// TestCheckerFlowCleanOnSeededRun feeds the reference SMR trace with the
// flow properties armed: a healthy run must not trip them, and every
// submission must resolve.
func TestCheckerFlowCleanOnSeededRun(t *testing.T) {
	events := seededSMREvents(t)
	ck := dist.NewChecker(dist.Facts{MaxQueue: 8})
	ck.FeedAll(events)
	last := events[len(events)-1].At
	ck.FinishFlow(last + 1)
	if vs := ck.Violations(); len(vs) != 0 {
		t.Fatalf("seeded run flagged: %v", vs)
	}
	if n := ck.OpenFlows(); n != 0 {
		t.Fatalf("open flows after drain = %d, want 0", n)
	}
}
