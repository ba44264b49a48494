package fault

import (
	"fmt"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/des"
	"shadowdb/internal/msg"
)

// The batched, pipelined broadcast service under faults (DESIGN.md §8):
// a symmetric partition isolates a non-sequencer node while batches are
// in flight, and an acceptor crash-restarts in the window between a
// propose and its decide. The service has no retransmission layer, so
// the nemesis must leave the sequencer connected to a quorum — the
// partition cuts b3 (quorum b1+b2 survives) and the crash takes b2
// (quorum b1+b3 survives), never overlapping. Clients submit directly
// to the sequencer b1 so no forwarded submission rides a faulted link.

const (
	batchClients = 8
	batchMsgs    = 10
)

// batchFaultCluster wires the 3-node batched service plus two
// subscribers on the simulator, binds the fault plan, and schedules the
// client load spread over [0, 400ms).
func batchFaultCluster(t *testing.T, plan Plan) (*des.Sim, map[msg.Loc]map[int][]broadcast.Bcast) {
	t.Helper()
	sim := &des.Sim{}
	clu := des.NewCluster(sim)

	nodes := []msg.Loc{"b1", "b2", "b3"}
	subs := []msg.Loc{"sub1", "sub2"}
	cfg := broadcast.Config{
		Nodes: nodes, Subscribers: subs,
		MaxBatch: 4, MaxDelay: time.Millisecond, Pipeline: 2,
	}
	gen := broadcast.Spec(cfg).Generator()
	for _, b := range nodes {
		proc := gen(b)
		clu.AddCostedNode(b, 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
			next, outs := proc.Step(env.M)
			proc = next
			return outs, 0
		})
	}

	// Per-subscriber slot log: slot -> batch, with duplicate
	// notifications from other service nodes checked for agreement.
	got := make(map[msg.Loc]map[int][]broadcast.Bcast)
	for _, sub := range subs {
		sub := sub
		got[sub] = make(map[int][]broadcast.Bcast)
		clu.AddCostedNode(sub, 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
			d, ok := env.M.Body.(broadcast.Deliver)
			if !ok {
				return nil, 0
			}
			if prev, dup := got[sub][d.Slot]; dup {
				if !sameMsgs(prev, d.Msgs) {
					t.Errorf("%s: slot %d re-notified with a different batch", sub, d.Slot)
				}
				return nil, 0
			}
			got[sub][d.Slot] = d.Msgs
			return nil, 0
		})
	}

	BindCluster(clu, plan)

	// Each round is a simultaneous 8-client burst so the sequencer's cut
	// policy actually forms multi-message batches (consensus on the
	// costless simulator completes instantly, so staggered arrivals
	// would decide one by one).
	for c := 0; c < batchClients; c++ {
		from := msg.Loc(fmt.Sprintf("client%d", c))
		for i := 0; i < batchMsgs; i++ {
			at := time.Duration(i) * 40 * time.Millisecond
			from, seq := from, int64(i+1)
			sim.At(at, func() {
				clu.Send("external", "b1", msg.M(broadcast.HdrBcast, broadcast.Bcast{
					From: from, Seq: seq, Payload: []byte("p"),
				}))
			})
		}
	}
	return sim, got
}

func sameMsgs(a, b []broadcast.Bcast) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].Seq != b[i].Seq {
			return false
		}
	}
	return true
}

// checkBatchedDelivery asserts total order, gap freedom, exactly-once
// delivery of the full load, the cut bound, and that batching actually
// happened.
func checkBatchedDelivery(t *testing.T, got map[msg.Loc]map[int][]broadcast.Bcast) {
	t.Helper()
	var ref map[int][]broadcast.Bcast
	for sub, bySlot := range got {
		high := -1
		for s := range bySlot {
			if s > high {
				high = s
			}
		}
		count := make(map[string]int)
		for s := 0; s <= high; s++ {
			batch, ok := bySlot[s]
			if !ok {
				t.Fatalf("%s: gap at slot %d", sub, s)
			}
			if len(batch) > 4 {
				t.Errorf("%s: slot %d carries %d messages, cut bound 4", sub, s, len(batch))
			}
			for _, b := range batch {
				count[fmt.Sprintf("%s/%d", b.From, b.Seq)]++
			}
		}
		for c := 0; c < batchClients; c++ {
			for i := 1; i <= batchMsgs; i++ {
				k := fmt.Sprintf("client%d/%d", c, i)
				if count[k] != 1 {
					t.Errorf("%s: message %s delivered %d times, want 1", sub, k, count[k])
				}
			}
		}
		if len(bySlot) >= batchClients*batchMsgs {
			t.Errorf("%s: %d slots for %d messages; batching had no effect", sub, len(bySlot), batchClients*batchMsgs)
		}
		if ref == nil {
			ref = bySlot
			continue
		}
		for s, batch := range bySlot {
			if rb, ok := ref[s]; ok && !sameMsgs(rb, batch) {
				t.Errorf("subscribers disagree at slot %d", s)
			}
		}
	}
}

func TestBatchedBroadcastSurvivesPartitionMidBatch(t *testing.T) {
	// b3 is cut symmetrically during [50ms, 150ms) while batches are in
	// flight; the sequencer keeps a quorum with b2 throughout.
	plan := Plan{Partitions: []Partition{{
		From: Duration(50 * time.Millisecond), To: Duration(150 * time.Millisecond),
		A: []msg.Loc{"b3"}, B: []msg.Loc{"b1", "b2"}, Symmetric: true,
	}}}
	sim, got := batchFaultCluster(t, plan)
	sim.Run(3*time.Second, 10_000_000)
	checkBatchedDelivery(t, got)
}

func TestBatchedBroadcastSurvivesAcceptorCrashRestart(t *testing.T) {
	// b2 crashes at 200ms — with the pipeline full, between some batch's
	// propose and its decide — and restarts with state retained 50ms
	// later. Quorum b1+b3 decides the in-flight instances meanwhile.
	plan := Plan{Crashes: []Crash{{
		At: Duration(200 * time.Millisecond), Node: "b2",
		RestartAfter: Duration(50 * time.Millisecond),
	}}}
	sim, got := batchFaultCluster(t, plan)
	sim.Run(3*time.Second, 10_000_000)
	checkBatchedDelivery(t, got)
}

func TestBatchedBroadcastSurvivesBothFaults(t *testing.T) {
	// Both faults in one run, non-overlapping so a quorum always remains
	// reachable from the sequencer.
	plan := Plan{
		Partitions: []Partition{{
			From: Duration(50 * time.Millisecond), To: Duration(150 * time.Millisecond),
			A: []msg.Loc{"b3"}, B: []msg.Loc{"b1", "b2"}, Symmetric: true,
		}},
		Crashes: []Crash{{
			At: Duration(200 * time.Millisecond), Node: "b2",
			RestartAfter: Duration(50 * time.Millisecond),
		}},
	}
	sim, got := batchFaultCluster(t, plan)
	sim.Run(3*time.Second, 10_000_000)
	checkBatchedDelivery(t, got)
}
