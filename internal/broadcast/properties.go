package broadcast

import (
	"errors"
	"fmt"

	"shadowdb/internal/gpm"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/verify"
)

// The correctness properties of the broadcast service (Table I row
// "Broadcast Service"; the paper proved its 22 lemmas manually in a week).

// ErrLost is returned when a broadcast message is never delivered.
var ErrLost = errors.New("broadcast: message lost")

// ErrDuplicated is returned when a message appears in two slots.
var ErrDuplicated = errors.New("broadcast: message delivered twice")

// testConfig builds the 3-node Paxos-backed service of the evaluation.
func testConfig() Config {
	return Config{
		Nodes:       []msg.Loc{"b1", "b2", "b3"},
		Subscribers: []msg.Loc{"sub1", "sub2"},
	}
}

// batchedConfig turns on the adaptive batching and pipelining knobs so
// the checker explores the sequencer's cut policy and the Synod window
// (DESIGN.md §8). MaxDelay stays zero: the schedule explorer has no
// clock, so the eager cut keeps every path timer-free while MaxBatch
// and the pipeline window still force multi-message slots whenever the
// window fills.
func batchedConfig() Config {
	cfg := testConfig()
	cfg.MaxBatch = 2
	cfg.Pipeline = 2
	return cfg
}

// invariants is the model invariant of every property below: fresh
// instances of the service's runtime invariants (invariants.go), the same
// definitions the online checker and the offline replay run.
func invariants() []verify.Set { return NewChecks(member.Config{}, 0).Sets() }

// CheckTotalOrder validates a finished trace against those invariants:
// every subscriber was sent, and every traced node received, the same
// gap-free slot sequence with identical batches — the service's defining
// property.
func CheckTotalOrder(trace []gpm.TraceEntry) error {
	return verify.CheckTrace(trace, invariants()...)
}

// Properties returns the registered property set of the module.
func Properties() []verify.Property {
	return []verify.Property{
		{Module: "Broadcast", Name: "total-order/fuzz", Mode: verify.Auto, Check: checkTotalOrderFuzz},
		{Module: "Broadcast", Name: "total-order/batched-fuzz", Mode: verify.Auto, Check: checkBatchedFuzz},
		{Module: "Broadcast", Name: "batch-atomicity", Mode: verify.Manual, Check: checkBatchAtomicity},
		{Module: "Broadcast", Name: "integrity/no-loss-no-dup", Mode: verify.Manual, Check: checkIntegrity},
		{Module: "Broadcast", Name: "total-order/protocol-switching", Mode: verify.Manual, Check: checkSwitching},
		{Module: "Broadcast", Name: "gap-freedom", Mode: verify.Manual, Check: checkGapFree},
	}
}

// run executes a workload of n messages from each of the clients, sending
// each client's messages to a node round-robin, and returns the trace.
func run(cfg Config, mods []Module, pick func(int) int, clients, n int) ([]gpm.TraceEntry, error) {
	cfg.Modules = mods
	cfg.PickModule = pick
	r := gpm.NewRunner(Spec(cfg).System())
	for c := 0; c < clients; c++ {
		from := msg.Loc(fmt.Sprintf("client%d", c))
		for i := 0; i < n; i++ {
			node := cfg.Nodes[(c+i)%len(cfg.Nodes)]
			r.Inject(node, msg.M(HdrBcast, Bcast{From: from, Seq: int64(i), Payload: []byte{byte(i)}}))
		}
	}
	if _, err := r.Run(2_000_000); err != nil {
		return nil, err
	}
	return r.Trace(), nil
}

func checkTotalOrderFuzz() error {
	cfg := testConfig()
	m := verify.Model{
		Gen:  Spec(cfg).Generator(),
		Locs: Spec(cfg).Locs,
		Init: []verify.Injection{
			{To: "b1", M: msg.M(HdrBcast, Bcast{From: "c1", Seq: 1, Payload: []byte("x")})},
			{To: "b2", M: msg.M(HdrBcast, Bcast{From: "c2", Seq: 1, Payload: []byte("y")})},
			{To: "b3", M: msg.M(HdrBcast, Bcast{From: "c1", Seq: 2, Payload: []byte("z")})},
		},
		Invariants: invariants,
	}
	_, err := verify.Fuzz(m, 120, 400, 5)
	return err
}

// checkBatchedFuzz fuzzes delivery schedules of the batched, pipelined
// configuration. Message duplication is on (a retransmitting link must
// not make a batch, or any message inside one, appear twice); message
// drops stay off because the service has no retransmission — a dropped
// proposal stalls its instance rather than violating safety, which the
// fuzzer would misread as a truncated schedule.
func checkBatchedFuzz() error {
	cfg := batchedConfig()
	m := verify.Model{
		Gen:  Spec(cfg).Generator(),
		Locs: Spec(cfg).Locs,
		Init: []verify.Injection{
			{To: "b1", M: msg.M(HdrBcast, Bcast{From: "c1", Seq: 1, Payload: []byte("x")})},
			{To: "b1", M: msg.M(HdrBcast, Bcast{From: "c2", Seq: 1, Payload: []byte("y")})},
			{To: "b2", M: msg.M(HdrBcast, Bcast{From: "c1", Seq: 2, Payload: []byte("z")})},
			{To: "b3", M: msg.M(HdrBcast, Bcast{From: "c2", Seq: 2, Payload: []byte("w")})},
		},
		Dups:       2,
		Invariants: invariants,
	}
	_, err := verify.Fuzz(m, 120, 400, 11)
	return err
}

// checkBatchAtomicity runs a batched workload and validates that batches
// are delivered atomically: every message lands in exactly one slot, all
// subscribers agree on every slot's full batch, and no slot exceeds the
// configured cut bound.
func checkBatchAtomicity() error {
	cfg := batchedConfig()
	trace, err := run(cfg, nil, nil, 3, 8)
	if err != nil {
		return err
	}
	if err := CheckTotalOrder(trace); err != nil {
		return err
	}
	if err := integrity(trace, 3, 8); err != nil {
		return err
	}
	seen := make(map[int]bool)
	for _, d := range DeliveriesTo(trace, "sub1") {
		if seen[d.Slot] {
			continue
		}
		seen[d.Slot] = true
		if len(d.Msgs) > cfg.MaxBatch {
			return fmt.Errorf("broadcast: slot %d carries %d messages, cut bound %d", d.Slot, len(d.Msgs), cfg.MaxBatch)
		}
	}
	return nil
}

// checkIntegrity runs a multi-client workload and validates every message
// is delivered exactly once.
func checkIntegrity() error {
	cfg := testConfig()
	trace, err := run(cfg, nil, nil, 3, 10)
	if err != nil {
		return err
	}
	return integrity(trace, 3, 10)
}

func integrity(trace []gpm.TraceEntry, clients, n int) error {
	// Duplicate Deliver notifications from multiple nodes are expected;
	// duplicates WITHIN the deduplicated slot sequence are not. Count per
	// slot once.
	seen := make(map[int]bool)
	got := make(map[string]int)
	for _, d := range DeliveriesTo(trace, "sub1") {
		if seen[d.Slot] {
			continue
		}
		seen[d.Slot] = true
		for _, b := range d.Msgs {
			got[b.Key()]++
		}
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("client%d/%d", c, i)
			switch got[k] {
			case 0:
				return fmt.Errorf("%w: %s", ErrLost, k)
			case 1:
			default:
				return fmt.Errorf("%w: %s seen %d times", ErrDuplicated, k, got[k])
			}
		}
	}
	return nil
}

// checkSwitching exercises per-slot protocol switching between Paxos and
// TwoThird, the paper's demonstration of modularity.
func checkSwitching() error {
	cfg := testConfig()
	trace, err := run(cfg,
		[]Module{Paxos(), TwoThird()},
		func(slot int) int { return slot % 2 },
		2, 8)
	if err != nil {
		return err
	}
	if err := CheckTotalOrder(trace); err != nil {
		return err
	}
	return integrity(trace, 2, 8)
}

// checkGapFree verifies subscribers never see slot k+1 before slot k.
func checkGapFree() error {
	cfg := testConfig()
	trace, err := run(cfg, nil, nil, 2, 12)
	if err != nil {
		return err
	}
	return CheckTotalOrder(trace)
}
