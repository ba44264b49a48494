package shard

import (
	"strconv"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/flow"
	"shadowdb/internal/msg"
)

// modPart places decimal keys by id modulo n — a transparent placement
// for tests (account 0 on shard 0, account 1 on shard 1, ...).
type modPart struct{ n int }

func (p modPart) N() int       { return p.n }
func (p modPart) Name() string { return "mod" }
func (p modPart) Shard(key string) int {
	id, err := strconv.Atoi(key)
	if err != nil {
		return 0
	}
	return id % p.n
}

func testRouter(t *testing.T) *Router {
	t.Helper()
	r, err := NewRouter(Config{
		Slf:  RouterLoc,
		Part: modPart{2},
		App:  Bank(),
		Shards: [][]msg.Loc{
			{"s0b1", "s0b2"},
			{"s1b1", "s1b2"},
		},
		Retry: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func step(t *testing.T, r *Router, hdr string, body any) []msg.Directive {
	t.Helper()
	_, outs := r.Step(msg.M(hdr, body))
	return outs
}

// bcastsIn splits a directive list into broadcast submissions and the
// rest (client replies, retry timers).
func bcastsIn(outs []msg.Directive) (bc []msg.Directive, rest []msg.Directive) {
	for _, d := range outs {
		if d.M.Hdr == broadcast.HdrBcast {
			bc = append(bc, d)
		} else {
			rest = append(rest, d)
		}
	}
	return bc, rest
}

func TestRouterForwardsSingleShard(t *testing.T) {
	r := testRouter(t)
	req := core.TxRequest{Client: "c1", Seq: 7, Type: "deposit", Args: []any{3, 10}}
	outs := step(t, r, core.HdrTx, req)
	if len(outs) != 1 {
		t.Fatalf("forward produced %d directives, want 1: %v", len(outs), outs)
	}
	d := outs[0]
	if d.Dest != "s1b1" && d.Dest != "s1b2" {
		t.Fatalf("deposit on account 3 forwarded to %s, want shard 1's service", d.Dest)
	}
	if d.M.Hdr != broadcast.HdrBcast {
		t.Fatalf("forward header %q, want %q", d.M.Hdr, broadcast.HdrBcast)
	}
	b := d.M.Body.(broadcast.Bcast)
	// The client's own identity rides through so broadcast-layer dedup of
	// client retries works exactly as unsharded.
	if b.From != "c1" || b.Seq != 7 {
		t.Fatalf("forwarded Bcast identity %s/%d, want c1/7", b.From, b.Seq)
	}
	got, err := msg.DecodeBody[core.TxRequest](b.Payload)
	if err != nil || got.Type != "deposit" {
		t.Fatalf("forwarded payload did not round-trip: %v %v", got, err)
	}
	// A retry of the same request probes the other service node.
	outs2 := step(t, r, core.HdrTx, req)
	if outs2[0].Dest == d.Dest {
		t.Errorf("retry forwarded to the same node %s; want rotation", d.Dest)
	}
	// In-flight bookkeeping is for cross-shard transactions only.
	if r.InFlight() != 0 {
		t.Errorf("single-shard forward left %d transactions in flight", r.InFlight())
	}
}

func TestRouterRejectsMalformed(t *testing.T) {
	r := testRouter(t)
	req := core.TxRequest{Client: "c1", Seq: 1, Type: "mystery"}
	outs := step(t, r, core.HdrTx, req)
	if len(outs) != 1 || outs[0].Dest != "c1" {
		t.Fatalf("malformed request not answered directly: %v", outs)
	}
	res := outs[0].M.Body.(core.TxResult)
	if !res.Aborted || res.Err == "" {
		t.Fatalf("malformed request not aborted: %+v", res)
	}
}

func TestRouterCrossShardCommit(t *testing.T) {
	r := testRouter(t)
	req := core.TxRequest{Client: "c1", Seq: 1, Type: "transfer", Args: []any{0, 1, 50}}
	outs := step(t, r, core.HdrTx, req)
	bc, rest := bcastsIn(outs)
	if len(bc) != 2 {
		t.Fatalf("cross-shard begin sent %d prepares, want 2: %v", len(bc), outs)
	}
	if len(rest) != 1 || rest[0].M.Hdr != HdrRetry || rest[0].Delay <= 0 {
		t.Fatalf("cross-shard begin did not arm a retry timer: %v", rest)
	}
	if r.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", r.InFlight())
	}
	var seqs []int64
	for _, d := range bc {
		b := d.M.Body.(broadcast.Bcast)
		if b.From != RouterLoc {
			t.Fatalf("2PC record sent with identity %s, want the router's", b.From)
		}
		seqs = append(seqs, b.Seq)
		p, err := msg.DecodeBody[Prepare](b.Payload)
		if err != nil {
			t.Fatalf("prepare payload did not decode: %v", err)
		}
		if len(p.Participants) != 2 || p.Coord != RouterLoc {
			t.Fatalf("prepare misdescribes the transaction: %+v", p)
		}
		if p.Shard == 0 && p.Sub.Reserve["0"] != 50 {
			t.Fatalf("source slice reserves %v, want 50 on account 0", p.Sub.Reserve)
		}
	}
	if seqs[0] == seqs[1] {
		t.Fatalf("two 2PC records share broadcast seq %d; the sequencer would dedup one", seqs[0])
	}

	id := req.Key()
	// First shard votes YES: not decided yet.
	if outs := step(t, r, HdrVote, Vote{TxID: id, Shard: 0, From: "s0r1", OK: true}); len(outs) != 0 {
		t.Fatalf("decision before all votes: %v", outs)
	}
	// Duplicate vote from the shard's other replica changes nothing.
	if outs := step(t, r, HdrVote, Vote{TxID: id, Shard: 0, From: "s0r2", OK: true}); len(outs) != 0 {
		t.Fatalf("duplicate vote produced output: %v", outs)
	}
	// Second shard's YES completes the vote: decisions + client reply.
	outs = step(t, r, HdrVote, Vote{TxID: id, Shard: 1, From: "s1r1", OK: true})
	bc, rest = bcastsIn(outs)
	if len(bc) != 2 {
		t.Fatalf("commit sent %d decisions, want 2", len(bc))
	}
	for _, d := range bc {
		dec, err := msg.DecodeBody[Decision](d.M.Body.(broadcast.Bcast).Payload)
		if err != nil || !dec.Commit {
			t.Fatalf("decision payload wrong: %+v err=%v", dec, err)
		}
	}
	var replied bool
	for _, d := range rest {
		if d.M.Hdr == core.HdrTxResult {
			res := d.M.Body.(core.TxResult)
			if d.Dest != "c1" || res.Aborted {
				t.Fatalf("client reply wrong: dest=%s %+v", d.Dest, res)
			}
			replied = true
		}
	}
	if !replied {
		t.Fatalf("commit did not answer the client: %v", rest)
	}

	// Acks from both shards retire the transaction.
	step(t, r, HdrAck, Ack{TxID: id, Shard: 0, From: "s0r1"})
	if r.InFlight() != 1 {
		t.Fatalf("transaction retired after one ack")
	}
	step(t, r, HdrAck, Ack{TxID: id, Shard: 1, From: "s1r1"})
	if r.InFlight() != 0 {
		t.Fatalf("InFlight = %d after all acks, want 0", r.InFlight())
	}

	// A duplicate submission is answered from the dedup table, no new 2PC.
	outs = step(t, r, core.HdrTx, req)
	if len(outs) != 1 || outs[0].Dest != "c1" || r.InFlight() != 0 {
		t.Fatalf("duplicate submission restarted 2PC: %v", outs)
	}
}

func TestRouterCrossShardAbortOnNoVote(t *testing.T) {
	r := testRouter(t)
	req := core.TxRequest{Client: "c1", Seq: 2, Type: "transfer", Args: []any{0, 1, 50}}
	step(t, r, core.HdrTx, req)
	// A single NO vote aborts immediately, without waiting for the rest.
	outs := step(t, r, HdrVote, Vote{TxID: req.Key(), Shard: 0, From: "s0r1", OK: false})
	bc, rest := bcastsIn(outs)
	if len(bc) != 2 {
		t.Fatalf("abort sent %d decisions, want 2 (both participants)", len(bc))
	}
	for _, d := range bc {
		if dec, err := msg.DecodeBody[Decision](d.M.Body.(broadcast.Bcast).Payload); err != nil || dec.Commit {
			t.Fatalf("abort decision wrong: %+v", dec)
		}
	}
	var aborted bool
	for _, d := range rest {
		if d.M.Hdr == core.HdrTxResult && d.M.Body.(core.TxResult).Aborted {
			aborted = true
		}
	}
	if !aborted {
		t.Fatalf("client not told about the abort: %v", rest)
	}
}

func TestRouterRetryUsesFreshSeqs(t *testing.T) {
	r := testRouter(t)
	req := core.TxRequest{Client: "c1", Seq: 3, Type: "transfer", Args: []any{0, 1, 50}}
	outs := step(t, r, core.HdrTx, req)
	first, _ := bcastsIn(outs)
	outs = step(t, r, HdrRetry, RetryBody{TxID: req.Key()})
	second, _ := bcastsIn(outs)
	if len(second) != 2 {
		t.Fatalf("retry resent %d prepares, want 2", len(second))
	}
	used := map[int64]bool{}
	for _, d := range first {
		used[d.M.Body.(broadcast.Bcast).Seq] = true
	}
	for _, d := range second {
		if used[d.M.Body.(broadcast.Bcast).Seq] {
			t.Fatalf("retransmission reused a broadcast seq; the sequencer's dedup would swallow it")
		}
	}
}

// ------------------------------------------------------------------- flow --

// flowRouter builds a router with overload control armed and a
// test-owned clock.
func flowRouter(t *testing.T, cfg Config) (*Router, *time.Duration) {
	t.Helper()
	now := new(time.Duration)
	cfg.Slf, cfg.Part, cfg.App = RouterLoc, modPart{2}, Bank()
	cfg.Shards = [][]msg.Loc{{"s0b1"}, {"s1b1"}}
	cfg.Retry = 100 * time.Millisecond
	cfg.Now = func() time.Duration { return *now }
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, now
}

func rejectOf(t *testing.T, outs []msg.Directive) flow.Reject {
	t.Helper()
	if len(outs) != 1 || outs[0].M.Hdr != flow.HdrReject {
		t.Fatalf("want exactly one flow.Reject, got %v", outs)
	}
	return outs[0].M.Body.(flow.Reject)
}

func transfer(seq int64) core.TxRequest {
	return core.TxRequest{Client: "c1", Seq: seq, Type: "transfer", Args: []any{0, 1, 10}}
}

func finish(t *testing.T, r *Router, req core.TxRequest) {
	t.Helper()
	id := req.Key()
	step(t, r, HdrVote, Vote{TxID: id, Shard: 0, From: "s0r1", OK: true})
	step(t, r, HdrVote, Vote{TxID: id, Shard: 1, From: "s1r1", OK: true})
	step(t, r, HdrAck, Ack{TxID: id, Shard: 0, From: "s0r1"})
	step(t, r, HdrAck, Ack{TxID: id, Shard: 1, From: "s1r1"})
}

func TestRouterShedsOverMaxInflight(t *testing.T) {
	r, _ := flowRouter(t, Config{MaxInflight: 2})
	a, b, c := transfer(1), transfer(2), transfer(3)
	step(t, r, core.HdrTx, a)
	step(t, r, core.HdrTx, b)
	if r.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", r.InFlight())
	}
	// The third arrival is refused explicitly — a Reject, not silence.
	rej := rejectOf(t, step(t, r, core.HdrTx, c))
	if rej.Reason != flow.ReasonOverload || rej.Seq != 3 {
		t.Fatalf("reject = %+v, want overload for seq 3", rej)
	}
	if rej.Depth != 2 || rej.Cap != 3 {
		t.Fatalf("reject audit fields depth=%d cap=%d, want 2/3", rej.Depth, rej.Cap)
	}
	if r.InFlight() != 2 {
		t.Fatalf("shed arrival changed InFlight to %d", r.InFlight())
	}
	// Completing one transaction frees its slot; the retry is admitted.
	finish(t, r, a)
	if bc, _ := bcastsIn(step(t, r, core.HdrTx, c)); len(bc) != 2 {
		t.Fatalf("retry after drain sent %d prepares, want 2", len(bc))
	}
	if r.InFlight() != 2 {
		t.Fatalf("InFlight after readmission = %d, want 2", r.InFlight())
	}
}

func TestRouterRejectsExpiredDeadline(t *testing.T) {
	r, now := flowRouter(t, Config{})
	*now = 100 * time.Millisecond
	req := transfer(1)
	req.Deadline = int64(50 * time.Millisecond)
	rej := rejectOf(t, step(t, r, core.HdrTx, req))
	if rej.Reason != flow.ReasonDeadline {
		t.Fatalf("reject reason %q, want deadline", rej.Reason)
	}
	if r.InFlight() != 0 {
		t.Fatalf("expired request entered 2PC: InFlight = %d", r.InFlight())
	}
}

func TestRouterBudgetThrottlesRedrive(t *testing.T) {
	r, _ := flowRouter(t, Config{Budget: &flow.RetryBudget{Rate: 1}})
	a := transfer(1)
	step(t, r, core.HdrTx, a)
	// The first re-drive spends the only token...
	if bc, _ := bcastsIn(step(t, r, HdrRetry, RetryBody{TxID: a.Key()})); len(bc) != 2 {
		t.Fatalf("budgeted re-drive did not retransmit")
	}
	// ...the second round is skipped but the timer stays armed: the
	// transaction is throttled, never abandoned.
	outs := step(t, r, HdrRetry, RetryBody{TxID: a.Key()})
	if len(outs) != 1 || outs[0].M.Hdr != HdrRetry || outs[0].Delay <= 0 {
		t.Fatalf("empty budget should re-arm only, got %v", outs)
	}
	if r.InFlight() != 1 {
		t.Fatalf("throttled transaction abandoned: InFlight = %d", r.InFlight())
	}
}
