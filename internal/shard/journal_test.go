package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/msg"
	"shadowdb/internal/recoverytest"
	"shadowdb/internal/store"
)

func durableRouter(st store.Stable) (*Router, error) {
	return NewRouter(Config{
		Slf:    RouterLoc,
		Part:   modPart{2},
		App:    Bank(),
		Shards: [][]msg.Loc{{"s0b1", "s0b2"}, {"s1b1", "s1b2"}},
		Retry:  100 * time.Millisecond,
		Stable: st,
	})
}

// The 2PC coordinator as a client of store.Journal, for the recovery
// table every client runs. Unit n is cross-shard transfer n taken from
// begin through the decision to done — three journal records.
var routerClient = recoverytest.Client{
	Open: func(t testing.TB, st store.Stable, fresh bool) (recoverytest.Instance, error) {
		r, err := durableRouter(st)
		if err != nil {
			return recoverytest.Instance{}, err
		}
		return recoverytest.Instance{
			Apply: func(n int) {
				req := transfer(int64(n))
				r.Step(msg.M(core.HdrTx, req))
				for _, m := range []msg.Msg{
					msg.M(HdrVote, Vote{TxID: req.Key(), Shard: 0, From: "s0r1", OK: true}),
					msg.M(HdrVote, Vote{TxID: req.Key(), Shard: 1, From: "s1r1", OK: true}),
					msg.M(HdrAck, Ack{TxID: req.Key(), Shard: 0, From: "s0r1"}),
					msg.M(HdrAck, Ack{TxID: req.Key(), Shard: 1, From: "s1r1"}),
				} {
					r.Step(m)
				}
			},
			Frontier: func() int { return len(r.doneRes) },
			// r.seq is left out: a restart resumes above it on purpose.
			State:   func() string { return fmt.Sprint("done ", r.doneRes, " open ", r.Recovered()) },
			Compact: func() error { return r.j.Compact(r.snapshot()) },
		}, nil
	},
	Records: func(t testing.TB, n int) [][]byte {
		req := transfer(int64(n))
		subs, err := Bank().Split(req, modPart{2})
		if err != nil {
			t.Fatal(err)
		}
		id, seq := req.Key(), int64(4*n)
		var recs [][]byte
		for _, jr := range []journalRec{
			{Kind: "begin", TxID: id, Req: req, Subs: subs, Seq: seq - 4},
			{Kind: "decide", TxID: id, Commit: true, Seq: seq - 2},
			{Kind: "done", TxID: id, Seq: seq},
		} {
			rec, err := msg.Append(nil, func(w *msg.Writer) { appendJournalRec(w, jr) })
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		return recs
	},
	OldRecords: func(t testing.TB, n int) [][]byte {
		req := transfer(int64(n))
		subs, err := Bank().Split(req, modPart{2})
		if err != nil {
			t.Fatal(err)
		}
		id, seq := req.Key(), int64(4*n)
		return [][]byte{
			gobBytes(t, oldJournalRec{Kind: "begin", TxID: id, Req: req, Subs: subs, Seq: seq - 4}),
			gobBytes(t, oldJournalRec{Kind: "decide", TxID: id, Commit: true, Seq: seq - 2}),
			gobBytes(t, oldJournalRec{Kind: "done", TxID: id, Seq: seq}),
		}
	},
	OldSnapshot: func(t testing.TB, n int) []byte {
		snap := oldRouterSnapshot{Seq: int64(4 * n), Done: map[string]core.TxResult{}}
		for u := 1; u <= n; u++ {
			req := transfer(int64(u))
			snap.Done[req.Key()] = core.TxResult{Client: req.Client, Seq: req.Seq}
		}
		return gobBytes(t, snap)
	},
}

// The gob formats of the router's journal before the wire codec wrote
// it, copied here under other names (gob matches fields by name; the
// type's name is only in the type descriptor): a record and a snapshot.
type (
	oldJournalRec struct {
		Kind   string
		TxID   string
		Req    core.TxRequest
		Subs   map[int]SubTx
		Commit bool
		Seq    int64
	}
	oldRouterSnapshot struct {
		Seq  int64
		Done map[string]core.TxResult
		Open []oldJournalRec
	}
)

// gobBytes is v as one gob stream, the format of the journals before
// the wire codec wrote them.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRouterRecovery(t *testing.T) { recoverytest.Run(t, routerClient) }

func FuzzRouterRecover(f *testing.F) { recoverytest.Fuzz(f, routerClient) }

// A router restarted after a transfer ran to done, with nothing in
// flight, must still know the transfer (a duplicate of it is answered
// from the dedup table, not run through 2PC again) and must number its
// broadcasts above every seq its previous incarnation used: the live
// sequencers have seen those and would swallow a reuse.
func TestRouterRestartAfterCompletedTransfer(t *testing.T) {
	st, _ := store.NewMem().Open("router")
	r1, err := durableRouter(st)
	if err != nil {
		t.Fatal(err)
	}
	var high int64
	seqsOf := func(outs []msg.Directive) (seqs []int64) {
		bc, _ := bcastsIn(outs)
		for _, d := range bc {
			seqs = append(seqs, d.M.Body.(broadcast.Bcast).Seq)
		}
		return seqs
	}
	req := transfer(1)
	id := req.Key()
	for _, m := range []msg.Msg{
		msg.M(core.HdrTx, req),
		msg.M(HdrVote, Vote{TxID: id, Shard: 0, From: "s0r1", OK: true}),
		msg.M(HdrVote, Vote{TxID: id, Shard: 1, From: "s1r1", OK: true}),
		msg.M(HdrAck, Ack{TxID: id, Shard: 0, From: "s0r1"}),
		msg.M(HdrAck, Ack{TxID: id, Shard: 1, From: "s1r1"}),
	} {
		_, outs := r1.Step(m)
		for _, s := range seqsOf(outs) {
			high = max(high, s)
		}
	}
	if r1.InFlight() != 0 || high == 0 {
		t.Fatalf("first incarnation: %d in flight, highest seq %d", r1.InFlight(), high)
	}

	r2, err := durableRouter(st)
	if err != nil {
		t.Fatal(err)
	}
	_, outs := r2.Step(msg.M(core.HdrTx, req))
	if bc, rest := bcastsIn(outs); len(bc) != 0 || len(rest) != 1 || rest[0].M.Hdr != core.HdrTxResult {
		t.Errorf("duplicate of a completed transfer after restart: %d broadcasts, replies %v; want the dedup table's answer and no second 2PC", len(bc), rest)
	}
	_, outs = r2.Step(msg.M(core.HdrTx, transfer(2)))
	seqs := seqsOf(outs)
	if len(seqs) != 2 {
		t.Fatalf("new transfer after restart sent %d prepares, want 2", len(seqs))
	}
	for _, s := range seqs {
		if s <= high {
			t.Errorf("restarted router reused broadcast seq %d; its previous incarnation went up to %d", s, high)
		}
	}
}
