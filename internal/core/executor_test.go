package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

func bankExec(t *testing.T, rows int) *Executor {
	t.Helper()
	db, err := sqldb.Open("h2:mem:x")
	if err != nil {
		t.Fatal(err)
	}
	if err := BankSetup(db, rows); err != nil {
		t.Fatal(err)
	}
	return NewExecutor(db, BankRegistry())
}

func depositReq(client msg.Loc, seq int64, id, amount int) TxRequest {
	return TxRequest{Client: client, Seq: seq, Type: "deposit", Args: []any{id, amount}}
}

func balanceOf(t *testing.T, db *sqldb.DB, id int) int64 {
	t.Helper()
	res, err := db.Exec("SELECT balance FROM accounts WHERE id = ?", id)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("balance query: %v %v", res, err)
	}
	return res.Rows[0][0].(int64)
}

func TestExecutorApplyAndDedup(t *testing.T) {
	e := bankExec(t, 5)
	req := depositReq("c1", 1, 3, 50)
	if _, dup := e.Duplicate(req); dup {
		t.Fatal("fresh request marked duplicate")
	}
	res, err := e.Apply(1, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted || res.Err != "" {
		t.Fatalf("result = %+v", res)
	}
	if got := balanceOf(t, e.DB, 3); got != 1050 {
		t.Errorf("balance = %d", got)
	}
	// The same request again is a duplicate with the cached result.
	cached, dup := e.Duplicate(req)
	if !dup {
		t.Fatal("retry not detected as duplicate")
	}
	if cached.Seq != 1 || cached.Client != "c1" {
		t.Errorf("cached = %+v", cached)
	}
	if got := balanceOf(t, e.DB, 3); got != 1050 {
		t.Errorf("duplicate changed balance to %d", got)
	}
}

func TestExecutorOrderEnforced(t *testing.T) {
	e := bankExec(t, 2)
	if _, err := e.Apply(5, depositReq("c", 1, 0, 1)); err == nil {
		t.Error("out-of-order apply accepted")
	}
}

func TestExecutorAbort(t *testing.T) {
	e := bankExec(t, 2)
	// Deposit to a nonexistent account aborts deterministically.
	res, err := e.Apply(1, depositReq("c", 1, 999, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Errorf("result = %+v, want abort", res)
	}
	if e.DB.InTx() {
		t.Error("abort left transaction open")
	}
	// Aborted transactions still count as executed (all replicas abort
	// identically).
	if e.Executed != 1 {
		t.Errorf("Executed = %d", e.Executed)
	}
}

func TestExecutorUnknownType(t *testing.T) {
	e := bankExec(t, 1)
	res, err := e.Apply(1, TxRequest{Client: "c", Seq: 1, Type: "nonsense"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == "" {
		t.Error("unknown type produced no error")
	}
}

func TestExecutorInstallSnapshot(t *testing.T) {
	e := bankExec(t, 3)
	if _, err := e.Apply(1, depositReq("c", 1, 0, 5)); err != nil {
		t.Fatal(err)
	}
	e.InstallSnapshot(40, nil, nil)
	if e.Executed != 40 {
		t.Errorf("Executed = %d", e.Executed)
	}
}

func TestExecutorResultRows(t *testing.T) {
	e := bankExec(t, 3)
	res, err := e.Apply(1, TxRequest{Client: "c", Seq: 1, Type: "balance", Args: []any{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1000) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestApplyBatchGroupCommit(t *testing.T) {
	// A batch applied as one group commit must land on exactly the state
	// and bookkeeping of one-by-one application: same balances, same
	// Executed count, same dedup answers, same per-request results.
	batch := []TxRequest{
		depositReq("c1", 1, 0, 10),
		depositReq("c2", 1, 1, 20),
		depositReq("c1", 2, 999, 5), // unknown account: deterministic abort
		depositReq("c3", 1, 0, 30),
		{Client: "c2", Seq: 2, Type: "nosuch"},
	}

	grouped := bankExec(t, 3)
	results := grouped.ApplyBatch(batch)

	oneByOne := bankExec(t, 3)
	var want []TxResult
	for _, req := range batch {
		res, err := oneByOne.Apply(oneByOne.Executed+1, req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	if len(results) != len(want) {
		t.Fatalf("got %d results, want %d", len(results), len(want))
	}
	for i := range want {
		if results[i].Aborted != want[i].Aborted || (results[i].Err == "") != (want[i].Err == "") {
			t.Errorf("result %d = %+v, want %+v", i, results[i], want[i])
		}
	}
	if grouped.Executed != oneByOne.Executed {
		t.Errorf("Executed = %d, want %d", grouped.Executed, oneByOne.Executed)
	}
	for id := 0; id < 3; id++ {
		if g, w := balanceOf(t, grouped.DB, id), balanceOf(t, oneByOne.DB, id); g != w {
			t.Errorf("balance[%d] = %d, want %d", id, g, w)
		}
	}
	if grouped.DB.InTx() {
		t.Error("group commit left a transaction open")
	}
	// The aborted transaction must not have leaked partial effects, and
	// dedup must answer retries for every request of the batch.
	for _, req := range batch {
		if _, dup := grouped.Duplicate(req); !dup {
			t.Errorf("request %s/%d not in dedup table", req.Client, req.Seq)
		}
	}
}

func TestApplyBatchEmpty(t *testing.T) {
	e := bankExec(t, 1)
	if out := e.ApplyBatch(nil); len(out) != 0 {
		t.Errorf("ApplyBatch(nil) = %v", out)
	}
	if e.Executed != 0 || e.DB.InTx() {
		t.Errorf("empty batch changed state: executed=%d inTx=%v", e.Executed, e.DB.InTx())
	}
}

// A request with a negative Seq has no slot in the dedup ring. Wherever
// it reaches an executor (a PBR primary's HdrTx, a transaction in an SMR
// slot, that slot replayed from the journal) it is answered with the
// same abort, nothing is applied or recorded, and the refusal is counted.
func TestNegativeSeqIsRefused(t *testing.T) {
	for _, seq := range []int64{-1, math.MinInt64} {
		poison := durDeposit(seq)
		refused := []msg.Directive{msg.Send(poison.Client, msg.M(HdrTxResult,
			TxResult{Client: poison.Client, Seq: seq, Aborted: true}))}
		check := func(where string, outs []msg.Directive, e *Executor) {
			t.Helper()
			if !reflect.DeepEqual(outs, refused) {
				t.Errorf("seq %d at %s answered %v, want %v", seq, where, outs, refused)
			}
			if e.Executed != 0 || len(e.LastSeqs()) != 0 || balanceOf(t, e.DB, 1) != 1000 {
				t.Errorf("seq %d at %s: applied or recorded (executed %d, horizons %v)", seq, where, e.Executed, e.LastSeqs())
			}
		}
		refusals := obs.C("core.exec.refused")
		before := refusals.Value()

		primary := NewPBRReplica("r1", bankDB(t, "poison-pbr", 3), BankRegistry(), testDeployment())
		_, outs := primary.Step(msg.M(HdrTx, poison))
		check("a PBR primary", outs, primary.Executor())

		st := mustOpen(t, store.NewMem(), "r")
		smr, err := OpenSMRReplica(SMRConfig{Self: "r1", DB: bankDB(t, "poison-smr", 3), Registry: BankRegistry(), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		pay, err := EncodeTx(poison)
		if err != nil {
			t.Fatal(err)
		}
		deliver := broadcast.Deliver{Slot: 0, Msgs: []broadcast.Bcast{{From: poison.Client, Seq: 1, Payload: pay}}}
		check("an SMR replica", stepDeliver(smr, deliver), smr.Executor())

		replayed, err := OpenSMRReplica(SMRConfig{Self: "r1", DB: emptyDB(t, "poison-replay"), Registry: BankRegistry(), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if replayed.LastSlot() != 0 {
			t.Errorf("seq %d: replay stopped at slot %d, want 0", seq, replayed.LastSlot())
		}
		check("replay", refused, replayed.Executor())
		if n := refusals.Value() - before; n != 3 {
			t.Errorf("seq %d: counted %d refusals, want 3", seq, n)
		}
	}
}

// ApplyBatch refuses a negative Seq as Apply does — the result carries
// the error, and nothing is executed or recorded — and a PBR backup's
// catch-up ends its contiguous run there: any peer can send a Catchup,
// and one forged request must not index the dedup ring.
func TestApplyBatchRefusesNegativeSeq(t *testing.T) {
	for _, seq := range []int64{-3, math.MinInt64} {
		e := bankExec(t, 3)
		out := e.ApplyBatch([]TxRequest{depositReq("c", 1, 0, 1), depositReq("c", seq, 1, 1), depositReq("c", 2, 2, 1)})
		if len(out) != 3 || out[0].Err != "" || out[1].Err == "" || out[1].Seq != seq || out[2].Err != "" {
			t.Errorf("seq %d: batch answered %+v, want the middle request refused", seq, out)
		}
		if e.Executed != 2 || !reflect.DeepEqual(e.LastSeqs(), map[string]int64{"c": 2}) || balanceOf(t, e.DB, 1) != 1000 {
			t.Errorf("seq %d: executed %d, horizons %v, balance(1) %d; want 2, c at 2, 1000",
				seq, e.Executed, e.LastSeqs(), balanceOf(t, e.DB, 1))
		}

		r := NewPBRReplica("r2", bankDB(t, "negative-catchup", 3), BankRegistry(), testDeployment())
		r.Step(msg.M(HdrCatchup, Catchup{Records: [][]byte{
			orderRecord(1, durDeposit(1)), orderRecord(2, durDeposit(seq)), orderRecord(3, durDeposit(3)),
		}}))
		if r.exec.Executed != 1 || balanceOf(t, r.exec.DB, 1) != 1005 {
			t.Errorf("seq %d: backup executed %d, balance(1) %d; want the run to end before the refused request",
				seq, r.exec.Executed, balanceOf(t, r.exec.DB, 1))
		}
	}
}

// BenchmarkApplyBatch times one group commit of 16 deposits by 16
// clients at steady state: past 2 048 transactions, so any bounded
// per-transaction bookkeeping is measured full, not growing.
func BenchmarkApplyBatch(b *testing.B) {
	const batch, rows = 16, 1000
	e := NewExecutor(bankDB(b, "bench-applybatch", rows), BankRegistry())
	reqs := make([]TxRequest, batch)
	clients := make([]msg.Loc, batch)
	for j := range clients {
		clients[j] = msg.Loc(fmt.Sprintf("c%d", j))
	}
	round := 0
	apply := func() {
		round++
		for j := range reqs {
			reqs[j] = TxRequest{Client: clients[j], Seq: int64(round), Type: "deposit",
				Args: []any{int64((round*batch + j) % rows), int64(1)}}
		}
		if res := e.ApplyBatch(reqs); len(res) != batch || res[0].Err != "" {
			b.Fatalf("apply: %+v", res)
		}
	}
	for e.Executed <= 2048 {
		apply()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply()
	}
}
