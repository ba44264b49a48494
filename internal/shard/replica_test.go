package shard

import (
	"encoding/binary"
	"fmt"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/recoverytest"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// testRep is a shard replica under test: the SMR replica and its ledger.
type testRep struct {
	*core.SMRReplica
	*Ledger
}

// openReplica builds replica 0 of a shard over db and st (nil: volatile),
// with replica 1 of the shard as its catch-up peer.
func openReplica(shardIdx int, db *sqldb.DB, st store.Stable) (testRep, error) {
	l := NewLedger(shardIdx, Bank())
	r, err := core.OpenSMRReplica(core.SMRConfig{
		Self: ReplicaLoc(shardIdx, 0), DB: db, Registry: core.BankRegistry(), Store: st,
		Peers: []msg.Loc{ReplicaLoc(shardIdx, 0), ReplicaLoc(shardIdx, 1)}, Ext: l,
	})
	return testRep{r, l}, err
}

// bankDB opens a database seeded with rows bank accounts of 1000 each.
func bankDB(t testing.TB, rows int) *sqldb.DB {
	t.Helper()
	db, err := sqldb.Open("h2:mem:shardtest")
	if err == nil && rows > 0 {
		err = core.BankSetup(db, rows)
	}
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func testReplica(t *testing.T, shardIdx int) testRep {
	t.Helper()
	r, err := openReplica(shardIdx, bankDB(t, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func slotOf(slot int, payloads ...[]byte) broadcast.Deliver {
	var msgs []broadcast.Bcast
	for i, p := range payloads {
		msgs = append(msgs, broadcast.Bcast{From: RouterLoc, Seq: int64(slot*100 + i), Payload: p})
	}
	return broadcast.Deliver{Slot: slot, Msgs: msgs}
}

func deliver(t *testing.T, r testRep, slot int, payloads ...[]byte) []msg.Directive {
	t.Helper()
	_, outs := r.Step(msg.M(broadcast.HdrDeliver, slotOf(slot, payloads...)))
	return outs
}

func balance(t *testing.T, r testRep, id int) int64 {
	t.Helper()
	res, err := r.Executor().DB.Exec("SELECT balance FROM accounts WHERE id = ?", id)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("balance(%d): %v %v", id, res, err)
	}
	v, err := argInt64(res.Rows[0][0])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func voteOf(t *testing.T, outs []msg.Directive) Vote {
	t.Helper()
	if len(outs) != 1 || outs[0].M.Hdr != HdrVote {
		t.Fatalf("want exactly one vote, got %v", outs)
	}
	return outs[0].M.Body.(Vote)
}

// debit is shard 0's slice of transfer id: reserve amt on account 1 and
// debit it on commit.
func debit(id string, amt int64) Prepare {
	return Prepare{
		TxID: id, Coord: RouterLoc, Shard: 0, Participants: []int{0, 1},
		Req: core.TxRequest{Client: "c1", Seq: 1, Type: "transfer", Args: []any{int64(1), int64(2), amt}},
		Sub: SubTx{
			Reserve:   map[string]int64{"1": amt},
			Apply:     "deposit",
			ApplyArgs: []any{int64(1), -amt},
		},
	}
}

func commit(id string) []byte {
	return EncodeDecision(Decision{TxID: id, Shard: 0, Coord: RouterLoc, Commit: true})
}

func TestReplicaVotesAndReserves(t *testing.T) {
	r := testReplica(t, 0)
	// Account 1 holds 1000: a 600 reservation fits...
	if v := voteOf(t, deliver(t, r, 0, EncodePrepare(debit("ta", 600)))); !v.OK {
		t.Fatalf("vote on ta: %+v, want YES", v)
	}
	if r.HeldOn("1") != 600 {
		t.Fatalf("held = %d, want 600", r.HeldOn("1"))
	}
	// ...but a second 600 against the same key must count the hold: NO.
	if v := voteOf(t, deliver(t, r, 1, EncodePrepare(debit("tb", 600)))); v.OK {
		t.Fatalf("vote on tb ignored the reservation ledger")
	}
	// Prepared state is invisible: the database still shows 1000.
	if b := balance(t, r, 1); b != 1000 {
		t.Fatalf("prepared-but-undecided state leaked into the database: balance %d", b)
	}
	// A retransmitted prepare re-votes without double-reserving.
	if v := voteOf(t, deliver(t, r, 2, EncodePrepare(debit("ta", 600)))); !v.OK {
		t.Fatalf("re-vote on ta: %+v", v)
	}
	if r.HeldOn("1") != 600 {
		t.Fatalf("duplicate prepare double-reserved: held = %d", r.HeldOn("1"))
	}

	// Commit ta: hold released, debit applied, ack sent.
	outs := deliver(t, r, 3, commit("ta"))
	if len(outs) != 1 || outs[0].M.Hdr != HdrAck {
		t.Fatalf("decision did not ack: %v", outs)
	}
	if b := balance(t, r, 1); b != 400 {
		t.Fatalf("balance after commit = %d, want 400", b)
	}
	if r.HeldOn("1") != 0 {
		t.Fatalf("hold survived the decision: %d", r.HeldOn("1"))
	}
	// A duplicate decision re-acks without re-applying.
	deliver(t, r, 4, commit("ta"))
	if b := balance(t, r, 1); b != 400 {
		t.Fatalf("duplicate decision re-applied: balance %d", b)
	}
	// Abort tb: no effect on the database.
	deliver(t, r, 5, EncodeDecision(Decision{TxID: "tb", Shard: 0, Coord: RouterLoc, Commit: false}))
	if b := balance(t, r, 1); b != 400 {
		t.Fatalf("abort changed the database: balance %d", b)
	}
	if r.OpenPrepares() != 0 {
		t.Fatalf("%d prepares still open", r.OpenPrepares())
	}
}

func TestReplicaDoesNotApplyUnpreparedCommit(t *testing.T) {
	r := testReplica(t, 0)
	// A commit for a transaction this replica never prepared is the
	// atomicity violation the checker flags; the replica acks (so the
	// coordinator can retire the transaction) but refuses to apply.
	outs := deliver(t, r, 0, commit("ghost"))
	if len(outs) != 1 || outs[0].M.Hdr != HdrAck {
		t.Fatalf("unprepared commit not acked: %v", outs)
	}
	for id := 0; id < 8; id++ {
		if b := balance(t, r, id); b != 1000 {
			t.Fatalf("unprepared commit mutated account %d: %d", id, b)
		}
	}
}

func TestReplicaInterleavesPlainAndTwoPC(t *testing.T) {
	r := testReplica(t, 0)
	dep, err := core.EncodeTx(core.TxRequest{Client: "c1", Seq: 1, Type: "deposit", Args: []any{2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	p := Prepare{
		TxID: "tx", Coord: RouterLoc, Shard: 0, Participants: []int{0, 1},
		Sub: SubTx{Reserve: map[string]int64{"2": 100}, Apply: "deposit", ApplyArgs: []any{2, -100}},
	}
	// One delivered batch: plain deposit, then the prepare. The prepare
	// must observe the deposit (its slice of the order precedes it).
	outs := deliver(t, r, 0, dep, EncodePrepare(p))
	var vote *Vote
	var reply *core.TxResult
	for _, d := range outs {
		switch b := d.M.Body.(type) {
		case Vote:
			v := b
			vote = &v
		case core.TxResult:
			res := b
			reply = &res
		}
	}
	if reply == nil || reply.Aborted {
		t.Fatalf("plain deposit in mixed batch not committed: %v", outs)
	}
	if vote == nil || !vote.OK {
		t.Fatalf("prepare in mixed batch not voted on: %v", outs)
	}
	if b := balance(t, r, 2); b != 1005 {
		t.Fatalf("balance = %d, want 1005", b)
	}
	// Duplicate Deliver from a second service node: fully ignored.
	if outs := deliver(t, r, 0, dep); outs != nil {
		t.Fatalf("duplicate slot produced output: %v", outs)
	}
}

// A slot that arrives past a gap — the replica missed slots 0–2 while
// down or partitioned — is not applied: it waits while the replica asks
// its peers for the missing range, and runs once the gap closes, after
// the slots it follows. Applying it on arrival would put its deposit
// ahead of a transfer ordered before it, and slots 0–2 would never be
// asked for.
func TestReplicaWaitsOutAGap(t *testing.T) {
	r := testReplica(t, 0)
	dep := func(seq int64, amt int) []byte {
		b, err := core.EncodeTx(core.TxRequest{Client: "c1", Seq: seq, Type: "deposit", Args: []any{2, amt}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	slots := [][]byte{dep(1, 5), EncodePrepare(debit("ta", 600)), commit("ta"), dep(2, 7)}

	outs := deliver(t, r, 3, slots[3])
	asked := false
	for _, o := range outs {
		switch {
		case o.M.Hdr == core.HdrTxResult:
			t.Errorf("slot 3 answered a client before slots 0–2 were applied: %v", o)
		case o.M.Hdr == core.HdrCatchupReq && o.Dest == ReplicaLoc(0, 1):
			asked = o.M.Body.(core.CatchupReq).After == -1
		}
	}
	if !asked {
		t.Errorf("gap at slot 3 sent %v, want a catch-up request for everything after slot -1 to the shard's peer", outs)
	}
	if b, n := balance(t, r, 2), r.Executor().Executed; b != 1000 || n != 0 {
		t.Fatalf("slot 3 applied across the gap: balance(2) = %d, %d executed", b, n)
	}

	for s := 0; s < 3; s++ {
		deliver(t, r, s, slots[s])
	}
	if r.LastSlot() != 3 || r.Executor().Executed != 2 {
		t.Errorf("after the gap closed: frontier %d, %d executed; want slot 3 and both deposits", r.LastSlot(), r.Executor().Executed)
	}
	if b1, b2 := balance(t, r, 1), balance(t, r, 2); b1 != 400 || b2 != 1012 {
		t.Errorf("books after the gap closed: account 1 = %d (want 400), account 2 = %d (want 1012)", b1, b2)
	}
	if r.HeldOn("1") != 0 || r.OpenPrepares() != 0 {
		t.Errorf("ledger after the decision: held %d, %d open prepares", r.HeldOn("1"), r.OpenPrepares())
	}
}

// A state transfer carries the ledger: the replica it brings up to date
// holds the reservation its sender's vote made, counts it against the
// next prepare, and releases it when the decision arrives.
func TestReplicaTransferCarriesTheLedger(t *testing.T) {
	src := testReplica(t, 0)
	deliver(t, src, 0, EncodePrepare(debit("ta", 600)))
	_, xfer := src.Step(msg.M(core.HdrCatchupReq, core.CatchupReq{From: ReplicaLoc(0, 1), After: -1}))
	dst := testReplica(t, 0)
	for _, o := range xfer {
		dst.Step(o.M)
	}
	if dst.LastSlot() != 0 || dst.HeldOn("1") != 600 || dst.OpenPrepares() != 1 {
		t.Fatalf("after the transfer: frontier %d, held %d, %d open prepares; want 0, 600, 1",
			dst.LastSlot(), dst.HeldOn("1"), dst.OpenPrepares())
	}
	if v := voteOf(t, deliver(t, dst, 1, EncodePrepare(debit("tb", 600)))); v.OK {
		t.Error("vote on tb ignored the transferred reservation")
	}
	deliver(t, dst, 2, commit("ta"))
	if b := balance(t, dst, 1); b != 400 || dst.HeldOn("1") != 0 {
		t.Errorf("after the decision: balance %d, held %d; want 400 and 0", b, dst.HeldOn("1"))
	}
}

// The shard replica as a client of store.Journal, for the recovery table
// every client runs. Unit n is slot n-1 and one half of transfer
// (n+1)/2: odd units deliver its prepare, even units its commit — so a
// row that restarts after an odd unit restarts between a prepare and its
// decision, with the reservation held only in the ledger.
func ledgerUnit(n int) broadcast.Deliver {
	id := fmt.Sprintf("t%d", (n+1)/2)
	if n%2 == 1 {
		return slotOf(n-1, EncodePrepare(debit(id, 10)))
	}
	return slotOf(n-1, commit(id))
}

var replicaClient = recoverytest.Client{
	Open: func(t testing.TB, st store.Stable, fresh bool) (recoverytest.Instance, error) {
		rows := 0
		if fresh {
			rows = 8 // a restart rebuilds them from the store alone
		}
		r, err := openReplica(0, bankDB(t, rows), st)
		if err != nil {
			return recoverytest.Instance{}, err
		}
		exec := r.Executor()
		return recoverytest.Instance{
			Apply:    func(n int) { r.Step(msg.M(broadcast.HdrDeliver, ledgerUnit(n))) },
			Frontier: func() int { return r.LastSlot() + 1 },
			State: func() string {
				return fmt.Sprintf("held %d prepared %v decided %v executed %d rows %x",
					r.HeldOn("1"), r.prepared, r.decided, exec.Executed, exec.DB.AppendDump(nil))
			},
			Compact: exec.Compact,
		}, nil
	},
	// Unit n's record is the one a replica journals when it applies it.
	Records: func(t testing.TB, n int) [][]byte {
		st, _ := store.NewMem().Open("records")
		r, err := openReplica(0, bankDB(t, 8), st)
		if err != nil {
			t.Fatal(err)
		}
		for u := 1; u <= n; u++ {
			r.Step(msg.M(broadcast.HdrDeliver, ledgerUnit(u)))
		}
		var recs [][]byte
		if err := st.Replay(func(rec []byte) error { recs = append(recs, rec); return nil }); err != nil || len(recs) != n {
			t.Fatalf("replica journaled %d records for %d units: %v", len(recs), n, err)
		}
		return recs[n-1:]
	},
	OldRecords: func(t testing.TB, n int) [][]byte {
		d := ledgerUnit(n)
		return [][]byte{gobBytes(t, oldSlotRecord{Slot: d.Slot, Msgs: d.Msgs})}
	},
	// An SNP2 snapshot: the magic, the header's length, a gob header
	// whose Ext is the gob ledger, and the database image.
	OldSnapshot: func(t testing.TB, n int) []byte {
		ledger := gobBytes(t, oldLedgerImage{Prepared: map[string]oldPendingPrep{}, Decided: map[string]Decision{}})
		h := gobBytes(t, oldSnapHeader{Slot: n - 1, Executed: int64(n), LastSeq: map[string]int64{"c1": int64(n)}, Ext: ledger})
		snap := binary.BigEndian.AppendUint32([]byte("SNP2"), uint32(len(h)))
		return bankDB(t, 8).AppendDump(append(snap, h...))
	},
}

// The gob snapshot header of an SMR replica, with the ledger's share in
// Ext, before both were written with the wire codec.
type (
	oldSnapHeader struct {
		Slot     int
		Executed int64
		LastSeq  map[string]int64
		Recent   []core.TxResult
		Epochs   []member.Config
		Joined   map[msg.Loc]int
		Ext      []byte
	}
	oldPendingPrep struct {
		P  Prepare
		OK bool
	}
	oldLedgerImage struct {
		Prepared map[string]oldPendingPrep
		Decided  map[string]Decision
	}
)

// oldSlotRecord is the gob record an SMR replica journaled before its
// records were wire bodies, copied here under another name (gob matches
// fields by name; the type's name is only in the type descriptor).
type oldSlotRecord struct {
	Slot int
	Msgs []broadcast.Bcast
}

func TestShardReplicaRecovery(t *testing.T) { recoverytest.Run(t, replicaClient) }

func FuzzShardReplicaRecover(f *testing.F) { recoverytest.Fuzz(f, replicaClient) }
