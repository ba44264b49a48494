package core

import (
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

func bankDB(t testing.TB, name string, rows int) *sqldb.DB {
	t.Helper()
	db, err := sqldb.Open("h2:mem:" + name)
	if err != nil {
		t.Fatal(err)
	}
	if rows > 0 {
		if err := BankSetup(db, rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func emptyDB(t testing.TB, name string) *sqldb.DB { return bankDB(t, name, 0) }

func mustOpen(t testing.TB, prov store.Provider, name string) store.Stable {
	t.Helper()
	st, err := prov.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func durDeposit(seq int64) TxRequest {
	return TxRequest{Client: "c0", Seq: seq, Type: "deposit", Args: []any{1, 5}}
}

func depositDeliver(t testing.TB, slot int) broadcast.Deliver {
	t.Helper()
	pay, err := EncodeTx(durDeposit(int64(slot + 1)))
	if err != nil {
		t.Fatal(err)
	}
	return broadcast.Deliver{Slot: slot, Msgs: []broadcast.Bcast{{From: "c0", Seq: int64(slot + 1), Payload: pay}}}
}

// deliverRecord encodes a slot as its SMR journal record.
func deliverRecord(d broadcast.Deliver) []byte {
	rec, err := msg.AppendBody(nil, d)
	if err != nil {
		panic(err)
	}
	return rec
}

// slotRecord is depositDeliver's SMR journal record, as a peer serves
// it in a Catchup.
func slotRecord(t testing.TB, slot int) []byte {
	return deliverRecord(depositDeliver(t, slot))
}

// orderRecord is a PBR journal record, as the primary serves it in a
// Catchup.
func orderRecord(order int64, req TxRequest) []byte {
	rec, err := msg.AppendBody(nil, Repl{Order: order, Req: req})
	if err != nil {
		panic(err)
	}
	return rec
}

// openSMR opens a volatile bank replica.
func openSMR(t testing.TB, slf msg.Loc, db *sqldb.DB, joiner bool) *SMRReplica {
	t.Helper()
	r, err := OpenSMRReplica(SMRConfig{Self: slf, DB: db, Registry: BankRegistry(), Joiner: joiner})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func stepDeliver(r *SMRReplica, d broadcast.Deliver) []msg.Directive {
	_, outs := r.Step(msg.M(broadcast.HdrDeliver, d))
	return outs
}

func mustDirProv(t *testing.T) *store.Dir {
	t.Helper()
	d, err := store.NewDir(t.TempDir(), store.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A restarted replica fetches only the delta over the network: the
// peer serves the missing slots from its journal, and the catch-up
// application is quiet (the live replicas already answered those
// clients).
func TestDurableSMRDelta(t *testing.T) {
	prov := store.NewMem()
	db1 := bankDB(t, "cd-r1", 10)
	r1, err := NewDurableSMRReplica("r1", db1, BankRegistry(), mustOpen(t, prov, "r1"), []msg.Loc{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	db2 := bankDB(t, "cd-r2", 10)
	r2, err := NewDurableSMRReplica("r2", db2, BankRegistry(), mustOpen(t, prov, "r2"), []msg.Loc{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	// r1 sees everything; r2 crashes after slot 2.
	for s := 0; s < 6; s++ {
		stepDeliver(r1, depositDeliver(t, s))
		if s <= 2 {
			stepDeliver(r2, depositDeliver(t, s))
		}
	}

	db2b := emptyDB(t, "cd-r2b")
	r2b, err := NewDurableSMRReplica("r2", db2b, BankRegistry(), mustOpen(t, prov, "r2"), []msg.Loc{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	if r2b.LastSlot() != 2 {
		t.Fatalf("local recovery frontier = %d, want 2", r2b.LastSlot())
	}
	// One immediate request per peer plus one delayed retry (the first
	// round can be lost to a stale connection on a live network).
	reqs := r2b.RecoveryDirectives()
	if len(reqs) != 2 || reqs[0].M.Hdr != HdrCatchupReq || reqs[0].Delay != 0 {
		t.Fatalf("recovery directives = %v, want an immediate catch-up request plus a delayed retry", reqs)
	}
	if reqs[1].M.Hdr != HdrCatchupReq || reqs[1].Delay == 0 {
		t.Fatalf("second directive = %v, want a delayed duplicate of the catch-up request", reqs[1])
	}
	_, reply := r1.Step(reqs[0].M)
	if len(reply) != 1 || reply[0].M.Hdr != HdrCatchup {
		t.Fatalf("peer answered %v, want one Catchup", reply)
	}
	cu := reply[0].M.Body.(Catchup)
	if len(cu.Records) != 3 {
		t.Fatalf("delta carries %d slots, want 3 (slots 3..5)", len(cu.Records))
	}
	_, outs := r2b.Step(reply[0].M)
	for _, o := range outs {
		if o.M.Hdr == HdrTxResult {
			t.Error("catch-up application re-answered a client")
		}
	}
	if r2b.LastSlot() != 5 {
		t.Errorf("post-catch-up frontier = %d, want 5", r2b.LastSlot())
	}
	if !sqldb.Equal(db1, db2b) {
		t.Error("caught-up replica differs from the live one")
	}

	// A live delivery with a gap parks and re-requests; the delta fills
	// the hole and the parked slot drains.
	gap := stepDeliver(r2b, depositDeliver(t, 7))
	if len(gap) == 0 || gap[0].M.Hdr != HdrCatchupReq {
		t.Fatalf("gap delivery produced %v, want a catch-up request", gap)
	}
	_, outs = r2b.Step(msg.M(HdrCatchup, Catchup{Records: [][]byte{slotRecord(t, 6)}}))
	if r2b.LastSlot() != 7 {
		t.Errorf("frontier after gap fill = %d, want 7 (parked slot drained)", r2b.LastSlot())
	}
	_ = outs
}

// A peer whose journal was compacted past the requested range falls
// back to a full state transfer, and the requester installs it.
func TestDurableSMRDeltaSnapshotFallback(t *testing.T) {
	prov := store.NewMem()
	db1 := bankDB(t, "fb-r1", 10)
	r1, err := NewDurableSMRReplica("r1", db1, BankRegistry(), mustOpen(t, prov, "r1"), []msg.Loc{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	n := DefaultSnapEvery + 3 // past a compaction: the journal no longer reaches slot 0
	for s := 0; s < n; s++ {
		stepDeliver(r1, depositDeliver(t, s))
	}
	_, reply := r1.Step(msg.M(HdrCatchupReq, CatchupReq{From: "r2", After: 1}))
	if len(reply) < 2 || reply[0].M.Hdr != HdrSnapPart {
		t.Fatalf("compacted peer answered %v, want a state transfer", reply[0].M.Hdr)
	}

	db2 := bankDB(t, "fb-r2", 10)
	r2, err := NewDurableSMRReplica("r2", db2, BankRegistry(), mustOpen(t, prov, "r2"), []msg.Loc{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	stepDeliver(r2, depositDeliver(t, 0))
	stepDeliver(r2, depositDeliver(t, 1))
	for _, o := range reply {
		r2.Step(o.M)
	}
	if r2.LastSlot() != n-1 {
		t.Errorf("post-transfer frontier = %d, want %d", r2.LastSlot(), n-1)
	}
	if !sqldb.Equal(db1, db2) {
		t.Error("transferred state differs from the sender")
	}
	// The transfer re-baselined the store: a fresh incarnation recovers
	// the transferred state locally.
	db2b := emptyDB(t, "fb-r2b")
	r2b, err := NewDurableSMRReplica("r2", db2b, BankRegistry(), mustOpen(t, prov, "r2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2b.LastSlot() != n-1 || !sqldb.Equal(db1, db2b) {
		t.Error("state transfer was not persisted as the new baseline")
	}
}

// The joining-replica snapshot path must survive message duplication —
// every transfer message delivered twice must not double rows or
// complete the assembly early — and a replacement transfer started while
// stragglers of a superseded one are still arriving: the stragglers
// carry the old transfer's number and must not be counted into the
// replacement, whose rows differ.
func TestSMRJoiningSnapshotDuplicated(t *testing.T) {
	db1 := bankDB(t, "dup-r1", 120)
	r1 := openSMR(t, "r1", db1, false)
	for s := 0; s < 3; s++ {
		stepDeliver(r1, depositDeliver(t, s))
	}
	stale := r1.transferTo("r2")
	for s := 3; s < 6; s++ {
		stepDeliver(r1, depositDeliver(t, s))
	}
	xfer := r1.transferTo("r2")
	if len(xfer) < 2 || len(stale) != len(xfer) {
		t.Fatalf("transfers have %d and %d messages, want the same header+image parts", len(stale), len(xfer))
	}

	db2 := emptyDB(t, "dup-r2")
	r2 := openSMR(t, "r2", db2, true)
	r2.Step(stale[0].M)
	for i, o := range xfer {
		if i > 0 {
			r2.Step(stale[i].M) // straggler of the superseded transfer
		}
		r2.Step(o.M)
		r2.Step(o.M) // duplicate every message
	}
	if !r2.Active() {
		t.Fatal("joining replica did not activate")
	}
	if r2.LastSlot() != 5 || !sqldb.Equal(db1, db2) {
		t.Errorf("joined at slot %d (want 5), databases equal: %v — stragglers or duplicates corrupted the joined state",
			r2.LastSlot(), sqldb.Equal(db1, db2))
	}
}

// A dropped part followed by a retransmission of the missing part must
// still complete with exactly one copy of every row.
func TestSMRJoiningSnapshotDroppedThenRetransmitted(t *testing.T) {
	db1 := bankDB(t, "drop-r1", 120)
	r1 := openSMR(t, "r1", db1, false)
	xfer := r1.transferTo("r2")

	// Drop the first image part (the header part comes before it).
	dropIdx := 1
	if len(xfer) <= dropIdx {
		t.Fatal("transfer carries no image part")
	}

	db2 := emptyDB(t, "drop-r2")
	r2 := openSMR(t, "r2", db2, true)
	for i, o := range xfer {
		if i == dropIdx {
			continue // the network ate this part
		}
		r2.Step(o.M)
	}
	if r2.Active() {
		t.Fatal("assembly completed with a part missing")
	}
	// The sender retransmits the missing part; every other part already
	// arrived, so its arrival completes the assembly.
	r2.Step(xfer[dropIdx].M)
	if !r2.Active() {
		t.Fatal("retransmitted part did not complete the assembly")
	}
	if !sqldb.Equal(db1, db2) {
		t.Error("retransmitted transfer corrupted the joined state")
	}
}
