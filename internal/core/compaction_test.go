package core

import (
	"testing"

	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// spyStable sits under the replica's store.Journal and records what
// the compaction rule does to the store: the journal tail since the
// last snapshot, and every snapshot's size.
type spyStable struct {
	store.Stable
	t *testing.T
	// floor is the rule's record floor; floorBytes the bytes of the
	// first floor records of the current tail.
	floor                    int
	tailRecs, tailBytes      int
	floorBytes, snapBytes    int
	snaps, appended, written int
}

func (s *spyStable) Append(rec []byte) error {
	s.tailRecs++
	s.tailBytes += len(rec)
	s.appended += len(rec)
	if s.tailRecs <= s.floor {
		s.floorBytes = s.tailBytes
	}
	// The bound the rule promises: the tail is one record past the
	// larger of the snapshot and the floor, at most.
	if limit := max(s.snapBytes, s.floorBytes) + len(rec); s.tailBytes > limit {
		s.t.Fatalf("journal tail %d bytes (%d records) exceeds max(snapshot %d, floor %d) + one record %d",
			s.tailBytes, s.tailRecs, s.snapBytes, s.floorBytes, len(rec))
	}
	return s.Stable.Append(rec)
}

func (s *spyStable) SaveSnapshot(snap []byte) error {
	if s.snaps > 0 && (s.tailRecs < s.floor || s.tailBytes < s.snapBytes) {
		s.t.Fatalf("compacted early: tail of %d records / %d bytes against floor %d and a %d-byte snapshot",
			s.tailRecs, s.tailBytes, s.floor, s.snapBytes)
	}
	s.snaps++
	s.written += len(snap)
	s.snapBytes, s.tailRecs, s.tailBytes, s.floorBytes = len(snap), 0, 0, 0
	return s.Stable.SaveSnapshot(snap)
}

// With a database much larger than 64 slots of journal, a durable SMR
// replica compacts when the journal has grown to the snapshot's size —
// not every 64 slots — so snapshot bytes written stay within the bytes
// journaled; and a fresh incarnation recovers from that snapshot plus a
// tail far longer than 64 records.
func TestSMRCompactionAmortisedAgainstSnapshotSize(t *testing.T) {
	prov := store.NewMem()
	spy := &spyStable{Stable: mustOpen(t, prov, "r1"), t: t, floor: smrSnapEvery}
	db := bankDB(t, "amort-r1", 4000)
	r1, err := NewDurableSMRReplica("r1", db, BankRegistry(), spy, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline := spy.written
	// Two compactions, then a tail well past the floor.
	slots := 0
	for ; spy.snaps < 3 || spy.tailRecs < 2*smrSnapEvery; slots++ {
		if slots > 20_000 {
			t.Fatalf("%d compactions after %d slots", spy.snaps-1, slots)
		}
		stepDeliver(r1, depositDeliver(t, slots))
	}
	compactions := spy.snaps - 1
	if compactions >= slots/smrSnapEvery/2 {
		t.Errorf("%d compactions in %d slots of a %d-byte database: want a few, far fewer than the %d a fixed cadence makes",
			compactions, slots, baseline, slots/smrSnapEvery)
	}
	if rewritten := spy.written - baseline; rewritten > spy.appended {
		t.Errorf("compaction wrote %d snapshot bytes for %d journaled bytes; the rule bounds it by the journal", rewritten, spy.appended)
	}

	db2 := emptyDB(t, "amort-r1b")
	spy2 := &spyStable{Stable: mustOpen(t, prov, "r1"), t: t, floor: smrSnapEvery, snaps: 1, snapBytes: spy.snapBytes}
	r1b, err := NewDurableSMRReplica("r1", db2, BankRegistry(), spy2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1b.LastSlot() != slots-1 || !sqldb.Equal(db, db2) {
		t.Errorf("recovered to slot %d (want %d), databases equal: %v", r1b.LastSlot(), slots-1, sqldb.Equal(db, db2))
	}
	// The new incarnation inherits the tail it replayed: it keeps the
	// bound (checked in Append) and compacts when the old one would have.
	spy2.tailRecs, spy2.tailBytes, spy2.floorBytes = spy.tailRecs, spy.tailBytes, spy.floorBytes
	for s := slots; spy2.snaps == 1; s++ {
		if s > 2*slots {
			t.Fatal("restarted replica never compacted")
		}
		stepDeliver(r1b, depositDeliver(t, s))
	}
}

// The executor (durable PBR) follows the same rule through the same
// store.Journal, with snapEvery as the floor.
func TestExecutorCompactionAmortisedAgainstSnapshotSize(t *testing.T) {
	prov := store.NewMem()
	dep := PBRDeployment{Pool: []msg.Loc{"p1", "p2"}, InitialMembers: 2}
	spy := &spyStable{Stable: mustOpen(t, prov, "p2"), t: t, floor: DefaultSnapEvery}
	db := bankDB(t, "amort-p2", 4000)
	r, _, err := NewDurablePBRReplica("p2", db, BankRegistry(), dep, spy, DefaultSnapEvery)
	if err != nil {
		t.Fatal(err)
	}
	baseline := spy.written
	const txs = 3000
	for i := int64(1); i <= txs; i++ {
		if _, err := r.Executor().Apply(i, durDeposit(i)); err != nil {
			t.Fatal(err)
		}
	}
	compactions := spy.snaps - 1
	if compactions < 1 || compactions >= txs/DefaultSnapEvery/2 {
		t.Errorf("%d compactions in %d transactions, want a few (a fixed cadence makes %d)", compactions, txs, txs/DefaultSnapEvery)
	}
	if rewritten := spy.written - baseline; rewritten > spy.appended {
		t.Errorf("compaction wrote %d snapshot bytes for %d journaled bytes", rewritten, spy.appended)
	}

	db2 := emptyDB(t, "amort-p2b")
	r2, restored, err := NewDurablePBRReplica("p2", db2, BankRegistry(), dep, mustOpen(t, prov, "p2"), DefaultSnapEvery)
	if err != nil || !restored {
		t.Fatalf("restart: restored=%v err=%v", restored, err)
	}
	if r2.Executor().Executed != txs || !sqldb.Equal(db, db2) {
		t.Errorf("recovered Executed = %d (want %d), databases equal: %v", r2.Executor().Executed, txs, sqldb.Equal(db, db2))
	}
}

// A snapshot file in the layout this one replaced (one gob stream) is
// refused with an error, not skipped: skipping it would replay the
// journal tail onto an empty database.
func TestRecoveryRefusesUnknownSnapshotFormat(t *testing.T) {
	prov := store.NewMem()
	st := mustOpen(t, prov, "r1")
	if err := st.SaveSnapshot(gobEnc(struct{ Slot int }{Slot: 5})); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurableSMRReplica("r1", emptyDB(t, "old-r1"), BankRegistry(), st, nil); err == nil {
		t.Error("SMR recovery accepted a snapshot it cannot read")
	}
	exec := NewExecutor(emptyDB(t, "old-p1"), BankRegistry())
	exec.SetStable(st, 0)
	if _, err := exec.Recover(); err == nil {
		t.Error("executor recovery accepted a snapshot it cannot read")
	}
}

// A journal tail longer than one message should carry is served to a
// recovering peer in chunks, which it applies in arrival order.
func TestDurableSMRCatchupDeltaIsChunked(t *testing.T) {
	prov := store.NewMem()
	peers := []msg.Loc{"r1", "r2"}
	spy := &spyStable{Stable: mustOpen(t, prov, "r1"), t: t, floor: smrSnapEvery}
	db1 := bankDB(t, "chunk-r1", 120_000) // a snapshot well over catchupChunk, so the tail may be too
	r1, err := NewDurableSMRReplica("r1", db1, BankRegistry(), spy, peers)
	if err != nil {
		t.Fatal(err)
	}
	db2 := bankDB(t, "chunk-r2", 120_000)
	r2, err := NewDurableSMRReplica("r2", db2, BankRegistry(), mustOpen(t, prov, "r2"), peers)
	if err != nil {
		t.Fatal(err)
	}
	const behind = 10 // r2 stops hearing deliveries after this slot
	slots := 0
	for ; spy.tailBytes < catchupChunk*3/2; slots++ {
		if spy.snaps > 1 {
			t.Fatalf("r1 compacted after %d slots; the test wants an uncompacted tail of %d bytes", slots, catchupChunk*3/2)
		}
		stepDeliver(r1, depositDeliver(t, slots))
		if slots <= behind {
			stepDeliver(r2, depositDeliver(t, slots))
		}
	}
	_, reply := r1.Step(msg.M(HdrSMRCatchupReq, SMRCatchupReq{From: "r2", After: behind}))
	if len(reply) != 2 {
		t.Fatalf("a %d-byte tail was served in %d messages, want 2 chunks of at most %d bytes", spy.tailBytes, len(reply), catchupChunk)
	}
	next := behind + 1
	for _, o := range reply {
		cu, ok := o.M.Body.(SMRCatchup)
		if !ok || len(cu.Delivers) == 0 || cu.Delivers[0].Slot != next {
			t.Fatalf("chunk %v does not continue at slot %d", o.M.Hdr, next)
		}
		next += len(cu.Delivers)
		r2.Step(o.M)
	}
	if next != slots || r2.LastSlot() != slots-1 || !sqldb.Equal(db1, db2) {
		t.Errorf("chunks cover up to slot %d and r2 reached %d, want %d; databases equal: %v", next-1, r2.LastSlot(), slots-1, sqldb.Equal(db1, db2))
	}
}
