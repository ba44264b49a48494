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

// A journal tail longer than one message should carry is served to a
// recovering peer in chunks, which it applies in arrival order.
func TestDurableSMRDeltaIsChunked(t *testing.T) {
	prov := store.NewMem()
	peers := []msg.Loc{"r1", "r2"}
	spy := &spyStable{Stable: mustOpen(t, prov, "r1"), t: t, floor: DefaultSnapEvery}
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
	_, reply := r1.Step(msg.M(HdrCatchupReq, CatchupReq{From: "r2", After: behind}))
	if len(reply) != 2 {
		t.Fatalf("a %d-byte tail was served in %d messages, want 2 chunks of at most %d bytes", spy.tailBytes, len(reply), catchupChunk)
	}
	next := behind + 1
	for _, o := range reply {
		cu, ok := o.M.Body.(Catchup)
		if !ok || len(cu.Records) == 0 {
			t.Fatalf("chunk %v carries no records", o.M.Hdr)
		}
		for _, rec := range cu.Records {
			if slot, ok := slotOf(rec); !ok || slot != int64(next) {
				t.Fatalf("chunk %v does not continue at slot %d", o.M.Hdr, next)
			}
			next++
		}
		r2.Step(o.M)
	}
	if next != slots || r2.LastSlot() != slots-1 || !sqldb.Equal(db1, db2) {
		t.Errorf("chunks cover up to slot %d and r2 reached %d, want %d; databases equal: %v", next-1, r2.LastSlot(), slots-1, sqldb.Equal(db1, db2))
	}
}
