package store

import "testing"

// The rule itself, on a Mem store: both conditions are needed, a saved
// snapshot resets the tail and sets the byte bar, and a reopened store
// recounts its tail from Snapshot + Replay.
func TestJournalCompactionRule(t *testing.T) {
	prov := NewMem()
	st, _ := prov.Open("j")
	j := NewJournal(st, 3)
	rec := make([]byte, 10)

	if j.Due() {
		t.Error("an empty journal is due")
	}
	if err := j.SaveSnapshot(make([]byte, 45)); err != nil {
		t.Fatal(err)
	}
	for i, wantDue := range []bool{false, false, false, false, true} {
		// 3 records reach the floor at 30 bytes; the 45-byte snapshot
		// holds compaction off until the fifth.
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if j.Due() != wantDue {
			t.Errorf("after %d records of 10 bytes against a 45-byte snapshot and floor 3: Due = %v", i+1, j.Due())
		}
	}

	// A new incarnation over the same store sees the same tail.
	st2, _ := prov.Open("j")
	j2 := NewJournal(st2, 3)
	if snap, ok, err := j2.Snapshot(); err != nil || !ok || len(snap) != 45 {
		t.Fatalf("reopened snapshot: %d bytes, %v, %v", len(snap), ok, err)
	}
	n := 0
	if err := j2.Replay(func([]byte) error { n++; return nil }); err != nil || n != 5 {
		t.Fatalf("replayed %d records (%v), want 5", n, err)
	}
	if !j2.Due() {
		t.Error("the reopened journal forgot the tail it replayed")
	}
	// Replay is also how a peer's catch-up is served; it must not count
	// the tail twice.
	_ = j2.Replay(func([]byte) error { return nil })
	if err := j2.SaveSnapshot(make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if j2.Due() {
		t.Error("due right after a snapshot")
	}
	for i := 0; i < 2; i++ {
		_ = j2.Append(rec)
	}
	if j2.Due() {
		t.Error("due below the record floor, though past the 5-byte snapshot")
	}
	_ = j2.Append(rec)
	if !j2.Due() {
		t.Error("not due at the floor with a tail larger than the snapshot")
	}
}
