package store

import (
	"errors"
	"strings"
	"testing"
)

func nop([]byte) error { return nil }

// The rule itself, on a Mem store: both conditions are needed, a
// compaction resets the tail and sets the byte bar, and a reopened
// journal recounts its tail in Recover.
func TestJournalCompactionRule(t *testing.T) {
	prov := NewMem()
	st, _ := prov.Open("j")
	j := NewJournal("j", st, 3)
	rec := make([]byte, 10)
	snaps := 0
	snapshot := func(n int) func() []byte {
		return func() []byte { snaps++; return make([]byte, n) }
	}
	due := func(j *Journal, n int) bool {
		t.Helper()
		did, err := j.CompactIfDue(snapshot(n))
		if err != nil {
			t.Fatal(err)
		}
		return did
	}

	if found, err := j.Recover(nop, nop); found || err != nil {
		t.Fatalf("fresh store: found=%v err=%v", found, err)
	}
	if due(j, 0) {
		t.Error("an empty journal is due")
	}
	if err := j.Compact(make([]byte, 45)); err != nil {
		t.Fatal(err)
	}
	// 3 records reach the floor at 30 bytes; the 45-byte snapshot holds
	// compaction off until the fifth.
	for i := 1; i <= 4; i++ {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if due(j, 45) {
			t.Errorf("due after %d records of 10 bytes against a 45-byte snapshot and floor 3", i)
		}
	}
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}

	// A new incarnation over the same store sees the same snapshot and
	// tail, in order, and inherits the counts.
	st2, _ := prov.Open("j")
	j2 := NewJournal("j", st2, 3)
	var gotSnap, gotRecs int
	found, err := j2.Recover(
		func(snap []byte) error { gotSnap = len(snap); return nil },
		func(rec []byte) error { gotRecs++; return nil })
	if err != nil || !found || gotSnap != 45 || gotRecs != 5 {
		t.Fatalf("reopened: found=%v snapshot %d bytes, %d records, %v", found, gotSnap, gotRecs, err)
	}
	// Replay is how a peer's catch-up is served; it must not count the
	// tail twice.
	_ = j2.Replay(nop)
	if !due(j2, 5) {
		t.Error("the reopened journal forgot the tail it replayed")
	}
	if due(j2, 5) {
		t.Error("due right after a compaction")
	}
	for i := 0; i < 2; i++ {
		_ = j2.Append(rec)
	}
	if due(j2, 5) {
		t.Error("due below the record floor, though past the 5-byte snapshot")
	}
	_ = j2.Append(rec)
	if !due(j2, 5) {
		t.Error("not due at the floor with a tail larger than the snapshot")
	}
	if snaps != 2 {
		t.Errorf("snapshot function called %d times, want once per compaction (2)", snaps)
	}
}

// unreadable is a store whose snapshot cannot be read back.
type unreadable struct{ Stable }

func (unreadable) Snapshot() ([]byte, bool, error) { return nil, false, errors.New("bad sector") }

// The decode policy (doc.go): whatever Recover cannot read or its owner
// cannot decode fails the recovery, naming the journal and the record.
func TestJournalRecoverRefuses(t *testing.T) {
	boom := errors.New("does not decode")
	open := func(t *testing.T) Stable {
		st, _ := NewMem().Open("j")
		if err := st.SaveSnapshot([]byte("snap")); err != nil {
			t.Fatal(err)
		}
		for _, r := range []string{"r0", "r1", "r2"} {
			if err := st.Append([]byte(r)); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	cases := []struct {
		name    string
		st      func(*testing.T) Stable
		restore func([]byte) error
		replay  func([]byte) error
		want    string
	}{
		{"snapshot read error", func(t *testing.T) Stable { return unreadable{open(t)} }, nop, nop, "journal acc-a1: snapshot: bad sector"},
		{"snapshot refused", open, func([]byte) error { return boom }, nop, "journal acc-a1: snapshot: does not decode"},
		{"record refused", open, nop, func(r []byte) error {
			if string(r) == "r2" {
				return boom
			}
			return nil
		}, "journal acc-a1: record 2: does not decode"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			found, err := NewJournal("acc-a1", c.st(t), 0).Recover(c.restore, c.replay)
			if err == nil || found || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Recover = %v, %v; want an error containing %q", found, err, c.want)
			}
			if c.name != "snapshot read error" && !errors.Is(err, boom) {
				t.Errorf("the owner's error is not wrapped: %v", err)
			}
		})
	}
}
