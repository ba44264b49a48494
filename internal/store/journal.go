package store

// Journal is a Stable whose owner compacts it into full-state
// snapshots, plus the rule that says when: compact once at least floor
// records AND at least as many record bytes as the last snapshot
// occupied have been appended since that snapshot.
//
// Rewriting the whole state costs in proportion to its size, so a fixed
// record cadence makes every journaled byte of a large database pay for
// many snapshot bytes. Under this rule the journal has grown to the
// snapshot's size by the time it is folded in, so compaction writes at
// most one snapshot byte per journaled byte, and recovery replays at
// most one snapshot's worth of journal (plus the floor, for states so
// small that the byte condition is always met).
//
// Journal counts what passes through it: Append adds to the tail,
// SaveSnapshot resets it, and Snapshot and Replay — which recovery
// calls before any traffic — re-establish the counts of a reopened
// store.
type Journal struct {
	Stable
	floor     int
	recs      int
	bytes     int
	snapBytes int
}

// NewJournal wraps st. floor is the minimum number of records between
// two compactions.
func NewJournal(st Stable, floor int) *Journal {
	return &Journal{Stable: st, floor: floor}
}

// Append journals one record and counts it toward the next compaction.
func (j *Journal) Append(rec []byte) error {
	if err := j.Stable.Append(rec); err != nil {
		return err
	}
	j.recs++
	j.bytes += len(rec)
	return nil
}

// Due reports whether the journal tail has outgrown the rule and the
// owner should SaveSnapshot.
func (j *Journal) Due() bool {
	return j.recs >= j.floor && j.bytes >= j.snapBytes
}

// SaveSnapshot replaces the snapshot, empties the tail and starts
// counting against the new snapshot's size.
func (j *Journal) SaveSnapshot(snap []byte) error {
	if err := j.Stable.SaveSnapshot(snap); err != nil {
		return err
	}
	j.recs, j.bytes, j.snapBytes = 0, 0, len(snap)
	return nil
}

// Snapshot returns the stored snapshot and notes its size.
func (j *Journal) Snapshot() ([]byte, bool, error) {
	snap, ok, err := j.Stable.Snapshot()
	if err == nil && ok {
		j.snapBytes = len(snap)
	}
	return snap, ok, err
}

// Replay walks the tail and recounts it: what is replayed is exactly
// what has been appended since the last snapshot.
func (j *Journal) Replay(fn func(rec []byte) error) error {
	recs, bytes := 0, 0
	err := j.Stable.Replay(func(rec []byte) error {
		recs++
		bytes += len(rec)
		return fn(rec)
	})
	if err == nil {
		j.recs, j.bytes = recs, bytes
	}
	return err
}
