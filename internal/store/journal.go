package store

import "fmt"

// DefaultFloor is the fewest records a Journal appends between two
// compactions unless its owner asks for another floor.
const DefaultFloor = 64

// Journal is the durable log of one component: the journal → compact →
// recover loop over a Stable (doc.go states the contract and the decode
// policy). The owner appends records and supplies its whole state when
// asked; the Journal asks once at least floor records AND at least as
// many record bytes as the last snapshot occupied have been appended
// since that snapshot. Rewriting the whole state costs in proportion to
// its size, so a fixed record cadence makes every journaled byte of a
// large state pay for many snapshot bytes; under this rule the tail has
// grown to the snapshot's size by the time it is folded in.
type Journal struct {
	name      string
	st        Stable
	floor     int
	recs      int
	bytes     int
	snapBytes int
}

// NewJournal wraps st for the component called name (Recover's errors
// carry it; the store's own I/O errors carry the file's path).
// floor <= 0 selects DefaultFloor. Call Recover before anything else.
func NewJournal(name string, st Stable, floor int) *Journal {
	if floor <= 0 {
		floor = DefaultFloor
	}
	return &Journal{name: name, st: st, floor: floor}
}

// Recover rebuilds the owner's state from the store: the snapshot, if
// one exists, goes to restore, then every record of the tail goes to
// replay in append order. It re-establishes the rule's counts and
// reports whether the store held anything. An unreadable snapshot, or
// an error from restore or replay — bytes that passed the store's CRC
// and still do not decode — fails the recovery: the owner must not
// start on part of its state.
func (j *Journal) Recover(restore, replay func([]byte) error) (found bool, err error) {
	snap, found, err := j.st.Snapshot()
	if err == nil && found {
		err = restore(snap)
	}
	if err != nil {
		return false, fmt.Errorf("store: journal %s: snapshot: %w", j.name, err)
	}
	recs, size := 0, 0
	err = j.st.Replay(func(rec []byte) error {
		if err := replay(rec); err != nil {
			return fmt.Errorf("store: journal %s: record %d: %w", j.name, recs, err)
		}
		recs++
		size += len(rec)
		return nil
	})
	if err != nil {
		return false, err
	}
	j.recs, j.bytes, j.snapBytes = recs, size, len(snap)
	return found || recs > 0, nil
}

// Append journals one record and counts it toward the next compaction.
func (j *Journal) Append(rec []byte) error {
	if err := j.st.Append(rec); err != nil {
		return err
	}
	j.recs++
	j.bytes += len(rec)
	return nil
}

// Sync makes every appended record stable (see Stable.Sync).
func (j *Journal) Sync() error { return j.st.Sync() }

// CompactIfDue folds the tail into snapshot() when it has outgrown the
// rule, and reports whether it did.
func (j *Journal) CompactIfDue(snapshot func() []byte) (bool, error) {
	if j.recs < j.floor || j.bytes < j.snapBytes {
		return false, nil
	}
	return true, j.Compact(snapshot())
}

// Compact replaces the snapshot with snap — the owner's whole state,
// covering every record appended so far — and empties the tail.
func (j *Journal) Compact(snap []byte) error {
	if err := j.st.SaveSnapshot(snap); err != nil {
		return err
	}
	j.recs, j.bytes, j.snapBytes = 0, 0, len(snap)
	return nil
}

// Replay calls fn for every record appended since the last compaction,
// in append order: what a peer's catch-up is served from.
func (j *Journal) Replay(fn func(rec []byte) error) error {
	return j.st.Replay(fn)
}
