package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"

	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// Executor durability. With a stable store attached, the executor
// journals every ordered transaction (the same Repl records it forwards
// to backups) and compacts the journal into a full database snapshot
// whenever the journal has outgrown it (store.Journal's rule). A
// restarted replica calls Recover to rebuild its state from the
// snapshot plus deterministic re-execution of the journal tail; the
// replication protocol then only has to fetch the transactions ordered
// during the downtime over the network.
//
// The write-ahead contract: appendLog (and therefore the journal write)
// runs inside Apply/applyInBatch, before the caller gets the TxResult
// it would reply with — a transaction is durable before any message
// reveals it executed.

// execRecord journals one ordered transaction.
type execRecord struct {
	Order int64
	Req   TxRequest
}

// execSnapshot is the header of the compacted journal: the execution
// frontier and the per-client dedup horizon (results are not kept;
// Duplicate answers pre-snapshot retries with an empty marker). The
// database image follows it (encodeSnapshot).
type execSnapshot struct {
	Executed int64
	LastSeq  map[string]int64
}

// DefaultSnapEvery is the default floor of the compaction rule
// (store.Journal): the fewest transactions between two compactions of
// the executor's journal.
const DefaultSnapEvery = 64

// SetStable attaches a stable store, compacted by store.Journal's rule
// with snapEvery as its floor. snapEvery <= 0 selects DefaultSnapEvery.
// Call before traffic; existing log entries are not retroactively
// journaled.
func (e *Executor) SetStable(st store.Stable, snapEvery int) {
	if snapEvery <= 0 {
		snapEvery = DefaultSnapEvery
	}
	e.st = store.NewJournal(st, snapEvery)
}

// journal appends one ordered transaction write-ahead of the reply. A
// storage failure panics: an executor that cannot persist must not
// answer.
func (e *Executor) journal(r Repl) {
	if e.st == nil || e.replaying {
		return
	}
	if err := e.st.Append(gobEnc(execRecord{Order: r.Order, Req: r.Req})); err != nil {
		panic(fmt.Sprintf("core: executor journal: %v", err))
	}
	if e.st.Due() {
		if err := e.Compact(); err != nil {
			panic(fmt.Sprintf("core: executor snapshot: %v", err))
		}
	}
}

// Compact saves a database snapshot to the stable store, truncating the
// journal behind it. Deployments call it once after installing the
// initial schema and population — rows that never travel through the
// journal are only recoverable from a snapshot.
func (e *Executor) Compact() error {
	if e.st == nil {
		return nil
	}
	return e.st.SaveSnapshot(encodeSnapshot(execSnapshot{Executed: e.Executed, LastSeq: e.LastSeqs()}, e.DB))
}

// Recover rebuilds the executor from its stable store: restore the
// snapshot, then deterministically re-execute the journal tail. It
// reports whether any durable state was found (false for a fresh
// store). The caller owns the network delta: after Recover, Executed is
// the local frontier and the protocol's usual catch-up
// (CatchupReq{Since: Executed} for PBR, the SMR slot catch-up) fetches
// what was ordered during the downtime.
func (e *Executor) Recover() (bool, error) {
	if e.st == nil {
		return false, nil
	}
	restored := false
	if b, ok, err := e.st.Snapshot(); err != nil {
		return false, err
	} else if ok {
		var snap execSnapshot
		if err := restoreSnapshot(b, &snap, e.DB); err != nil {
			return false, fmt.Errorf("core: executor snapshot: %w", err)
		}
		e.InstallSnapshot(snap.Executed)
		for c, s := range snap.LastSeq {
			e.SetLastSeq(c, s)
		}
		restored = true
	}
	e.replaying = true
	defer func() { e.replaying = false }()
	err := e.st.Replay(func(rec []byte) error {
		var r execRecord
		if gobDec(rec, &r) != nil {
			return nil // skip an undecodable record, keep the rest
		}
		if r.Order != e.Executed+1 {
			return nil // pre-snapshot straggler or duplicate
		}
		if _, err := e.Apply(r.Order, r.Req); err != nil {
			return err
		}
		restored = true
		return nil
	})
	return restored, err
}

// NewDurablePBRReplica creates a PBR replica whose executor journals to
// st, recovering any durable state first. It reports whether the
// replica came back from an existing store (true = a restart, not a
// fresh spare). The database must already hold the initial schema and
// population when the store is fresh: the baseline snapshot written
// here is the only place those rows are persisted.
func NewDurablePBRReplica(slf msg.Loc, db *sqldb.DB, reg Registry, dep PBRDeployment, st store.Stable, snapEvery int) (*PBRReplica, bool, error) {
	r := NewPBRReplica(slf, db, reg, dep)
	r.exec.SetStable(st, snapEvery)
	restored, err := r.exec.Recover()
	if err != nil {
		return nil, false, err
	}
	if !restored {
		if err := r.exec.Compact(); err != nil {
			return nil, false, err
		}
	}
	return r, restored, nil
}

// A durable snapshot is a small gob-encoded header (the protocol state
// at the frontier: execSnapshot, smrSnapshot) followed by the database
// image, written straight off the tables' indexes by sqldb.AppendDump:
//
//	"SNP2" | 4-byte big-endian header length | header | image
//
// The magic tells this layout from the all-gob one it replaced, whose
// files are refused rather than misread.
const snapMagic = "SNP2"

func encodeSnapshot(hdr any, db *sqldb.DB) []byte {
	h := gobEnc(hdr)
	buf := binary.BigEndian.AppendUint32([]byte(snapMagic), uint32(len(h)))
	return db.AppendDump(append(buf, h...))
}

// restoreSnapshot decodes a snapshot's header into hdr and installs its
// database image in db.
func restoreSnapshot(b []byte, hdr any, db *sqldb.DB) error {
	n := len(snapMagic)
	if len(b) < n+4 || string(b[:n]) != snapMagic {
		return errors.New("not a snapshot in the current format")
	}
	hlen := binary.BigEndian.Uint32(b[n:])
	body := b[n+4:]
	if uint64(hlen) > uint64(len(body)) {
		return errors.New("truncated snapshot header")
	}
	if err := gobDec(body[:hlen], hdr); err != nil {
		return fmt.Errorf("snapshot header: %w", err)
	}
	dumps, err := sqldb.DecodeDump(body[hlen:])
	if err != nil {
		return err
	}
	return db.Restore(dumps)
}

// gobEnc encodes a durability record; encode failures are programming
// errors (the types are our own) and panic.
func gobEnc(v any) []byte {
	gobBasics()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("core: encode durability record: %v", err))
	}
	return buf.Bytes()
}

func gobDec(b []byte, v any) error {
	gobBasics()
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}
