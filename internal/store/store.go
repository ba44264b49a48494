package store

import "fmt"

// SyncPolicy selects when the file-backed log calls fsync. Mem ignores
// it (there is no device to sync).
type SyncPolicy int

// The fsync policies, ordered strongest first.
const (
	// SyncAlways fsyncs after every append: no acknowledged record is
	// ever lost to power failure, at one device flush per record.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs every few appends (and on Sync/Close): group
	// commit for the log. A power failure can lose the last unsynced
	// tail, which the CRC scan then truncates on open — a clean prefix,
	// never a corrupt state.
	SyncBatch
	// SyncNever leaves flushing to the OS. Crash-restart of the process
	// is still safe (the page cache survives); only power failure can
	// lose the tail.
	SyncNever
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParsePolicy parses the -fsync flag spelling.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "never":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("store: unknown fsync policy %q (want always, batch, or never)", s)
}

// Stable is durable storage for one component: an appendable record log
// plus a single replaceable snapshot. Implementations guarantee that
// after a crash, Snapshot + Replay together reproduce a prefix of what
// was appended — never a torn or corrupted suffix.
type Stable interface {
	// Append journals one record. Under SyncAlways it is on stable
	// storage when Append returns. It keeps no reference to rec (the
	// WAL frames a copy, Mem copies it into its arena), so the caller
	// may reuse the buffer.
	Append(rec []byte) error
	// Replay calls fn for every record appended after the last saved
	// snapshot, in append order. It returns fn's first error. A record
	// is valid only until fn returns: a store may reuse its bytes, so
	// a caller that keeps one (a peer's catch-up) copies it.
	Replay(fn func(rec []byte) error) error
	// SaveSnapshot atomically replaces the snapshot and truncates the
	// log records it covers (everything appended so far). It does not
	// retain snap after it returns: the caller may reuse the buffer.
	SaveSnapshot(snap []byte) error
	// Snapshot returns the last saved snapshot (ok=false when none; a
	// NewPrivate store, which nothing recovers from, keeps none).
	Snapshot() (snap []byte, ok bool, err error)
	// Sync flushes any buffered appends to stable storage.
	Sync() error
	// Close releases resources. The store can be reopened by name.
	Close() error
}

// Provider opens named Stables: one per component ("acc-a1",
// "seq-b2", "smr-r1"). Opening the same name again — in particular
// after a crash — yields the surviving state.
type Provider interface {
	Open(name string) (Stable, error)
}
