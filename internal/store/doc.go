// Package store is the durability substrate of the replication stack: a
// checksummed, fsync-policied write-ahead log plus atomic snapshot
// files, behind the small Stable interface. The paper's safety argument
// leans on state surviving crashes ("an acceptor never forgets a
// promise"); store is where that obligation is discharged for every
// layer that claims durability — Synod acceptor state, the broadcast
// sequencer's decided-slot journal, and the SQL state behind core
// replicas.
//
// Two implementations share the interface:
//
//   - Mem keeps everything in process memory. It preserves the repo's
//     pre-durability behaviour (nothing outlives the process) while
//     still surviving a *simulated* restart — the verify fuzzer and the
//     DES model crash-restart by rebuilding a component from the same
//     Stable, which is exactly what a real restart does with files.
//   - Dir backs each component with a directory of length-prefixed,
//     CRC32C-checksummed WAL segments plus an atomically renamed
//     snapshot file. Torn tails are detected and truncated on open;
//     saving a snapshot rotates the log and deletes the covered prefix.
//
// Journal wraps either one for a component whose snapshot is its whole
// state (the core replicas' database): it counts the tail appended
// since the last snapshot and says when compaction is due — once the
// tail holds a floor of records and as many bytes as that snapshot, so
// compaction costs at most one snapshot byte per journaled byte and a
// recovery replays at most one snapshot's worth of journal.
//
// # Invariants
//
//   - The write-ahead contract is the caller's: persist the mutation
//     with Append *before* emitting the message that reveals it (an
//     acceptor journals its promise before replying P1b; an SMR
//     replica under group commit parks client acks until a Sync covers
//     their slots — core.SetGroupCommit).
//   - Replay yields, in append order, every record not yet covered by
//     a snapshot; a record either replays whole and checksum-clean or
//     (torn tail) is truncated away — never delivered corrupted.
//   - SaveSnapshot is atomic (rename) and is the only operation that
//     discards log records, so a crash at any instant leaves either
//     the old snapshot plus full log or the new snapshot plus the
//     records appended after it.
//   - Sync covers the whole appended tail: after Sync returns, every
//     Append that returned before the Sync call is on stable storage,
//     whatever the configured policy.
//
// # Concurrency
//
// Each Stable guards its file (or buffer) state with one internal
// mutex, so Append/Sync/SaveSnapshot may race without corrupting the
// log — but ordering between a record and the message it must precede
// is the caller's to enforce, which in practice means each component
// drives its own Stable from its single event loop. Providers (NewDir,
// NewMem) may be shared; each Open returns an independent store. A
// Journal's counters are not locked: it belongs to that one event loop.
package store
