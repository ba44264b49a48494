// Package store is the durability substrate of the replication stack: a
// checksummed, fsync-policied write-ahead log plus atomic snapshot
// files, behind the small Stable interface, and the one loop — Journal —
// through which every layer that claims durability uses them. The
// paper's safety argument leans on state surviving crashes ("an
// acceptor never forgets a promise"); store is where that obligation is
// discharged.
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
// NewPrivate opens a store like Mem's for a component built without
// one, which nothing reopens: it keeps the tail its owner serves peers
// from, but no snapshot, since only a recovery would read it.
//
// # The one durable log
//
// Journal is the journal → compact → recover loop over either one,
// written once. Its four clients — the replicated executor (core, under
// PBR and SMR), the Synod acceptor, the broadcast sequencer and the 2PC
// coordinator (shard.Router) — each contribute only a record codec, a
// function applying a record, and a function encoding their whole state
// (the first three journal the wire body of their unit, msg.AppendBody,
// whose tag versions the record; the coordinator writes its record with
// the same codec's Writer, msg.Append, and every snapshot is written that
// way too, reusing the record bodies wherever the state is a list of
// them):
//
//   - Recover(restore, replay), once, before any traffic: the snapshot
//     (if any) goes to restore, then every record of the tail to replay
//     in append order. It reports whether the store held anything.
//   - Append(rec) write-ahead of the message that reveals the mutation,
//     Sync where that message is a promise of durability.
//   - CompactIfDue(snapshot) after the mutation is applied: when the
//     tail holds a floor of records and as many bytes as the last
//     snapshot, snapshot() — the whole state, covering every record
//     appended so far — replaces it and the tail is dropped. Compact
//     does the same unconditionally (a baseline, an installed transfer).
//     So compaction costs at most one snapshot byte per journaled byte
//     and a recovery replays at most one snapshot's worth of journal.
//
// What recovery does with bytes it cannot use is one policy, not the
// client's choice. Torn or corrupt bytes are the store's business: the
// CRC scan truncates a segment's tail at the first bad record, and a
// snapshot file (written whole, renamed into place, so never torn) that
// fails its CRC fails Open. Bytes that pass the CRC and still do not
// decode — snapshot or record, a record an older build wrote in another
// format among them — and any error reading the snapshot fail Recover
// with an error naming the journal and the record's index; the owner
// refuses to start. Skipping is never safe for all four: an
// acceptor that skips a record has forgotten a promise. A record that
// decodes but is not the owner's next unit (a pre-snapshot straggler, a
// duplicate) is the owner's to skip: replay returns nil for it.
// internal/recoverytest is this contract as a table all clients run.
//
// # Invariants
//
//   - The write-ahead contract is the caller's: persist the mutation
//     with Append *before* emitting the message that reveals it (an
//     acceptor journals its promise before replying P1b; an SMR
//     replica under group commit parks client acks until one Sync covers
//     every slot it has in hand — core.SetGroupCommit).
//   - Replay yields, in append order, every record not yet covered by
//     a snapshot; a record either replays whole and checksum-clean or
//     (torn tail) is truncated away — never delivered corrupted.
//   - Outside this package only a Journal calls Snapshot, SaveSnapshot
//     and Replay (its own Replay serves a peer's catch-up).
//   - Append keeps no reference to its record, and a record Replay
//     yields is valid only until the callback returns: both sides may
//     reuse their buffers, and the one caller that keeps records (a
//     replica serving a catch-up) copies them.
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
