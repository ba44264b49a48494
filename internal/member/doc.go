// Package member implements consensus-driven dynamic membership as
// ordered configuration epochs. Add/remove commands for replicas and
// acceptors are not a side channel: they are proposed through the
// total-order broadcast like any transaction, and every correct node
// derives the identical epoch schedule from the identical delivered
// prefix. Each epoch activates at a well-defined slot:
//
//   - acceptor-set changes (Synod quorums, sequencer learner fan-in)
//     govern instances >= ActivateAt = command slot + alpha, where
//     alpha exceeds the pipeline window so instances proposed
//     concurrently with the command stay under the old quorum;
//   - replica-set changes (delivery fan-out, SMR learner sets) take
//     effect at ReplicasFrom = command slot + 1 — replicas are not
//     part of any quorum, and a joiner must see every slot after the
//     snapshot that bootstraps it, so there is nothing to delay.
//
// The View is the runtime home of the schedule: broadcast sequencers
// resolve delivery targets per slot through it, Synod resolves
// acceptor sets per instance through it, SMR replicas refresh their
// catch-up peer lists from it, the lease protocol (core, DESIGN.md
// §13) defines "natural holder of epoch e" as Replicas[0] of e's
// config, and the online checker derives its own shadow copy per node
// to certify that no two nodes ever disagree on what an epoch means.
//
// # Invariants
//
//   - Determinism: the schedule is a pure function of the delivered
//     command prefix and alpha. Two views that applied the same
//     commands at the same slots hold byte-identical []Config — this
//     is what Adopt leans on when merging a transferred schedule: the
//     common prefix cannot conflict, only the tail can extend.
//   - Monotonicity: epochs only append, in increasing Epoch order with
//     increasing activation slots; a config is never edited after
//     derivation. At(slot) is therefore well-defined for any slot.
//   - Idempotence: Apply(cmd, slot) is a no-op for an already-applied
//     slot, so journal replay and live delivery can both feed the same
//     view; derivation refuses no-op commands (adding a member twice)
//     rather than minting an identical epoch.
//   - Durability is the caller's: the schedule travels inside an SMR
//     replica's snapshot header, which a state transfer sends as it is
//     stored (core.snapHeader), because a compacted membership command
//     is never replayed — a restarted node that lost the schedule would
//     grant leases to deposed holders.
//
// # Concurrency
//
// View is safe for concurrent use: one mutex guards the schedule and
// the joined map, and configs are immutable after derivation, so the
// values accessors hand out never change underneath the caller.
// OnApply hooks are invoked after the lock is released (re-entrant
// calls into the View are safe) but still in schedule order, because
// Apply is called in slot order. Everything else in the package
// (Command encode/decode, Config) is immutable value data.
package member
