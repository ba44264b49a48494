// Package shard partitions the ShadowDB keyspace across N independent
// replication groups — each running its own total order broadcast
// instance (and, when durable, its own WAL subtree) — behind a Router
// that forwards single-shard transactions directly and coordinates
// cross-shard ones with two-phase commit layered over the per-shard
// total orders. The 2PC records (Prepare, Decision) are themselves
// ordered through each participant shard's broadcast, so the outcome of
// every distributed transaction is replicated and recoverable exactly
// like ordinary transactions: a shard replica learns "prepared" and
// "committed/aborted" only from its own delivery stream.
//
// A shard replica is a core.SMRReplica of its shard's order with a
// Ledger as its extension (core.OpenSMRReplica, Ext: NewLedger(k, app)):
// prepare and decision are two ordered events, and the ledger rides the
// replica's snapshots and state transfers. Reordering, catch-up,
// journaling and recovery are the SMR replica's.
//
// # Invariants
//
// The safety contract, stated as checkable history invariants
// (internal/obs/dist extends the online checker with them):
//
//   - per-shard, every existing invariant holds within the shard's own
//     group: total order, gap-free in-order delivery, single decided
//     value per consensus instance, replies only after ordered delivery;
//   - cross-shard atomicity: a transaction's effects appear on all
//     participant shards or on none — no shard delivers a commit it was
//     never prepared for, and no two shards deliver conflicting
//     decisions for the same transaction;
//   - read isolation: prepared-but-undecided state is never visible to
//     reads, enforced by construction — a replica votes by checking its
//     reservation ledger (held) against the database but mutates the
//     database only when the decision itself is delivered;
//   - placement is static and deterministic (NewHash over the key), so
//     every router and every replica agrees on which shard owns a row
//     without coordination.
//
// # Concurrency
//
// The router and a shard replica (with its Ledger) are message-driven
// state machines with no internal locking: each is owned by exactly
// one driver (a runtime.Host event loop live, the simulator's per-node
// queue in tests) that calls Step serially. All cross-node interaction —
// including the router↔shard 2PC dialogue — travels as messages, never
// shared memory. Topology and App values are read-only after
// construction and may be shared freely.
package shard
