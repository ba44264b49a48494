// Package dist is the cross-node half of the observability subsystem: it
// correlates the per-node trace rings of a whole deployment into one
// causal picture and checks it, live, against the formal properties.
//
//   - a Collector pulls trace rings from every node's admin endpoint (or
//     takes them straight from in-process / simulated nodes), flags rings
//     that overflowed mid-run, and merges the downloads into one causally
//     ordered trace via the Lamport stamps the envelopes carry;
//   - Spans reconstructs each client request's path through the stack
//     (client submit → broadcast → consensus decide → ordered delivery →
//     reply) and reports per-segment latencies;
//   - a Checker subscribes to live event streams and steps the runtime
//     invariants over them, flagging violations as events arrive;
//     Result.Check replays a collection through the same Checker offline
//     (`cmd/flight merge -check`).
//
// This is the runtime-checking posture of "Specification and Runtime
// Checking of Derecho" applied to the causal-history checking of
// "Verifying Strong Eventual Consistency": global properties of the
// replicated database are watched continuously under traffic, not only
// in bounded model checking.
//
// # Invariants
//
// The Checker defines no property. Each invariant is one incremental
// step over verify.Event, defined beside the protocol it constrains
// (consensus modules, broadcast, core, shard) and also run by the
// schedule explorer in internal/verify; DESIGN.md §4 holds the one
// catalogue — name, owning package, what it forbids, the deployment fact
// it needs, its drivers — and doclint_test.go keeps that table and the
// registered list equal. A Checker is armed once, at NewChecker, with the
// deployment's Facts — the lease window, the initial membership and the
// queue bound; a live node's come from deploy.Node.Facts, the same
// settings its flight bundles record, so the offline replay of those
// bundles is armed identically. Joins need no announcement (the ordered
// add admits its node); restarts are run-time events (NoteRestart).
// Status reports per invariant how many events were in its scope, or
// which fact it lacks.
//
// The checker operates on broadcast.Deliver bodies — post-batching,
// pre-unpacking — so the adaptive batching and pipelining of DESIGN.md
// §8 is checked transparently: a multi-message slot is compared whole
// across nodes, and the batch ablation (`cmd/bench -experiment batch`)
// certifies every sweep point against it.
//
// # Concurrency
//
// The Checker is safe for concurrent feeding; its type comment says why
// concurrent feeds cannot raise false alarms, OnViolation what hooks may
// do. The Collector is a single-goroutine, offline tool.
package dist
