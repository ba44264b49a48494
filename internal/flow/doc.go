// Package flow is the end-to-end overload-control subsystem: admission
// control with priority classes, deadline propagation, retry budgets,
// and a sustained-overload watchdog. It turns load into a first-class
// fault the same way internal/fault treats partitions and crashes —
// degradation is explicit, observable, and certified online, never an
// emergent collapse.
//
// The pieces, each independent and composed by the layers that use
// them:
//
//   - Queue: a bounded admission counter with nested per-class
//     thresholds. Reads are shed first, writes next, control traffic
//     (2PC decisions, lease renewals, membership commands) last. A full
//     queue returns ErrOverload — never a silent drop, never a timeout
//     masquerading as backpressure. The broadcast sequencer and the
//     shard router gate their intake on one.
//   - Deadlines: a per-request absolute deadline (nanoseconds on the
//     deployment clock — virtual in simulation, wall live) stamped at
//     the client, carried in msg.Envelope/broadcast.Bcast/core.TxRequest,
//     and checked at every non-replicated hop so doomed work is dropped
//     before it consumes sequencer, fsync, or apply capacity. Replicated
//     hops (ordered batches) never drop: determinism requires every
//     replica to apply the same prefix, so past the order a deadline can
//     only suppress the client-visible ack, not the apply.
//   - Reject: the explicit terminal outcome for shed or expired work. A
//     rejecting hop reports its queue depth and bound, so the online
//     checker can audit that occupancy never exceeded configuration.
//   - RetryBudget: a deterministic token bucket bounding retry volume.
//     Retries spend from the budget; an exhausted budget converts a
//     retryable rejection into a terminal client error instead of
//     amplifying the overload that caused it.
//   - Watchdog: a sustained-overload detector over windowed metric
//     rates (obs.Rates) that arms a flight-recorder postmortem dump
//     when the shed rate stays above a threshold for N consecutive
//     windows, so brownouts leave the same forensic trail as checker
//     violations.
//
// # Invariants
//
//   - Every admitted request reaches a terminal outcome: applied,
//     rejected with ErrOverload, or deadline-expired — each
//     client-visible. internal/obs/dist certifies this online.
//   - Queue occupancy never exceeds the configured bound, and within
//     the bound the class thresholds are nested (ReadCap < WriteCap <
//     Cap), so writes cannot be starved by reads and control traffic
//     always has headroom reads and writes cannot consume.
//   - All decisions are deterministic functions of injected clocks and
//     explicit state — no wall-clock reads, no shared PRNG — so the
//     simulator replays overload scenarios bit-for-bit.
//
// # Concurrency
//
// Queue, RetryBudget, and Watchdog are owned by a single
// process loop (the LoE process model delivers one message at a time)
// and are not safe for concurrent use. The metrics they update are
// lock-free obs handles and safe from anywhere.
package flow
