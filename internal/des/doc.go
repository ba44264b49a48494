// Package des is a discrete-event simulator standing in for the paper's
// evaluation cluster (quad-core 3.6 GHz Xeons on a gigabit switch, Section
// IV). Protocol code runs unmodified as GPM processes on simulated nodes;
// what the simulator models is the environment:
//
//   - per-node CPU: each node has a fixed number of cores and a FIFO run
//     queue; handling a message occupies a core for a service time, so
//     saturated nodes produce the CPU-bound latency cliffs of Fig. 8/9;
//   - links: per-message latency plus size/bandwidth transmission delay;
//   - failures: crashed nodes silently drop input, as in the paper's
//     crash-failure model;
//   - lock resources with waiter queues and timeouts, used by the
//     database engines to reproduce lock-contention collapse (Fig. 9a).
//
// A node hosts its handler through runtime.Core, the same code that
// hosts a process on a live runtime.Host: the delivery's Lamport stamp
// is witnessed when a core picks it up, and the step event is recorded
// and the outputs stamped and framed when its service time completes.
// Service times for the broadcast-service execution modes are measured
// from the real interpreter/compiled implementations, not assumed; see
// DESIGN.md ("Substitutions").
package des
