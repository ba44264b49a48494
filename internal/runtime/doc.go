// Package runtime hosts GPM processes. Core is the hosting itself: it
// witnesses each delivery's Lamport stamp, records the step event,
// stamps the outputs with their trace ID, clock and deadline, and groups
// them into wire frames and timers. Host drives a Core on a real
// transport: one goroutine per process, wall-clock timers for delayed
// directives. The simulator's nodes (internal/des) drive the same Core
// on a virtual clock, so a simulated step and a deployed step produce
// the same events and the same envelopes. Host is the deployment layer
// of the cmd binaries; the same processes run unchanged in the reference
// runner and the model checker.
package runtime
