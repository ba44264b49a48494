// Package obs is the observability subsystem for the replication stack:
// lock-free metrics (counters, gauges, latency histograms), a causal
// trace ring buffer with a fixed cross-layer event schema, and an admin
// HTTP endpoint. Recorded traces feed internal/obs/dist, which steps the
// invariants the bounded verifier checks in simulation against live runs
// and downloaded traces alike.
//
// obs sits at the bottom of the dependency graph (it imports only msg
// and gpm); every other layer imports obs and either takes an *Obs
// (runtime.Host, broadcast.Config, des.Cluster, shadowdb.Config) or uses
// the process-wide Default via the C/G/H helpers.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceCap is the ring-buffer capacity used by New and Default:
// enough for several thousand transactions end to end while bounding
// memory at a few MB.
const DefaultTraceCap = 16384

// Obs bundles a metrics registry with a trace ring buffer. Metrics are
// always live (a disabled counter costs one atomic add); tracing is off
// until EnableTracing, and a disabled Record returns after one atomic
// load.
type Obs struct {
	metrics *Registry

	// logs is the structured log ring (log.go). Set once at construction
	// and immutable after, so the hot-path nil check needs no atomics;
	// nil on a Nop Obs (logging disabled entirely).
	logs *logState

	tracing atomic.Bool
	clock   atomic.Pointer[func() int64]

	// lc is the node's Lamport clock: Tick on send, Witness on receive.
	// It runs even with tracing off (one atomic op per message) so a
	// trace window enabled mid-run still carries causally ordered stamps.
	lc atomic.Int64

	sinkMu sync.RWMutex
	sinks  []func(Event)

	mu   sync.Mutex
	ring []Event
	cap  int
	seq  int64 // next Seq to assign; ring holds seq-len(ring)..seq-1
}

// New creates an Obs with the given trace capacity (DefaultTraceCap if
// n <= 0). Tracing starts disabled; the ring is allocated lazily on
// EnableTracing.
func New(n int) *Obs {
	if n <= 0 {
		n = DefaultTraceCap
	}
	return &Obs{metrics: NewRegistry(), logs: newLogState(), cap: n}
}

// Nop returns an Obs whose handles are all nil: every metric update and
// trace record is a no-op branch. Useful as an explicit "off" value and
// as the baseline in overhead benchmarks.
func Nop() *Obs { return &Obs{} }

// Default is the process-wide Obs. One OS process hosts one node in real
// deployments, so Default's registry is the node's registry; binaries
// serve it over the admin endpoint.
var Default = New(DefaultTraceCap)

// Counter returns the named counter handle (nil on a Nop Obs — all
// handle methods are nil-safe).
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.metrics.Counter(name)
}

// Gauge returns the named gauge handle.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.metrics.Gauge(name)
}

// Histogram returns the named histogram handle.
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.metrics.Histogram(name)
}

// Snapshot dumps every registered metric.
func (o *Obs) Snapshot() Snapshot {
	if o == nil {
		return (*Registry)(nil).Snapshot()
	}
	return o.metrics.Snapshot()
}

// C, G and H are package-level helpers bound to Default, for layers
// (consensus, core) that instrument the process-wide node registry.
func C(name string) *Counter   { return Default.Counter(name) }
func G(name string) *Gauge     { return Default.Gauge(name) }
func H(name string) *Histogram { return Default.Histogram(name) }

// ---------------------------------------------------------------- clock --

// Now returns the current trace timestamp in nanoseconds: wall-clock
// UnixNano unless SetClock installed another source (the DES installs
// its virtual clock so simulated and real traces share a schema).
func (o *Obs) Now() int64 {
	if o == nil {
		return 0
	}
	if fn := o.clock.Load(); fn != nil {
		return (*fn)()
	}
	return time.Now().UnixNano()
}

// SetClock replaces the timestamp source; nil restores wall clock.
func (o *Obs) SetClock(fn func() int64) {
	if o == nil {
		return
	}
	if fn == nil {
		o.clock.Store(nil)
		return
	}
	o.clock.Store(&fn)
}

// -------------------------------------------------------- lamport clock --

// Tick advances the Lamport clock for a local or send event and returns
// the new value. Senders stamp outgoing envelopes with it.
func (o *Obs) Tick() int64 {
	if o == nil {
		return 0
	}
	return o.lc.Add(1)
}

// Witness merges a remote Lamport timestamp at a receive event: the clock
// jumps past both the remote stamp and its own previous value, and the
// resulting value is the receive event's clock.
func (o *Obs) Witness(remote int64) int64 {
	if o == nil {
		return 0
	}
	for {
		cur := o.lc.Load()
		next := cur + 1
		if remote >= cur {
			next = remote + 1
		}
		if o.lc.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// LC returns the current Lamport clock value.
func (o *Obs) LC() int64 {
	if o == nil {
		return 0
	}
	return o.lc.Load()
}

// ---------------------------------------------------------------- trace --

// Tracing reports whether trace recording is on. Call sites that build
// an Event (allocations, field extraction) should guard on this.
func (o *Obs) Tracing() bool { return o != nil && o.tracing.Load() }

// EnableTracing switches trace recording on or off. The ring survives a
// disable so a captured window can still be downloaded.
func (o *Obs) EnableTracing(on bool) {
	if o == nil {
		return
	}
	if on {
		o.mu.Lock()
		if o.ring == nil {
			c := o.cap
			if c <= 0 {
				c = DefaultTraceCap
			}
			o.cap = c
			o.ring = make([]Event, 0, c)
		}
		o.mu.Unlock()
	}
	o.tracing.Store(on)
}

// AddSink registers fn to observe every event Record accepts, after Seq,
// At and LC are stamped. Sinks run synchronously on the recording
// goroutine (the online checker's Feed is O(1)); a sink must not call
// back into Record on the same Obs.
func (o *Obs) AddSink(fn func(Event)) {
	if o == nil || fn == nil {
		return
	}
	o.sinkMu.Lock()
	o.sinks = append(o.sinks, fn)
	o.sinkMu.Unlock()
}

// Record appends an event to the ring, assigning Seq and stamping At (and
// LC) if unset, then fans the event out to registered sinks. When tracing
// is off this is one atomic load.
func (o *Obs) Record(e Event) {
	if o == nil || !o.tracing.Load() {
		return
	}
	if e.At == 0 {
		e.At = o.Now()
	}
	if e.LC == 0 {
		e.LC = o.lc.Load()
	}
	o.mu.Lock()
	e.Seq = o.seq
	o.seq++
	if len(o.ring) < o.cap {
		o.ring = append(o.ring, e)
	} else {
		o.ring[int(e.Seq)%o.cap] = e
	}
	o.mu.Unlock()
	o.sinkMu.RLock()
	sinks := o.sinks
	o.sinkMu.RUnlock()
	for _, fn := range sinks {
		fn(e)
	}
}

// Events returns the recorded events oldest-first.
func (o *Obs) Events() []Event {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Event, 0, len(o.ring))
	if len(o.ring) < o.cap {
		out = append(out, o.ring...)
		return out
	}
	// Full ring: oldest entry sits at seq%cap.
	start := int(o.seq) % o.cap
	out = append(out, o.ring[start:]...)
	out = append(out, o.ring[:start]...)
	return out
}

// ResetTrace drops recorded events (capacity is kept).
func (o *Obs) ResetTrace() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.ring = o.ring[:0]
	o.seq = 0
	o.mu.Unlock()
}
