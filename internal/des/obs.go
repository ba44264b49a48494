package des

import (
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// Observability for the simulator. Observe attaches an Obs to the
// cluster and installs the virtual clock, so simulated runs emit the
// same event schema as real deployments — with virtual timestamps —
// making DES traces and TCP traces diffable and checkable by one checker.

// Observe attaches o to the cluster: step events are recorded with
// virtual timestamps (when tracing is enabled on o) and queue/processed
// metrics are registered. Pass a dedicated Obs — Observe repoints o's
// clock at the simulator, which would corrupt wall-clock latencies if o
// also serves live hosts.
func (c *Cluster) Observe(o *obs.Obs) {
	c.Obs = o
	// +1 keeps the first event off timestamp zero, which Record treats
	// as "stamp me".
	o.SetClock(func() int64 { return int64(c.Sim.Now()) + 1 })
	c.processed = o.Counter("des.processed")
	c.dropped = o.Counter("des.dropped")
	c.faultDrops = o.Counter("des.fault_drops")
	c.gQueue = o.Gauge("des.queue_depth")
}

// observeStep records one completed handler run at Lamport clock lc and
// returns the trace ID the node's outputs inherit: the incoming
// envelope's, or — when tracing is on and the envelope carries none — one
// derived from the message's request span (the birth of a trace).
func (c *Cluster) observeStep(loc msg.Loc, env Envelope, outs []msg.Directive, lc int64) string {
	c.processed.Inc()
	trace := env.Trace
	if !c.Obs.Tracing() {
		return trace
	}
	m := env.M
	f := obs.Extract(m.Hdr, m.Body)
	kind := f.Kind
	if kind == "" {
		kind = "step"
	}
	if trace == "" {
		trace = f.Span
	}
	c.Obs.Record(obs.Event{
		At: int64(c.Sim.Now()) + 1, Loc: loc, Layer: obs.LayerDES, Kind: kind,
		Hdr: m.Hdr, Slot: f.Slot, Ballot: f.Ballot, Span: f.Span,
		Trace: trace, LC: lc,
		M: &m, Outs: outs,
	})
	return trace
}
