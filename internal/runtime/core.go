package runtime

import (
	"time"

	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// Core is the deterministic half of hosting a process at one location.
// For each delivered envelope, Receive witnesses the sender's Lamport
// stamp and Emit records the step and stamps its outputs. A Core owns no
// goroutine, clock, timer or cost: its driver steps the process between
// the two calls and delivers what Emit returns.
type Core struct {
	// Self is the hosted location, the From of every output.
	Self msg.Loc
	// Layer labels the driver's step events (obs.LayerRuntime live,
	// obs.LayerDES in the simulator).
	Layer string
}

// Delivery is one envelope between its receive event and the emission
// of its step's outputs.
type Delivery struct {
	// In is the delivered envelope.
	In msg.Envelope
	// LC is the receive event's Lamport clock.
	LC int64
	// Outs are the directives the process returned for In.M; the driver
	// sets them.
	Outs []msg.Directive
}

// Receive merges env's Lamport stamp into o's clock. The driver steps
// the process after it, so events the step records on o carry the
// delivery's clock.
func (c Core) Receive(o *obs.Obs, env msg.Envelope) Delivery {
	return Delivery{In: env, LC: o.Witness(env.LC)}
}

// Emit completes d. Its outputs inherit the delivery's trace ID; a
// traced delivery that carries none derives one from the message's
// request span, the birth of a trace at the request's entry into the
// system. When o is tracing, the step is recorded with its outputs and
// o's timestamp, which is the emission time.
func (c Core) Emit(o *obs.Obs, d Delivery) Out {
	trace := d.In.Trace
	if o.Tracing() {
		m := d.In.M
		f := obs.Extract(m.Hdr, m.Body)
		kind := f.Kind
		if kind == "" {
			kind = "step"
		}
		if trace == "" {
			trace = f.Span
		}
		o.Record(obs.Event{
			Loc: c.Self, Layer: c.Layer, Kind: kind,
			Hdr: m.Hdr, Slot: f.Slot, Ballot: f.Ballot, Span: f.Span,
			Trace: trace, LC: d.LC,
			M: &m, Outs: d.Outs,
		})
	}
	return c.stamp(o, d.Outs, trace)
}

// stamp turns directives into envelopes, in order. Each is sent from
// Self with the trace ID, the deadline of its body, and a fresh Lamport
// tick taken at emission. A delayed send is stamped at emission too: its
// stamp still exceeds the clock of the step that caused it, as Lamport
// requires.
func (c Core) stamp(o *obs.Obs, outs []msg.Directive, trace string) Out {
	envs := make([]msg.Envelope, len(outs))
	for i, d := range outs {
		envs[i] = msg.Envelope{From: c.Self, To: d.Dest, M: d.M, Trace: trace, LC: o.Tick(), Deadline: msg.DeadlineOf(d.M)}
	}
	return Out{envs, outs}
}

// Out is a step's stamped outputs, in directive order.
type Out struct {
	envs []msg.Envelope
	dirs []msg.Directive
}

// Frames hands out's envelopes to the simulator in directive order: each
// run of consecutive immediate sends to one destination to frame, as one
// wire frame, and each delayed send to timer. The live host uses Sends,
// and its transport frames per connection.
func (out Out) Frames(frame func([]msg.Envelope), timer func(time.Duration, msg.Envelope)) {
	for i := 0; i < len(out.envs); {
		if d := out.dirs[i].Delay; d > 0 {
			timer(d, out.envs[i])
			i++
			continue
		}
		j := i + 1
		for j < len(out.envs) && out.dirs[j].Delay <= 0 && out.envs[j].To == out.envs[i].To {
			j++
		}
		frame(out.envs[i:j])
		i = j
	}
}

// Sends hands out's delayed sends to timer and returns its immediate
// sends in directive order. They are compacted into out's own array, so
// nothing is copied or allocated, and out is spent.
func (out Out) Sends(timer func(time.Duration, msg.Envelope)) []msg.Envelope {
	n := 0
	for i, env := range out.envs {
		if d := out.dirs[i].Delay; d > 0 {
			timer(d, env)
			continue
		}
		out.envs[n] = env
		n++
	}
	return out.envs[:n]
}
