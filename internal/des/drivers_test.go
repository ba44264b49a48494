package des

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/runtime"
)

// agreeReq is the request body of the driver-agreement process: it names
// a request span (the extractor below births a trace from it) and a
// deadline (stamped on every envelope that carries the body).
type agreeReq struct {
	Span     string
	Deadline int64
}

func init() {
	obs.RegisterExtractor(func(hdr string, body any) (obs.Fields, bool) {
		b, ok := body.(agreeReq)
		if !ok {
			return obs.Fields{}, false
		}
		return obs.Fields{Slot: obs.NoField, Ballot: obs.NoField, Span: b.Span, Kind: "agree." + hdr}, true
	})
	msg.RegisterDeadline(func(m msg.Msg) (int64, bool) {
		b, ok := m.Body.(agreeReq)
		return b.Deadline, ok
	})
}

// agreeProc answers a request with a run of three sends to a, one to b
// and a long self-timer, and any other message with sends to a and b
// split by a timer.
type agreeProc struct{ n int }

func (p agreeProc) Halted() bool { return false }

func (p agreeProc) Step(in msg.Msg) (gpm.Process, []msg.Directive) {
	p.n++
	timer := msg.SendAfter(time.Hour, "p", msg.M("tick", p.n))
	if b, ok := in.Body.(agreeReq); ok {
		out := msg.M("out", b)
		return p, []msg.Directive{msg.Send("a", out), msg.Send("a", out), msg.Send("a", out), msg.Send("b", out), timer}
	}
	out := msg.M("out", p.n)
	return p, []msg.Directive{msg.Send("a", out), timer, msg.Send("a", out), msg.Send("b", out), msg.Send("b", out)}
}

// captureTransport records a host's sends batch by batch.
type captureTransport struct {
	in      chan msg.Envelope
	mu      sync.Mutex
	batches [][]msg.Envelope
}

func (t *captureTransport) Send(env msg.Envelope) error {
	return t.SendBatch([]msg.Envelope{env})
}

func (t *captureTransport) SendBatch(envs []msg.Envelope) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batches = append(t.batches, append([]msg.Envelope(nil), envs...))
	return nil
}

func (t *captureTransport) Receive() <-chan msg.Envelope { return t.in }
func (t *captureTransport) Close() error                 { return nil }

// agreeInputs are the deliveries both drivers host. Their Lamport stamps
// are far apart, so each delivery's clock is the same in both drivers
// whatever else ticked the clock in between (the simulator's receiving
// sinks do; the live capture transport does not).
var agreeInputs = []msg.Envelope{
	{From: "cli", To: "p", M: msg.M("req", agreeReq{Span: "cli/1", Deadline: 99}), LC: 1000},
	{From: "cli", To: "p", M: msg.M("req", agreeReq{Span: "cli/2"}), Trace: "t-9", LC: 2000},
	{From: "cli", To: "p", M: msg.M("other", nil), LC: 3000},
}

// stepEvents returns loc's events with the driver-specific fields (time,
// layer, ring position) cleared.
func stepEvents(o *obs.Obs, loc msg.Loc) []obs.Event {
	var evs []obs.Event
	for _, e := range o.Events() {
		if e.Loc == loc {
			e.At, e.Layer, e.Seq = 0, "", 0
			evs = append(evs, e)
		}
	}
	return evs
}

// TestDriversAgree hosts one process under the live runtime.Host and
// under a 1-core simulated node and requires the same step events, the
// same outbound envelopes in the same order, and the same frames per
// step: both drivers host through runtime.Core. The live host hands a
// step's immediate sends to one SendBatch; the simulator's frames are
// that batch's runs of consecutive directives to one destination.
func TestDriversAgree(t *testing.T) {
	// Live: a host over a capture transport.
	liveObs := obs.New(64)
	liveObs.EnableTracing(true)
	tr := &captureTransport{in: make(chan msg.Envelope, len(agreeInputs))}
	h := runtime.NewHost("p", tr, agreeProc{})
	h.Obs = liveObs
	stepped := make(chan struct{}, len(agreeInputs))
	h.OnStep = func(msg.Msg, []msg.Directive) { stepped <- struct{}{} }
	h.Start()
	for _, env := range agreeInputs {
		tr.in <- env
	}
	for range agreeInputs {
		select {
		case <-stepped:
		case <-time.After(5 * time.Second):
			t.Fatal("live host did not step every input")
		}
	}
	_ = h.Close() // waits out the last step's sends
	if len(tr.batches) != len(agreeInputs) {
		t.Fatalf("live host sent %d batches for %d steps, want one per step", len(tr.batches), len(agreeInputs))
	}
	var liveEnvs []msg.Envelope
	liveFrames := make([]int, len(agreeInputs))
	for _, batch := range tr.batches {
		liveEnvs = append(liveEnvs, batch...)
		// A run is a same-destination envelope with the next Lamport
		// stamp: a delayed send between two takes a tick.
		for i, env := range batch {
			if i == 0 || env.To != batch[i-1].To || env.LC != batch[i-1].LC+1 {
				liveFrames[batch[0].LC/1000-1]++
			}
		}
	}

	// Simulated: a costed node whose outputs land on many-core sinks (no
	// queueing, so arrivals keep emission order). One input per second;
	// the hour-long timers never fire.
	var s Sim
	c := NewCluster(&s)
	simObs := obs.New(64)
	simObs.EnableTracing(true)
	c.Observe(simObs)
	n := c.AddCostedProcess("p", 1, agreeProc{}, func() time.Duration { return 3 * ms })
	var simEnvs []msg.Envelope
	for _, dst := range []msg.Loc{"a", "b"} {
		c.AddCostedNode(dst, 16, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
			simEnvs = append(simEnvs, env)
			return nil, 0
		})
	}
	simFrames := make([]int, len(agreeInputs))
	var framed int64
	for i, env := range agreeInputs {
		c.route(0, env)
		s.Run(time.Duration(i+1)*time.Second, 0)
		simFrames[i], framed = int(n.Frames-framed), n.Frames
	}

	if live, sim := stepEvents(liveObs, "p"), stepEvents(simObs, "p"); !reflect.DeepEqual(live, sim) {
		t.Errorf("step events differ:\nlive %v\nsim  %v", live, sim)
	}
	if !reflect.DeepEqual(liveEnvs, simEnvs) {
		t.Errorf("envelopes differ:\nlive %+v\nsim  %+v", liveEnvs, simEnvs)
	}
	if !reflect.DeepEqual(liveFrames, simFrames) {
		t.Errorf("frames per step: live %v, sim %v", liveFrames, simFrames)
	}
	if want := []int{2, 2, 3}; !reflect.DeepEqual(liveFrames, want) {
		t.Errorf("frames per step = %v, want %v", liveFrames, want)
	}
	if len(liveEnvs) != 12 || liveEnvs[0].Trace != "cli/1" || liveEnvs[0].Deadline != 99 || liveEnvs[4].Trace != "t-9" {
		t.Errorf("live envelopes lost their causal context: %+v", liveEnvs)
	}
}
