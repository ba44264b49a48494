package des

import (
	"testing"
	"time"

	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// TestObserveRecordsVirtualTimeEvents attaches an Obs to a simulated
// cluster and checks that step events carry virtual timestamps and the
// same schema a live host emits.
func TestObserveRecordsVirtualTimeEvents(t *testing.T) {
	var s Sim
	c := NewCluster(&s)
	o := obs.New(256)
	o.EnableTracing(true)
	c.Observe(o)

	server(c, 1, 10*ms)
	var answered []time.Duration
	sink(c, "cli", &answered)
	c.Inject("srv", msg.M("req", nil))
	c.Inject("srv", msg.M("req", nil))
	s.Run(0, 0)

	if got := o.Snapshot().Counters["des.processed"]; got < 3 {
		t.Errorf("des.processed = %d, want >= 3 (2 reqs + resp)", got)
	}
	evs := o.Events()
	if len(evs) < 3 {
		t.Fatalf("recorded %d events, want >= 3", len(evs))
	}
	// Virtual clock: the two requests complete at 10ms and 20ms, not at
	// wall-clock nanosecond scale.
	sawSrv := 0
	for _, e := range evs {
		if e.Layer != obs.LayerDES {
			t.Errorf("event layer = %q, want %q", e.Layer, obs.LayerDES)
		}
		if e.M == nil {
			t.Error("DES step event lost its message")
		}
		if e.Loc == "srv" {
			sawSrv++
			want := int64(time.Duration(sawSrv)*10*ms) + 1
			if e.At != want {
				t.Errorf("srv completion %d at %d, want virtual %d", sawSrv, e.At, want)
			}
		}
	}
	if sawSrv != 2 {
		t.Errorf("saw %d srv steps, want 2", sawSrv)
	}

	// Tracing off: metrics continue, recording stops.
	o.EnableTracing(false)
	before := len(o.Events())
	c.Inject("srv", msg.M("req", nil))
	s.Run(0, 0)
	if got := len(o.Events()); got != before {
		t.Errorf("events grew %d -> %d with tracing off", before, got)
	}
	if got := o.Snapshot().Counters["des.processed"]; got < 5 {
		t.Errorf("des.processed = %d after third request, want >= 5", got)
	}
}

// TestStepRecordedAtCompletion pins the simulator's completion rule: a
// costed node steps a delivery when a core picks it up, but records the
// step event and emits the outputs only when its service time has
// passed, so the event carries At = pickup + cost (+1, the clock's
// offset off zero). A crash during service records nothing and sends
// nothing.
func TestStepRecordedAtCompletion(t *testing.T) {
	var s Sim
	c := NewCluster(&s)
	o := obs.New(64)
	o.EnableTracing(true)
	c.Observe(o)
	n := server(c, 1, 7*ms)
	var answered []time.Duration
	sink(c, "cli", &answered)
	s.After(3*ms, func() { c.Inject("srv", msg.M("req", nil)) })
	s.Run(0, 0)
	var srv []obs.Event
	for _, e := range o.Events() {
		if e.Loc == "srv" {
			srv = append(srv, e)
		}
	}
	if want := int64(3*ms+7*ms) + 1; len(srv) != 1 || srv[0].At != want {
		t.Fatalf("srv events %v, want one at %d", srv, want)
	}
	if len(answered) != 1 || answered[0] != 10*ms {
		t.Fatalf("answers at %v, want one at 10ms", answered)
	}

	// Crash mid-service: picked up at 20ms, crashed at 25ms, due at 27ms.
	before := len(o.Events())
	s.After(10*ms, func() { c.Inject("srv", msg.M("req", nil)) })
	s.After(15*ms, n.Crash)
	s.Run(0, 0)
	if got := o.Events()[before:]; len(got) != 0 {
		t.Errorf("crash during service recorded %v", got)
	}
	if len(answered) != 1 || n.Processed != 1 {
		t.Errorf("crash during service sent %d answers, processed %d", len(answered)-1, n.Processed-1)
	}
}
