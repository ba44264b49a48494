package obs_test

import (
	"bytes"
	"sync"
	"testing"

	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

func TestLamportTickWitness(t *testing.T) {
	o := obs.New(16)
	if got := o.Tick(); got != 1 {
		t.Fatalf("first Tick = %d, want 1", got)
	}
	if got := o.Tick(); got != 2 {
		t.Fatalf("second Tick = %d, want 2", got)
	}
	// Witnessing a remote clock ahead of ours jumps past it.
	if got := o.Witness(10); got != 11 {
		t.Fatalf("Witness(10) = %d, want 11", got)
	}
	// Witnessing a remote clock behind ours still advances.
	if got := o.Witness(3); got != 12 {
		t.Fatalf("Witness(3) = %d, want 12", got)
	}
	if got := o.LC(); got != 12 {
		t.Fatalf("LC = %d, want 12", got)
	}
	// Nil receivers are inert (hosts before Start, des without Observe).
	var nilObs *obs.Obs
	if nilObs.Tick() != 0 || nilObs.Witness(5) != 0 || nilObs.LC() != 0 {
		t.Fatal("nil Obs clock is not inert")
	}
}

func TestLamportWitnessConcurrent(t *testing.T) {
	o := obs.New(16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(r int64) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				o.Witness(r)
			}
		}(int64(i * 100))
	}
	wg.Wait()
	// 8000 witnesses each advance the clock by at least one.
	if got := o.LC(); got < 8000 {
		t.Fatalf("LC after 8000 witnesses = %d, want >= 8000", got)
	}
}

func TestRecordStampsTraceAndLC(t *testing.T) {
	o := obs.New(16)
	o.EnableTracing(true)
	o.Witness(41) // clock at 42
	o.Record(obs.Ev("n1", obs.LayerRuntime, "step"))
	evs := o.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].LC != 42 {
		t.Errorf("Record did not stamp LC: got %d, want 42", evs[0].LC)
	}
	// An explicit LC survives.
	e := obs.Ev("n1", obs.LayerRuntime, "step")
	e.LC = 7
	o.Record(e)
	if evs := o.Events(); evs[1].LC != 7 {
		t.Errorf("explicit LC overwritten: got %d", evs[1].LC)
	}
}

func TestSinksSeeEveryRecord(t *testing.T) {
	o := obs.New(4)
	o.EnableTracing(true)
	var mu sync.Mutex
	var got []obs.Event
	o.AddSink(func(e obs.Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})
	// Record more than the ring holds: the sink sees all of them even
	// though the ring evicts — online checking is not bounded by ring
	// capacity.
	o.Tick()
	for i := 0; i < 10; i++ {
		o.Record(obs.Ev("n1", obs.LayerRuntime, "step"))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("sink saw %d events, want 10", len(got))
	}
	for i, e := range got {
		if e.Seq != int64(i) {
			t.Fatalf("sink event %d has Seq %d", i, e.Seq)
		}
		if e.At == 0 || e.LC == 0 {
			t.Fatalf("sink event %d not stamped: %+v", i, e)
		}
	}
	if len(o.Events()) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(o.Events()))
	}
}

func TestRingGap(t *testing.T) {
	ev := func(seq int64) obs.Event { return obs.Event{Seq: seq} }
	if got := obs.RingGap(nil); got != 0 {
		t.Errorf("RingGap(nil) = %d", got)
	}
	if got := obs.RingGap([]obs.Event{ev(0), ev(1), ev(2)}); got != 0 {
		t.Errorf("contiguous from 0: gap %d", got)
	}
	// Ring overflow evicted the first 5 events.
	if got := obs.RingGap([]obs.Event{ev(5), ev(6), ev(7)}); got != 5 {
		t.Errorf("overflowed ring: gap %d, want 5", got)
	}
	// Internal hole.
	if got := obs.RingGap([]obs.Event{ev(0), ev(2)}); got != 1 {
		t.Errorf("internal hole: gap %d, want 1", got)
	}
	// A real overflowing Obs reports its eviction count.
	o := obs.New(4)
	o.EnableTracing(true)
	for i := 0; i < 9; i++ {
		o.Record(obs.Ev("n1", obs.LayerRuntime, "step"))
	}
	if got := obs.RingGap(o.Events()); got != 5 {
		t.Errorf("overflowed Obs ring: gap %d, want 5", got)
	}
}

func TestMergeCausalOrdersByLamport(t *testing.T) {
	// Two nodes with skewed wall clocks: node B's receive (LC 5) carries
	// an EARLIER timestamp than node A's send (LC 4). The causal merge
	// must order by LC, putting the send first despite the skew.
	a := []obs.Event{
		{Seq: 0, At: 1000, Loc: "a", LC: 2},
		{Seq: 1, At: 1100, Loc: "a", LC: 4},
	}
	b := []obs.Event{
		{Seq: 0, At: 500, Loc: "b", LC: 3},
		{Seq: 1, At: 900, Loc: "b", LC: 5},
	}
	m := obs.MergeCausal(a, b)
	want := []int64{2, 3, 4, 5}
	for i, e := range m {
		if e.LC != want[i] {
			t.Fatalf("merge position %d has LC %d, want %d (%+v)", i, e.LC, want[i], m)
		}
	}
	// With any unstamped event the merge falls back to timestamps
	// entirely (mixing the two comparators is not transitive).
	b[0].LC = 0
	m = obs.MergeCausal(a, b)
	wantAt := []int64{500, 900, 1000, 1100}
	for i, e := range m {
		if e.At != wantAt[i] {
			t.Fatalf("fallback position %d has At %d, want %d", i, e.At, wantAt[i])
		}
	}
}

func TestEventStringShowsCausalCoords(t *testing.T) {
	e := obs.Ev("n1", obs.LayerRuntime, "step")
	e.Span = "c0/1"
	e.Trace = "c0/9"
	e.LC = 17
	s := e.String()
	for _, want := range []string{"span=c0/1", "trace=c0/9", "lc=17"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	// Trace equal to the span is elided (it adds nothing).
	e.Trace = e.Span
	if contains(e.String(), "trace=") {
		t.Errorf("String() = %q should elide trace == span", e.String())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestEnvelopeCausalFieldsGobRoundTrip(t *testing.T) {
	// The trace context must survive the wire codec (Trace/LC ride
	// alongside From/To/M).
	env := msg.Envelope{
		From: "a", To: "b",
		M:     msg.M("hdr", nil),
		Trace: "c0/3", LC: 99,
	}
	// Round-trip through the trace file the admin endpoint serves,
	// which carries Event's Trace/LC fields.
	evs := []obs.Event{{Seq: 0, At: 1, Loc: "a", Trace: env.Trace, LC: env.LC, Slot: obs.NoField, Ballot: obs.NoField}}
	var buf bytes.Buffer
	if err := obs.EncodeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	got, err := obs.DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Trace != "c0/3" || got[0].LC != 99 {
		t.Fatalf("causal fields lost in trace codec: %+v", got[0])
	}
}
