package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"shadowdb/internal/msg"
)

func TestCounterGauge(t *testing.T) {
	o := New(0)
	c := o.Counter("x.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := o.Gauge("x.depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Same name returns the same handle.
	if o.Counter("x.count") != c || o.Gauge("x.depth") != g {
		t.Fatal("registry returned a different handle for the same name")
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var o *Obs
	o.Counter("a").Inc()
	o.Gauge("b").Set(1)
	o.Histogram("c").Observe(1)
	o.Record(Event{Kind: "x"})
	o.EnableTracing(true)
	if o.Tracing() {
		t.Fatal("nil Obs reports tracing on")
	}
	if ev := o.Events(); ev != nil {
		t.Fatalf("nil Obs has events: %v", ev)
	}
	n := Nop()
	n.Counter("a").Inc()
	n.Histogram("c").ObserveDuration(time.Millisecond)
	n.Record(Event{Kind: "x"})
	if got := n.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("Nop snapshot has counters: %v", got.Counters)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000) // 1µs .. 1ms spread in ns
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 1000000 {
		t.Fatalf("max = %d", s.Max)
	}
	// Log buckets bound relative error by 2x; check order of magnitude.
	if s.P50 < 250000 || s.P50 > 1000000 {
		t.Fatalf("p50 = %d out of range", s.P50)
	}
	if s.P99 < s.P50 || s.P99 > s.Max {
		t.Fatalf("p99 = %d not in [p50, max]", s.P99)
	}
	if s.Mean < 400000 || s.Mean > 600000 {
		t.Fatalf("mean = %d, want ~500500", s.Mean)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	o := New(4)
	o.Record(Event{Kind: "dropped-before-enable"})
	if got := len(o.Events()); got != 0 {
		t.Fatalf("recorded while disabled: %d events", got)
	}
	o.EnableTracing(true)
	for i := 0; i < 10; i++ {
		o.Record(Event{Kind: fmt.Sprintf("e%d", i), At: int64(i + 1)})
	}
	ev := o.Events()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	for i, e := range ev {
		want := fmt.Sprintf("e%d", 6+i)
		if e.Kind != want {
			t.Fatalf("event %d kind = %q, want %q", i, e.Kind, want)
		}
		if e.Seq != int64(6+i) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, 6+i)
		}
	}
	o.ResetTrace()
	if got := len(o.Events()); got != 0 {
		t.Fatalf("%d events after reset", got)
	}
}

func TestRecordStampsTime(t *testing.T) {
	o := New(8)
	o.EnableTracing(true)
	o.SetClock(func() int64 { return 42 })
	o.Record(Event{Kind: "a"})
	o.Record(Event{Kind: "b", At: 7}) // explicit At wins
	ev := o.Events()
	if ev[0].At != 42 || ev[1].At != 7 {
		t.Fatalf("timestamps = %d, %d; want 42, 7", ev[0].At, ev[1].At)
	}
	o.SetClock(nil)
	o.Record(Event{Kind: "c"})
	if at := o.Events()[2].At; at < time.Now().Add(-time.Hour).UnixNano() {
		t.Fatalf("wall clock not restored: at = %d", at)
	}
}

type extractorBody struct{ N int64 }

func init() {
	RegisterExtractor(func(hdr string, body any) (Fields, bool) {
		b, ok := body.(extractorBody)
		if !ok {
			return Fields{}, false
		}
		return Fields{Slot: b.N, Ballot: NoField, Kind: "test." + hdr}, true
	})
}

func TestExtract(t *testing.T) {
	f := Extract("hit", extractorBody{N: 9})
	if f.Slot != 9 || f.Kind != "test.hit" {
		t.Fatalf("extracted %+v", f)
	}
	miss := Extract("other", "not-a-body")
	if miss.Slot != NoField || miss.Ballot != NoField {
		t.Fatalf("miss should return NoFields, got %+v", miss)
	}
}

func TestMerge(t *testing.T) {
	m1 := msg.M("h1", nil)
	m2 := msg.M("h2", nil)
	a := []Event{
		{Seq: 0, At: 10, Loc: "n1", Kind: "step", M: &m1},
		{Seq: 1, At: 30, Loc: "n1", Kind: "metric-only"},
	}
	b := []Event{
		{Seq: 0, At: 20, Loc: "n2", Kind: "step", M: &m2,
			Outs: []msg.Directive{msg.Send("n1", msg.M("out", nil))}},
	}
	merged := MergeCausal(a, b) // unstamped: by timestamp
	if len(merged) != 3 || merged[0].At != 10 || merged[1].At != 20 || merged[2].At != 30 {
		t.Fatalf("merge order wrong: %+v", merged)
	}
	if len(merged[1].Outs) != 1 || merged[1].Outs[0].Dest != "n1" {
		t.Fatalf("outs not preserved: %+v", merged[1].Outs)
	}
}

type traceBody struct{ K string }

func init() {
	msg.RegisterCodec(0xf0, traceBody{}, func(w *msg.Writer, b traceBody) { w.Text(b.K) },
		func(r *msg.Reader) traceBody { return traceBody{K: r.Text()} })
}

func TestTraceEncodeDecode(t *testing.T) {
	m := msg.M("enc", traceBody{K: "v"})
	in := []Event{
		{Seq: 0, At: 5, Loc: "n1", Layer: LayerCore, Kind: "step", Hdr: "enc",
			Slot: 3, Ballot: NoField, Span: "c1/1", M: &m,
			Outs: []msg.Directive{msg.Send("n2", m)}},
	}
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("decoded %d events", len(out))
	}
	e := out[0]
	if e.Slot != 3 || e.Span != "c1/1" || e.M == nil || e.M.Hdr != "enc" {
		t.Fatalf("roundtrip mangled event: %+v", e)
	}
	if b, ok := e.M.Body.(traceBody); !ok || b.K != "v" {
		t.Fatalf("body = %#v", e.M.Body)
	}
}

func TestHTTPHandler(t *testing.T) {
	o := New(8)
	o.Counter("req.count").Add(3)
	o.Histogram("req.lat_ns").Observe(1000)
	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if snap.Counters["req.count"] != 3 {
		t.Fatalf("metrics dump = %+v", snap)
	}
	if snap.Histograms["req.lat_ns"].Count != 1 {
		t.Fatalf("histogram missing from dump: %+v", snap.Histograms)
	}

	if _, err := srv.Client().Post(srv.URL+"/trace/start", "", nil); err != nil {
		t.Fatal(err)
	}
	if !o.Tracing() {
		t.Fatal("POST /trace/start did not enable tracing")
	}
	o.Record(Event{Kind: "k", At: 1, Slot: NoField, Ballot: NoField})

	res, err = srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	events, err := DecodeTrace(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != "k" {
		t.Fatalf("trace download = %+v", events)
	}

	res, err = srv.Client().Get(srv.URL + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var pretty []map[string]any
	if err := json.NewDecoder(res.Body).Decode(&pretty); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(pretty) != 1 || pretty[0]["kind"] != "k" {
		t.Fatalf("trace.json = %+v", pretty)
	}

	res, err = srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("pprof cmdline status %d", res.StatusCode)
	}
}

func TestServe(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", New(8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if addr == "" {
		t.Fatal("no bound address")
	}
}
