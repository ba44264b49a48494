package runtime

import (
	"testing"
	"time"

	"shadowdb/internal/gpm"
	"shadowdb/internal/leaktest"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/obs"
)

// TestHostCloseReapsGoroutinesAndTimers closes a host with delayed
// directives still pending and asserts the loop goroutine and every
// outstanding timer are gone — the shutdown-hygiene contract.
func TestHostCloseReapsGoroutinesAndTimers(t *testing.T) {
	leaktest.Check(t, "shadowdb/internal/runtime.", "shadowdb/internal/network.")
	hub := network.NewHub()
	defer func() { _ = hub.Close() }()
	tr, err := hub.Register("x")
	if err != nil {
		t.Fatal(err)
	}
	var echo gpm.StepFunc
	echo = func(in msg.Msg) (gpm.Process, []msg.Directive) {
		// Every step re-arms a far-future timer: Close must cancel them.
		return echo, []msg.Directive{msg.SendAfter(time.Hour, "x", msg.M("tick", nil))}
	}
	h := NewHost("x", tr, echo)
	h.Obs = obs.New(64) // scoped: the gauge assertion below must not see other hosts
	h.Start()
	for i := 0; i < 5; i++ {
		h.Inject(msg.M("poke", i))
	}
	h.Emit([]msg.Directive{msg.SendAfter(time.Hour, "x", msg.M("tick", nil))})
	time.Sleep(20 * time.Millisecond) // let some steps run and arm timers
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if n := h.Obs.Gauge("runtime.timers_pending").Value(); n != 0 {
		t.Errorf("timers_pending = %d after Close, want 0", n)
	}
}

// TestHostOverTCPNoLeak runs two hosts over real TCP and asserts both
// packages wind down clean.
func TestHostOverTCPNoLeak(t *testing.T) {
	leaktest.Check(t, "shadowdb/internal/runtime.", "shadowdb/internal/network.")
	ta, err := network.NewTCP("a", map[msg.Loc]string{"a": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := network.NewTCP("b", map[msg.Loc]string{"b": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ta.SetPeer("b", tb.Addr())
	tb.SetPeer("a", ta.Addr())
	got := make(chan msg.Msg, 16)
	var sink gpm.StepFunc
	sink = func(in msg.Msg) (gpm.Process, []msg.Directive) {
		got <- in
		return sink, nil
	}
	var fwd gpm.StepFunc
	fwd = func(in msg.Msg) (gpm.Process, []msg.Directive) {
		return fwd, []msg.Directive{msg.Send("b", in)}
	}
	ha := NewHost("a", ta, fwd)
	hb := NewHost("b", tb, sink)
	ha.Start()
	hb.Start()
	ha.Inject(msg.M("ping", pingBody{N: 7}))
	select {
	case m := <-got:
		if m.Body.(pingBody).N != 7 {
			t.Errorf("body = %+v", m.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never crossed the wire")
	}
	if err := ha.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hb.Close(); err != nil {
		t.Fatal(err)
	}
	_ = ta.Close()
	_ = tb.Close()
}

type pingBody struct{ N int }

func init() {
	msg.RegisterCodec(0xf0, pingBody{}, func(w *msg.Writer, b pingBody) { w.Int(b.N) },
		func(r *msg.Reader) pingBody { return pingBody{N: r.Int()} })
}
