package network_test

import (
	"testing"
	"time"

	"shadowdb/internal/msg"
	"shadowdb/internal/network"
)

func init() {
	msg.RegisterCodec(0xf1, pingBody{}, func(w *msg.Writer, b pingBody) { w.Int(b.N) },
		func(r *msg.Reader) pingBody { return pingBody{N: r.Int()} })
}

type pingBody struct{ N int }

// TestTCPCarriesCausalContext asserts the wire codec round-trips the
// envelope's trace ID and Lamport stamp — the coordinates cross-node
// causal correlation depends on.
func TestTCPCarriesCausalContext(t *testing.T) {
	a, err := network.NewTCP("a", map[msg.Loc]string{"a": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := network.NewTCP("b", map[msg.Loc]string{"b": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer("b", b.Addr())
	b.SetPeer("a", a.Addr())

	env := msg.Envelope{
		From: "a", To: "b",
		M:     msg.M("ping", pingBody{N: 7}),
		Trace: "c0/3", LC: 42,
	}
	if err := a.Send(env); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Receive():
		if got.Trace != "c0/3" || got.LC != 42 {
			t.Fatalf("causal context lost on the wire: %+v", got)
		}
		if body, ok := got.M.Body.(pingBody); !ok || body.N != 7 {
			t.Fatalf("payload corrupted: %+v", got.M)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}

	// The zero context costs nothing and arrives zero.
	if err := a.Send(msg.Envelope{From: "a", To: "b", M: msg.M("ping", pingBody{N: 8})}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Receive():
		if got.Trace != "" || got.LC != 0 {
			t.Fatalf("zero context mutated on the wire: %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second message never arrived")
	}

	// Hub transports (in-process deployments) preserve it too.
	hub := network.NewHub()
	ta, err := hub.Register("ha")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := hub.Register("hb")
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	defer tb.Close()
	if err := ta.Send(msg.Envelope{From: "ha", To: "hb", M: msg.M("ping", pingBody{N: 9}), Trace: "t", LC: 5}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-tb.Receive():
		if got.Trace != "t" || got.LC != 5 {
			t.Fatalf("hub dropped causal context: %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hub message never arrived")
	}
}
