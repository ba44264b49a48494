package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

type wireBody struct {
	N int
	S string
}

func init() {
	msg.RegisterCodec(0xf0, wireBody{}, func(w *msg.Writer, b wireBody) {
		w.Int(b.N)
		w.Text(b.S)
	}, func(r *msg.Reader) wireBody { return wireBody{N: r.Int(), S: r.Text()} })
}

func recvOne(t *testing.T, tr Transport) msg.Envelope {
	t.Helper()
	select {
	case env, ok := <-tr.Receive():
		if !ok {
			t.Fatal("transport closed")
		}
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for envelope")
		return msg.Envelope{}
	}
}

func TestHubRoundTrip(t *testing.T) {
	h := NewHub()
	defer func() { _ = h.Close() }()
	a, err := h.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(msg.Envelope{To: "b", M: msg.M("hi", 42)}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b)
	if env.From != "a" || env.M.Hdr != "hi" || env.M.Body != 42 {
		t.Errorf("env = %+v", env)
	}
}

func TestHubDuplicateRegistration(t *testing.T) {
	h := NewHub()
	defer func() { _ = h.Close() }()
	if _, err := h.Register("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register("x"); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestHubDropsUnknownDestination(t *testing.T) {
	h := NewHub()
	defer func() { _ = h.Close() }()
	a, _ := h.Register("a")
	if err := a.Send(msg.Envelope{To: "ghost", M: msg.M("x", nil)}); err != nil {
		t.Fatalf("Send to unknown errored: %v", err)
	}
	if h.Dropped.Load() != 1 {
		t.Errorf("Dropped = %d", h.Dropped.Load())
	}
}

func TestHubCloseUnblocksReceivers(t *testing.T) {
	h := NewHub()
	a, _ := h.Register("a")
	done := make(chan struct{})
	go func() {
		for range a.Receive() {
		}
		close(done)
	}()
	_ = h.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("receiver not unblocked by Close")
	}
	if err := a.Send(msg.Envelope{To: "a", M: msg.M("x", nil)}); err == nil {
		t.Error("Send after Close succeeded")
	}
	// A client closing its own transport after the hub went down (a
	// public-API client outliving its cluster) must not close the inbox
	// a second time.
	if err := a.Close(); err != nil {
		t.Errorf("transport Close after hub Close: %v", err)
	}
}

func newTCPPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	// Bind ephemeral ports first, then rebuild the directory.
	tmp := map[msg.Loc]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"}
	ta, err := NewTCP("a", tmp)
	if err != nil {
		t.Fatal(err)
	}
	tbDir := map[msg.Loc]string{"a": ta.Addr(), "b": "127.0.0.1:0"}
	tb, err := NewTCP("b", tbDir)
	if err != nil {
		t.Fatal(err)
	}
	// Complete both directories now that ports are known.
	ta.SetPeer("b", tb.Addr())
	ta.SetPeer("a", ta.Addr())
	tb.SetPeer("b", tb.Addr())
	t.Cleanup(func() { _ = ta.Close(); _ = tb.Close() })
	return ta, tb
}

func TestTCPRoundTrip(t *testing.T) {
	ta, tb := newTCPPair(t)
	if err := ta.Send(msg.Envelope{To: "b", M: msg.M("req", wireBody{N: 7, S: "x"})}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, tb)
	if env.From != "a" || env.M.Hdr != "req" {
		t.Fatalf("env = %+v", env)
	}
	body, ok := env.M.Body.(wireBody)
	if !ok || body.N != 7 || body.S != "x" {
		t.Errorf("body = %#v", env.M.Body)
	}
	// And the reply direction (reusing the inbound side's dialer).
	if err := tb.Send(msg.Envelope{To: "a", M: msg.M("resp", wireBody{N: 8})}); err != nil {
		t.Fatal(err)
	}
	env = recvOne(t, ta)
	if env.M.Hdr != "resp" || env.M.Body.(wireBody).N != 8 {
		t.Errorf("reply = %+v", env)
	}
}

func TestTCPLoopback(t *testing.T) {
	ta, _ := newTCPPair(t)
	if err := ta.Send(msg.Envelope{To: "a", M: msg.M("self", wireBody{N: 1})}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, ta)
	if env.M.Hdr != "self" {
		t.Errorf("env = %+v", env)
	}
}

func TestTCPManyMessagesInOrder(t *testing.T) {
	ta, tb := newTCPPair(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := ta.Send(msg.Envelope{To: "b", M: msg.M("seq", wireBody{N: i})}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		env := recvOne(t, tb)
		if env.M.Body.(wireBody).N != i {
			t.Fatalf("message %d out of order: %+v", i, env)
		}
	}
}

func TestTCPUnknownPeerDropped(t *testing.T) {
	ta, _ := newTCPPair(t)
	if err := ta.Send(msg.Envelope{To: "ghost", M: msg.M("x", wireBody{})}); err != nil {
		t.Errorf("Send to unknown peer errored: %v", err)
	}
}

// A frame that does not decode closes the connection it came on (frames
// carry no state, so nothing after it could be trusted) and counts
// net.decode_errors; other connections are untouched.
func TestTCPClosesConnectionOnUndecodableFrame(t *testing.T) {
	ta, tb := newTCPPair(t)
	decodeErrors := obs.C("net.decode_errors")
	before := decodeErrors.Value()
	raw, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	junk := []byte("not a frame")
	if _, err := raw.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(junk))), junk...)); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after an undecodable frame: %v, want EOF", err)
	}
	if got := decodeErrors.Value() - before; got != 1 {
		t.Errorf("net.decode_errors moved by %d, want 1", got)
	}
	if err := ta.Send(msg.Envelope{To: "b", M: msg.M("fresh", wireBody{N: 1})}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, tb); env.M.Hdr != "fresh" {
		t.Fatalf("fresh connection delivered %+v", env)
	}
}

func TestTCPUnreachablePeerDropped(t *testing.T) {
	dir := map[msg.Loc]string{"a": "127.0.0.1:0", "dead": "127.0.0.1:1"}
	ta, err := NewTCP("a", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	if err := ta.Send(msg.Envelope{To: "dead", M: msg.M("x", wireBody{})}); err != nil {
		t.Errorf("Send to unreachable peer errored: %v", err)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	// Kill b's listener mid-conversation, restart it on the same address,
	// and verify a's sends reach the reincarnated peer: dropConn plus
	// bounded redial backoff must re-establish the route without manual
	// intervention.
	ta, tb := newTCPPair(t)
	if err := ta.Send(msg.Envelope{To: "b", M: msg.M("warm", wireBody{N: 0})}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, tb)

	addr := tb.Addr()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	// Sends into the dead window are dropped (crash model), never errors.
	for i := 0; i < 5; i++ {
		if err := ta.Send(msg.Envelope{To: "b", M: msg.M("void", wireBody{N: i})}); err != nil {
			t.Fatalf("send into dead window errored: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	tb2, err := NewTCP("b", map[msg.Loc]string{"a": ta.Addr(), "b": addr})
	if err != nil {
		t.Fatalf("restart listener on %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = tb2.Close() })

	// Keep probing until a send lands on the restarted peer; the redial
	// cap bounds how long the backoff can defer the reconnect.
	deadline := time.After(10 * time.Second)
	probe := 0
	for {
		probe++
		if err := ta.Send(msg.Envelope{To: "b", M: msg.M("probe", wireBody{N: probe})}); err != nil {
			t.Fatal(err)
		}
		select {
		case env, ok := <-tb2.Receive():
			if !ok {
				t.Fatal("restarted transport closed")
			}
			if env.From != "a" || env.M.Hdr != "probe" {
				t.Fatalf("unexpected envelope after restart: %+v", env)
			}
			return
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			t.Fatal("peer restarted but sender never reconnected")
		}
	}
}

func TestTCPStaleConnWriteRetries(t *testing.T) {
	// A peer that crash-restarts leaves the sender holding a cached
	// connection that only a write can discover is dead. A send hitting
	// that stale connection must retry over a fresh dial instead of
	// dropping — a one-shot message (a recovery catch-up reply, say) has
	// no second send to trigger the redial.
	ta, tb := newTCPPair(t)
	if err := ta.Send(msg.Envelope{To: "b", M: msg.M("warm", wireBody{N: 0})}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, tb)

	addr := tb.Addr()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	tb2, err := NewTCP("b", map[msg.Loc]string{"a": ta.Addr(), "b": addr})
	if err != nil {
		t.Fatalf("restart listener on %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = tb2.Close() })

	// Two sends with a gap: the first write may still be accepted by the
	// kernel before the peer's RST lands, but by the second the stale
	// connection fails synchronously and the retry must deliver. Without
	// the retry neither message can ever reach tb2 (both target the dead
	// socket; the second is dropped).
	if err := ta.Send(msg.Envelope{To: "b", M: msg.M("one", wireBody{N: 1})}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := ta.Send(msg.Envelope{To: "b", M: msg.M("two", wireBody{N: 2})}); err != nil {
		t.Fatal(err)
	}
	select {
	case env, ok := <-tb2.Receive():
		if !ok {
			t.Fatal("restarted transport closed")
		}
		if env.From != "a" {
			t.Fatalf("unexpected envelope after restart: %+v", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("single send after peer restart never delivered (stale connection not retried)")
	}
}

func TestTCPCloseIsIdempotent(t *testing.T) {
	ta, tb := newTCPPair(t)
	if err := ta.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ta.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ta.Send(msg.Envelope{To: "b", M: msg.M("x", wireBody{})}); err == nil {
		t.Error("Send after Close succeeded")
	}
	_ = tb
}

func TestTCPConcurrentSenders(t *testing.T) {
	// Multiple goroutines sending to one receiver must not corrupt
	// frames. (Writes of a frame use a single Write call.)
	ta, tb := newTCPPair(t)
	const senders, each = 4, 100
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		s := s
		go func() {
			for i := 0; i < each; i++ {
				if err := ta.Send(msg.Envelope{To: "b", M: msg.M("m", wireBody{N: s*1000 + i})}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for s := 0; s < senders; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.After(5 * time.Second)
	for got < senders*each {
		select {
		case env, ok := <-tb.Receive():
			if !ok {
				t.Fatal("closed early")
			}
			if env.M.Hdr != "m" {
				t.Fatalf("corrupt frame: %+v", env)
			}
			got++
		case <-deadline:
			t.Fatalf("received %d of %d", got, senders*each)
		}
	}
}

func TestHubManyLocations(t *testing.T) {
	h := NewHub()
	defer func() { _ = h.Close() }()
	var trs []Transport
	for i := 0; i < 10; i++ {
		tr, err := h.Register(msg.Loc(fmt.Sprintf("n%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	// Ring broadcast.
	for i, tr := range trs {
		dest := msg.Loc(fmt.Sprintf("n%d", (i+1)%10))
		if err := tr.Send(msg.Envelope{To: dest, M: msg.M("ring", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tr := range trs {
		env := recvOne(t, tr)
		want := (i + 9) % 10
		if env.M.Body != want {
			t.Errorf("n%d got %v, want %d", i, env.M.Body, want)
		}
	}
}
