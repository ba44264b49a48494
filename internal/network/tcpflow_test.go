package network

import (
	"testing"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/msg"
)

// TestTCPRequestReplyWithLearnedRoute reproduces the CLI deployment shape:
// the server's directory does NOT list the client; the reply must ride the
// learned inbound route.
func TestTCPRequestReplyWithLearnedRoute(t *testing.T) {
	srv, err := NewTCP("srv", map[msg.Loc]string{"srv": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	go func() {
		for env := range srv.Receive() {
			_ = srv.Send(msg.Envelope{To: env.From, M: msg.M(core.HdrTxResult, core.TxResult{Client: env.From, Seq: 7})})
		}
	}()
	cli, err := NewTCP("cli", map[msg.Loc]string{"cli": "127.0.0.1:0", "srv": srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	if err := cli.Send(msg.Envelope{To: "srv", M: msg.M(core.HdrTx, core.TxRequest{
		Client: "cli", Seq: 7, Type: "x", Args: []any{int64(3)},
	})}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-cli.Receive():
		if env.M.Hdr != core.HdrTxResult {
			t.Fatalf("got %v", env.M)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply over learned route")
	}
}

// TestTCPDialSemaphoreSingleFlight pins the dial semaphore contract:
// while one dial to a peer is in flight, a concurrent sender waits on
// its outcome (it neither drops nor starts a second dial), and the
// net.dial.inflight gauge tracks the open slot.
func TestTCPDialSemaphoreSingleFlight(t *testing.T) {
	srv, err := NewTCP("srv", map[msg.Loc]string{"srv": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cli, err := NewTCP("cli", map[msg.Loc]string{"cli": "127.0.0.1:0", "srv": srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()

	// Occupy srv's dial slot by hand, as a hung dial would. Slots are
	// keyed by address.
	hold := make(chan struct{})
	cli.mu.Lock()
	cli.dialing[srv.Addr()] = hold
	cli.gDialing.Add(1)
	base := cli.gDialing.Value()
	cli.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		done <- cli.Send(msg.Envelope{To: "srv", M: msg.M(core.HdrTx, core.TxRequest{Client: "cli", Seq: 1, Type: "x"})})
	}()
	select {
	case <-done:
		t.Fatal("send resolved while the peer's dial slot was held")
	case <-time.After(100 * time.Millisecond):
	}

	// Resolve the "dial": free the slot and wake the waiter; it takes
	// the slot itself, dials the live server, and the frame arrives.
	cli.mu.Lock()
	delete(cli.dialing, srv.Addr())
	cli.gDialing.Add(-1)
	cli.mu.Unlock()
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-srv.Receive():
		if env.M.Hdr != core.HdrTx {
			t.Fatalf("got %v", env.M)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame never arrived after the dial slot freed")
	}
	if got := cli.gDialing.Value(); got != base-1 {
		t.Fatalf("net.dial.inflight = %d after dials resolved, want %d", got, base-1)
	}
}

// TestTCPDropsExpiredInbound pins receive-side deadline enforcement:
// with EnforceDeadlines armed, an inbound envelope whose deadline has
// passed is shed at the transport and never reaches the inbox.
func TestTCPDropsExpiredInbound(t *testing.T) {
	srv, err := NewTCP("srv", map[msg.Loc]string{"srv": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	srv.EnforceDeadlines(func() int64 { return 1000 })
	cli, err := NewTCP("cli", map[msg.Loc]string{"cli": "127.0.0.1:0", "srv": srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()

	expired := msg.Envelope{To: "srv", Deadline: 500,
		M: msg.M(core.HdrTx, core.TxRequest{Client: "cli", Seq: 1, Type: "late"})}
	fresh := msg.Envelope{To: "srv",
		M: msg.M(core.HdrTx, core.TxRequest{Client: "cli", Seq: 2, Type: "ok"})}
	if err := cli.Send(expired); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(fresh); err != nil {
		t.Fatal(err)
	}
	// Only the fresh envelope may surface; a zero deadline never expires.
	select {
	case env := <-srv.Receive():
		if req, ok := env.M.Body.(core.TxRequest); !ok || req.Seq != 2 {
			t.Fatalf("expired envelope surfaced: %+v", env.M)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fresh envelope never arrived")
	}
	select {
	case env := <-srv.Receive():
		t.Fatalf("unexpected second envelope: %+v", env.M)
	case <-time.After(100 * time.Millisecond):
	}
}
