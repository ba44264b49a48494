package network

import (
	"encoding/binary"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// listenTCP starts a transport for id on an ephemeral loopback port.
func listenTCP(t *testing.T, id msg.Loc) *TCP {
	t.Helper()
	tr, err := NewTCP(id, map[msg.Loc]string{id: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// readFrame reads one length-prefixed frame from c and decodes it.
func readFrame(c net.Conn) ([]msg.Envelope, error) {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(c, hdr); err != nil {
		return nil, err
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr))
	if _, err := io.ReadFull(c, body); err != nil {
		return nil, err
	}
	return msg.DecodeFrame(body)
}

// TestTCPSetPeerMovesTraffic pins SetPeer's contract: once a Loc is
// moved to another address, its next send goes there, even while a
// connection to the old address is open.
func TestTCPSetPeerMovesTraffic(t *testing.T) {
	a, b, cli := listenTCP(t, "a"), listenTCP(t, "b"), listenTCP(t, "cli")
	cli.SetPeer("x", a.Addr())
	if err := cli.Send(msg.Envelope{To: "x", M: msg.M("one", wireBody{N: 1})}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, a); env.M.Hdr != "one" {
		t.Fatalf("a got %+v", env)
	}
	cli.SetPeer("x", b.Addr())
	if err := cli.Send(msg.Envelope{To: "x", M: msg.M("two", wireBody{N: 2})}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-b.Receive():
		if env.M.Hdr != "two" {
			t.Fatalf("b got %+v", env)
		}
	case env := <-a.Receive():
		t.Fatalf("send after SetPeer went to the old address: %+v", env)
	case <-time.After(5 * time.Second):
		t.Fatal("send after SetPeer never arrived")
	}
}

// TestTCPSharedEndpoint maps four Locs to one address: one SendBatch of
// envelopes interleaved across them, self and an unknown Loc opens one
// connection and writes one frame holding the remote envelopes in order;
// the self envelope loops back and the unknown one is dropped. When the
// shared address is dead, the four Locs cost one dial and share one
// backoff window.
func TestTCPSharedEndpoint(t *testing.T) {
	tr := listenTCP(t, "srv")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	clients := []msg.Loc{"c0", "c1", "c2", "c3"}
	for _, l := range clients {
		tr.SetPeer(l, ln.Addr().String())
	}

	drops := obs.C("net.send_drops")
	before := drops.Value()
	to := []msg.Loc{"c0", "c1", "srv", "c2", "ghost", "c0", "c3"}
	batch := make([]msg.Envelope, len(to))
	for i, l := range to {
		batch[i] = msg.Envelope{To: l, M: msg.M("m", wireBody{N: i})}
	}
	if err := tr.SendBatch(batch); err != nil {
		t.Fatal(err)
	}

	var conn net.Conn
	select {
	case conn = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("no connection accepted")
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	envs, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, env := range envs {
		if env.From != "srv" || env.To != to[env.M.Body.(wireBody).N] {
			t.Errorf("frame carries %+v", env)
		}
		got = append(got, env.M.Body.(wireBody).N)
	}
	if want := []int{0, 1, 3, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("frame holds envelopes %v, want %v", got, want)
	}
	_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := readFrame(conn); err == nil {
		t.Error("the batch wrote a second frame")
	}
	select {
	case <-accepted:
		t.Error("the batch opened a second connection")
	default:
	}
	if env := recvOne(t, tr); env.M.Body.(wireBody).N != 2 {
		t.Errorf("loopback delivered %+v", env)
	}
	if got := drops.Value() - before; got != 1 {
		t.Errorf("net.send_drops moved by %d, want 1 (the unknown Loc)", got)
	}

	// A dead shared address: one dial for the four Locs, and one backoff
	// window they all wait out.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close()
	dl := []msg.Loc{"d0", "d1", "d2", "d3"}
	batch = batch[:0]
	for i, l := range dl {
		tr.SetPeer(l, deadAddr)
		batch = append(batch, msg.Envelope{To: l, M: msg.M("void", wireBody{N: i})})
	}
	before = drops.Value()
	if err := tr.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := drops.Value() - before; got != 4 {
		t.Errorf("net.send_drops moved by %d, want 4", got)
	}
	tr.mu.Lock()
	rs := tr.redial[deadAddr]
	if rs == nil || rs.fails != 1 || len(tr.redial) != 1 {
		t.Fatalf("redial state %+v over %d addresses, want one failed dial to %s", rs, len(tr.redial), deadAddr)
	}
	// Hold the window open by hand so the check below cannot race its
	// expiry.
	rs.until = time.Now().Add(time.Hour)
	tr.mu.Unlock()
	backoffs := obs.C("net.dial_backoffs")
	before = backoffs.Value()
	for _, l := range dl {
		if err := tr.Send(msg.Envelope{To: l, M: msg.M("void", wireBody{})}); err != nil {
			t.Fatal(err)
		}
	}
	if got := backoffs.Value() - before; got != 4 {
		t.Errorf("net.dial_backoffs moved by %d, want 4", got)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if rs.fails != 1 {
		t.Errorf("%d dials to the dead address, want 1", rs.fails)
	}
}

// TestTCPFramesWithinBound sends more than maxFrame in 1 MiB bodies in
// one SendBatch. A reader closes the connection on a frame over
// maxFrame, losing every envelope on it, so the sender must cut a
// peer's envelopes into frames within the bound; every envelope then
// arrives, in order. A single envelope no frame can hold is dropped and
// counted at the sender, and the connection keeps carrying traffic.
func TestTCPFramesWithinBound(t *testing.T) {
	a, b := listenTCP(t, "a"), listenTCP(t, "b")
	a.SetPeer("b", b.Addr())
	body := strings.Repeat("x", 1<<20)
	const n = maxFrame>>20 + 1
	batch := make([]msg.Envelope, n)
	for i := range batch {
		batch[i] = msg.Envelope{To: "b", M: msg.M("big", wireBody{N: i, S: body})}
	}
	if err := a.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if env := recvOne(t, b); env.M.Body.(wireBody).N != i {
			t.Fatalf("envelope %d arrived as number %d", env.M.Body.(wireBody).N, i)
		}
	}

	drops := obs.C("net.send_drops")
	before := drops.Value()
	huge := msg.Envelope{To: "b", M: msg.M("huge", wireBody{S: strings.Repeat("y", maxFrame)})}
	if err := a.SendBatch([]msg.Envelope{huge, {To: "b", M: msg.M("after", wireBody{N: 1})}}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, b); env.M.Hdr != "after" {
		t.Fatalf("got %s, want the envelope sent behind the oversized one", env.M.Hdr)
	}
	if got := drops.Value() - before; got != 1 {
		t.Errorf("net.send_drops rose by %d, want the one oversized envelope", got)
	}
}

// noCodec is a body type with no registered codec: msg cannot encode it.
type noCodec struct{}

// TestTCPDropsOnlyTheUnencodable sends, to one peer, an envelope whose
// body has no codec between two that encode. The frame that would have
// carried all three cannot be built; the two good envelopes still
// arrive, in order, and the one that cannot be encoded is the one drop
// counted and the error returned.
func TestTCPDropsOnlyTheUnencodable(t *testing.T) {
	a, b := listenTCP(t, "a"), listenTCP(t, "b")
	a.SetPeer("b", b.Addr())
	drops := obs.C("net.send_drops")
	before := drops.Value()
	err := a.SendBatch([]msg.Envelope{
		{To: "b", M: msg.M("good", wireBody{N: 1})},
		{To: "b", M: msg.M("bad", noCodec{})},
		{To: "b", M: msg.M("good", wireBody{N: 2})},
	})
	if err == nil || !strings.Contains(err.Error(), "noCodec") {
		t.Errorf("SendBatch returned %v, want the encoding error naming the body type", err)
	}
	for want := 1; want <= 2; want++ {
		if env := recvOne(t, b); env.M.Hdr != "good" || env.M.Body.(wireBody).N != want {
			t.Fatalf("got %s %+v, want good envelope %d", env.M.Hdr, env.M.Body, want)
		}
	}
	if got := drops.Value() - before; got != 1 {
		t.Errorf("net.send_drops rose by %d, want the one envelope that cannot be encoded", got)
	}
}
