package network

import (
	"sync"
	"testing"

	"shadowdb/internal/leaktest"
	"shadowdb/internal/msg"
)

// TestTCPNoGoroutineLeakAfterClose exchanges traffic between two real TCP
// transports and asserts that Close reaps the accept loop and every
// per-connection reader.
func TestTCPNoGoroutineLeakAfterClose(t *testing.T) {
	leaktest.Check(t, "shadowdb/internal/network.")
	a, err := NewTCP("a", map[msg.Loc]string{"a": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP("b", map[msg.Loc]string{"b": "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer("b", b.Addr())
	b.SetPeer("a", a.Addr())
	for i := 0; i < 10; i++ {
		if err := a.Send(msg.Envelope{To: "b", M: msg.M("ping", wireBody{N: i})}); err != nil {
			t.Fatal(err)
		}
		recvOne(t, b)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPCloseRacesDial hammers the dial path while Close runs: the
// transport must neither deadlock in Close (a connection registered after
// the sweep would never be reaped) nor leak its reader goroutine.
func TestTCPCloseRacesDial(t *testing.T) {
	leaktest.Check(t, "shadowdb/internal/network.")
	for i := 0; i < 20; i++ {
		a, err := NewTCP("a", map[msg.Loc]string{"a": "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewTCP("b", map[msg.Loc]string{"b": "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		a.SetPeer("b", b.Addr())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Races Close: either the dial wins and the conn is swept, or
			// Close wins and Send reports ErrClosed.
			_ = a.Send(msg.Envelope{To: "b", M: msg.M("race", wireBody{N: i})})
		}()
		_ = a.Close()
		wg.Wait()
		if err := a.Send(msg.Envelope{To: "b", M: msg.M("late", nil)}); err != ErrClosed {
			t.Fatalf("send after close: err = %v, want ErrClosed", err)
		}
		_ = b.Close()
	}
}

// TestTCPCloseRacesLoopback hammers self-addressed Send and SendBatch
// from another goroutine (as a runtime timer does) across Close: the
// loopback path writes the inbox Close closes, so an unordered pair is
// a send on a closed channel. Every send must either land or report
// ErrClosed.
func TestTCPCloseRacesLoopback(t *testing.T) {
	leaktest.Check(t, "shadowdb/internal/network.")
	for i := 0; i < 50; i++ {
		a, err := NewTCP("a", map[msg.Loc]string{"a": "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		started := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(started)
			for {
				self := msg.Envelope{To: "a", M: msg.M("tick", nil)}
				if err := a.Send(self); err == ErrClosed {
					return
				}
				if err := a.SendBatch([]msg.Envelope{self, self}); err == ErrClosed {
					return
				}
			}
		}()
		<-started
		_ = a.Close()
		wg.Wait()
	}
}
