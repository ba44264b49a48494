// Package network provides the real transports of the system: an
// in-process channel hub for single-process deployments and tests, and a
// TCP transport with length-prefixed msg frames for distributed
// deployments ("The participants communicate over TCP channels", Section
// III). Both satisfy Transport, which package runtime hosts GPM processes
// on.
package network

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// Transport moves envelopes between locations. Send is asynchronous and
// best-effort: the crash-failure model means undeliverable messages are
// dropped, not retried forever.
type Transport interface {
	// Send queues an envelope for delivery.
	Send(env msg.Envelope) error
	// Receive returns the channel of inbound envelopes. It is closed by
	// Close.
	Receive() <-chan msg.Envelope
	// Close releases the transport's resources.
	Close() error
}

// BatchSender is an optional Transport extension: a transport that can
// write a step's sends, bound for any mix of destinations, as one frame
// per connection. Hosts probe for it with a type assertion and fall back
// to per-envelope Send when absent, so batching never changes semantics —
// only the number of syscalls and frames.
type BatchSender interface {
	// SendBatch queues envs, keeping their order within each
	// destination. Like Send it is asynchronous and best-effort: an
	// unreachable destination drops only its own envelopes. It may
	// rewrite envs' From fields.
	SendBatch(envs []msg.Envelope) error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("network: transport closed")

// ---------------------------------------------------------- channel hub --

// Hub is an in-process network: every location registers and gets a
// Transport whose sends are routed through Go channels. Useful for tests,
// examples, and single-process deployments.
type Hub struct {
	mu     sync.Mutex
	inbox  map[msg.Loc]chan msg.Envelope
	closed bool
	// Dropped counts messages to unknown or overloaded destinations.
	// Atomic: benchmark drivers read it while sender goroutines run.
	Dropped atomic.Int64
	drops   *obs.Counter
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{inbox: make(map[msg.Loc]chan msg.Envelope), drops: obs.C("net.hub_drops")}
}

// Register joins a location to the hub.
func (h *Hub) Register(l msg.Loc) (Transport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if _, dup := h.inbox[l]; dup {
		return nil, fmt.Errorf("network: location %q already registered", l)
	}
	ch := make(chan msg.Envelope, 1024)
	h.inbox[l] = ch
	return &hubTransport{hub: h, self: l, ch: ch}, nil
}

// Close shuts the hub and every registered transport.
func (h *Hub) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	for l, ch := range h.inbox {
		close(ch)
		delete(h.inbox, l) // a transport closed later finds nothing to close
	}
	return nil
}

func (h *Hub) send(env msg.Envelope) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	ch, ok := h.inbox[env.To]
	if !ok {
		h.Dropped.Add(1)
		h.drops.Inc()
		return nil // unknown destination: dropped, as on a real network
	}
	select {
	case ch <- env:
	default:
		// Receiver overloaded: drop rather than deadlock.
		h.Dropped.Add(1)
		h.drops.Inc()
	}
	return nil
}

type hubTransport struct {
	hub    *Hub
	self   msg.Loc
	ch     chan msg.Envelope
	closed sync.Once
	dead   atomic.Bool
}

var _ Transport = (*hubTransport)(nil)

func (t *hubTransport) Send(env msg.Envelope) error {
	if t.dead.Load() {
		return ErrClosed
	}
	env.From = t.self
	return t.hub.send(env)
}

func (t *hubTransport) Receive() <-chan msg.Envelope { return t.ch }

func (t *hubTransport) Close() error {
	t.closed.Do(func() {
		t.dead.Store(true)
		t.hub.mu.Lock()
		defer t.hub.mu.Unlock()
		if ch, ok := t.hub.inbox[t.self]; ok {
			delete(t.hub.inbox, t.self)
			close(ch)
		}
	})
	return nil
}
