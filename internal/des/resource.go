package des

import (
	"time"
)

// Resource is an exclusive lock living in virtual time, with a FIFO waiter
// queue and per-request timeouts. The database engines use one Resource
// per table (or per row) to reproduce the lock-contention behaviour the
// paper attributes to H2 and MySQL's memory engine: "This happens when
// contention is too high and transactions timeout when trying to lock the
// database table."
type Resource struct {
	sim     *Sim
	held    bool
	waiters []*lockReq
	// Timeouts counts requests that gave up waiting.
	Timeouts int64
	// Grants counts successful acquisitions.
	Grants int64
}

type lockReq struct {
	granted  func()
	timedOut func()
	done     bool // granted or timed out already
}

// NewResource creates a free resource on a simulator.
func NewResource(sim *Sim) *Resource { return &Resource{sim: sim} }

// Held reports whether the resource is currently held.
func (r *Resource) Held() bool { return r.held }

// Acquire requests the resource. granted runs (possibly immediately) when
// the lock is obtained; if timeout elapses first, timedOut runs instead
// and the request leaves the queue. A zero timeout waits forever.
func (r *Resource) Acquire(timeout time.Duration, granted, timedOut func()) {
	if !r.held {
		r.held = true
		r.Grants++
		granted()
		return
	}
	req := &lockReq{granted: granted, timedOut: timedOut}
	r.waiters = append(r.waiters, req)
	if timeout > 0 {
		r.sim.After(timeout, func() {
			if req.done {
				return
			}
			req.done = true
			r.Timeouts++
			if req.timedOut != nil {
				req.timedOut()
			}
		})
	}
}

// Release frees the resource and grants it to the next live waiter.
func (r *Resource) Release() {
	for len(r.waiters) > 0 {
		req := r.waiters[0]
		r.waiters = r.waiters[1:]
		if req.done {
			continue // timed out while queued
		}
		req.done = true
		r.Grants++
		// The resource stays held; ownership transfers to the waiter.
		req.granted()
		return
	}
	r.held = false
}

// Semaphore is a counting resource without timeouts, used to model a
// node's CPU cores around lock-held execution windows.
type Semaphore struct {
	sim     *Sim
	cap     int
	used    int
	waiters []func()
}

// NewSemaphore creates a semaphore with the given capacity.
func NewSemaphore(sim *Sim, capacity int) *Semaphore {
	if capacity <= 0 {
		capacity = 1
	}
	return &Semaphore{sim: sim, cap: capacity}
}

// Acquire runs granted when a unit is available (possibly immediately).
func (s *Semaphore) Acquire(granted func()) {
	if s.used < s.cap {
		s.used++
		granted()
		return
	}
	s.waiters = append(s.waiters, granted)
}

// Release frees one unit, granting the next waiter if any.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		g := s.waiters[0]
		s.waiters = s.waiters[1:]
		g()
		return
	}
	if s.used > 0 {
		s.used--
	}
}
