package des

import (
	"container/heap"
	"time"
)

// Sim is the event loop: a virtual clock and a time-ordered queue of
// scheduled actions. It is single-threaded; all node handlers run inside
// Run.
type Sim struct {
	now    time.Duration
	seq    int64
	events eventHeap
	steps  int64
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Steps returns the number of events executed.
func (s *Sim) Steps() int64 { return s.steps }

// At schedules fn to run at absolute virtual time t (clamped to now).
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	heap.Push(&s.events, event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// Run executes events until the queue drains, the clock passes `until`
// (zero means no time bound), or maxEvents fire (zero means no bound).
// It returns the number of events executed.
func (s *Sim) Run(until time.Duration, maxEvents int64) int64 {
	var n int64
	for s.events.Len() > 0 {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		e := s.events[0]
		if until > 0 && e.at > until {
			break
		}
		heap.Pop(&s.events)
		s.now = e.at
		s.steps++
		n++
		e.fn()
	}
	return n
}

// Idle reports whether no events are pending.
func (s *Sim) Idle() bool { return s.events.Len() == 0 }

type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
