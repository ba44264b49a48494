package flow

import (
	"errors"

	"shadowdb/internal/msg"
)

// ErrOverload is the explicit admission-rejection error: the intake
// queue a request arrived at is full for the request's class. It is
// deliberately not a timeout — callers distinguish "the system chose
// to shed this" from "the system lost this" and react differently
// (spend retry budget vs. fail over).
var ErrOverload = errors.New("flow: overload, request shed by admission control")

// Class is a request's shed-priority class. Lower classes are shed
// first: a queue admits ClassRead only below ReadCap, ClassWrite below
// WriteCap, and ClassControl all the way to Cap, with ReadCap <
// WriteCap < Cap. Reads are the cheapest to refuse (clients fall back
// to lease/follower paths or retry elsewhere), writes carry client
// data, and control traffic (2PC decisions, lease renewals, membership
// commands) is the last thing a saturated system may drop — losing it
// converts overload into unavailability.
type Class uint8

// The shed-priority classes, cheapest-to-refuse first.
const (
	// ClassRead is read traffic routed through the order (shed first).
	ClassRead Class = iota
	// ClassWrite is client transaction traffic.
	ClassWrite
	// ClassControl is protocol control traffic: 2PC decisions, lease
	// renewals, membership commands (shed last).
	ClassControl

	numClasses
)

// String names the class for logs and reports.
func (c Class) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassControl:
		return "control"
	}
	return "unknown"
}

// Classifier maps an ordered payload to its shed class. The broadcast
// sequencer is payload-agnostic, so the layer that owns the payload
// format supplies one (core.FlowClass for tx/lease/membership payloads,
// shard.FlowClass adding the 2PC records). A nil Classifier treats
// everything as ClassWrite.
type Classifier func(payload []byte) Class

// Queue is a bounded admission counter with nested per-class
// thresholds. It does not hold the queued items — the owning layer
// keeps its own pending structure — it is the accounting that decides,
// observably, whether an arrival may join it. Occupancy covers
// everything admitted but not yet resolved (delivered, rejected, or
// expired), so the bound limits total in-progress intake, not just the
// instantaneous backlog slice.
type Queue struct {
	capTotal int
	readCap  int
	writeCap int

	n    int
	peak int

	sheds [numClasses]int64
}

// NewQueue builds a queue with capacity cap and the default nested
// thresholds: reads admitted below cap/2, writes below cap minus a
// reserved control band of max(1, cap/8). cap < 4 is clamped to 4 so
// every class retains at least one admissible slot.
func NewQueue(cap int) *Queue {
	if cap < 4 {
		cap = 4
	}
	readCap := cap / 2
	writeCap := cap - maxInt(1, cap/8)
	if writeCap <= readCap {
		writeCap = readCap + 1
	}
	return NewQueueCaps(cap, readCap, writeCap)
}

// NewQueueCaps builds a queue with explicit thresholds. Panics unless
// 0 < readCap < writeCap < cap — the nesting is what guarantees writes
// cannot be starved by reads and control always has headroom.
func NewQueueCaps(cap, readCap, writeCap int) *Queue {
	if !(0 < readCap && readCap < writeCap && writeCap < cap) {
		panic("flow: queue thresholds must nest 0 < readCap < writeCap < cap")
	}
	return &Queue{capTotal: cap, readCap: readCap, writeCap: writeCap}
}

// Admit asks to add one request of class c. On success occupancy grows
// by one and Admit returns nil; when occupancy has reached the class
// threshold it returns ErrOverload and the queue is unchanged. The
// caller must pair every successful Admit with exactly one Release.
func (q *Queue) Admit(c Class) error {
	limit := q.capTotal
	switch c {
	case ClassRead:
		limit = q.readCap
	case ClassWrite:
		limit = q.writeCap
	}
	if q.n >= limit {
		q.sheds[c]++
		mShed.Inc()
		shedByClass(c).Inc()
		return ErrOverload
	}
	q.n++
	mAdmitted.Inc()
	gDepth.Set(int64(q.n))
	if q.n > q.peak {
		q.peak = q.n
		if int64(q.peak) > gPeak.Value() {
			gPeak.Set(int64(q.peak))
		}
	}
	return nil
}

// Release resolves one previously admitted request (delivered,
// rejected downstream, or expired), freeing its slot.
func (q *Queue) Release() { q.ReleaseN(1) }

// ReleaseN resolves n previously admitted requests at once (a
// delivered batch).
func (q *Queue) ReleaseN(n int) {
	q.n -= n
	if q.n < 0 {
		q.n = 0
	}
	gDepth.Set(int64(q.n))
}

// Len returns the current occupancy.
func (q *Queue) Len() int { return q.n }

// Peak returns the highest occupancy ever reached; by construction it
// never exceeds Cap.
func (q *Queue) Peak() int { return q.peak }

// Cap returns the total capacity (the ClassControl threshold).
func (q *Queue) Cap() int { return q.capTotal }

// ClassCap returns the admission threshold for class c.
func (q *Queue) ClassCap(c Class) int {
	switch c {
	case ClassRead:
		return q.readCap
	case ClassWrite:
		return q.writeCap
	}
	return q.capTotal
}

// Sheds returns how many class-c arrivals were refused.
func (q *Queue) Sheds(c Class) int64 { return q.sheds[c] }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Expired reports whether an absolute deadline (nanoseconds on the
// deployment clock) has passed at time now. A zero deadline means "no
// deadline" and never expires.
func Expired(deadline, now int64) bool { return deadline > 0 && now >= deadline }

// HdrReject heads a Reject message.
const HdrReject = "flowReject"

// Rejection reasons carried in Reject.Reason.
const (
	// ReasonOverload: shed by a full admission queue; retryable if the
	// client's budget allows.
	ReasonOverload = "overload"
	// ReasonDeadline: the request's deadline passed before it could be
	// ordered; terminal (a retry cannot meet it either).
	ReasonDeadline = "deadline"
)

// Reject is the explicit terminal outcome for work a hop refused: sent
// to the request's origin so the client observes shed/expired requests
// instead of timing out, and carrying the rejecting queue's occupancy
// and bound so the online checker can audit that admission stayed
// within configuration.
type Reject struct {
	// From is the rejecting node.
	From msg.Loc
	// Seq is the rejected request's client sequence number.
	Seq int64
	// Class is the request's shed class.
	Class Class
	// Reason is ReasonOverload or ReasonDeadline.
	Reason string
	// Depth is the rejecting queue's occupancy at the rejection.
	Depth int
	// Cap is the rejecting queue's configured total bound (0 when the
	// rejection is not queue-related, e.g. an expired deadline).
	Cap int
}

// Flow's message bodies are registered with the wire codec at init
// (Reject under tag 0x40, DESIGN.md "Wire format and allocation hot
// path").
func init() {
	msg.RegisterCodec(0x40, Reject{}, appendReject, readReject)
}

func appendReject(w *msg.Writer, j Reject) {
	w.Loc(j.From)
	w.Int64(j.Seq)
	w.Byte(byte(j.Class))
	w.Text(j.Reason)
	w.Int(j.Depth)
	w.Int(j.Cap)
}

func readReject(r *msg.Reader) Reject {
	return Reject{From: r.Loc(), Seq: r.Int64(), Class: Class(r.Byte()), Reason: r.Text(), Depth: r.Int(), Cap: r.Int()}
}
