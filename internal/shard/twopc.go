package shard

import (
	"errors"
	"fmt"

	"shadowdb/internal/core"
	"shadowdb/internal/msg"
)

// The 2PC vocabulary. Prepare and Decision travel as broadcast payloads
// (they are ordered through each participant shard's total order, so the
// 2PC outcome is replicated and crash-recoverable); Vote and Ack are
// plain replica→coordinator messages — losing one only delays the
// protocol, because the coordinator retransmits the ordered records and
// replicas answer duplicates idempotently from their prepared/decided
// tables.

// Message headers of the 2PC layer.
const (
	// HdrVote is a shard replica's prepare vote to the coordinator.
	HdrVote = "shard.vote"
	// HdrAck acknowledges a delivered decision to the coordinator.
	HdrAck = "shard.ack"
	// HdrRetry is the coordinator's self-addressed retransmission timer.
	HdrRetry = "shard.retry"
)

// SubTx is one shard's slice of a cross-shard transaction: the
// reservations its vote must secure and the procedure applied on commit.
type SubTx struct {
	// Reserve maps keys to the amount that must be available for the vote
	// to be YES; a YES vote holds the amounts (outside the database) until
	// the decision arrives.
	Reserve map[string]int64
	// Apply names the registered procedure run on commit, with ApplyArgs.
	Apply     string
	ApplyArgs []any
}

// Prepare asks one shard to vote on a cross-shard transaction. It is
// delivered through the shard's total order, so every replica of the
// shard computes the same (deterministic) vote.
type Prepare struct {
	// TxID is the transaction's identity (the originating request's Key).
	TxID string
	// Coord is where votes go; Shard is the recipient shard's index.
	Coord msg.Loc
	Shard int
	// Participants lists every involved shard (ascending) — recovery and
	// the checker both read the membership from the record itself.
	Participants []int
	// Req is the original client request (result routing, dedup identity).
	Req core.TxRequest
	// Sub is this shard's slice.
	Sub SubTx
}

// Decision carries the coordinator's commit/abort verdict to one shard,
// again through the shard's total order.
type Decision struct {
	TxID   string
	Shard  int
	Coord  msg.Loc
	Commit bool
}

// Vote is a replica's answer to a delivered Prepare.
type Vote struct {
	TxID  string
	Shard int
	From  msg.Loc
	OK    bool
}

// Ack confirms a replica delivered (and applied) a Decision.
type Ack struct {
	TxID  string
	Shard int
	From  msg.Loc
}

// RetryBody tags the coordinator's retransmission timer with the
// transaction it guards.
type RetryBody struct {
	TxID string
}

// The 2PC bodies are registered with the wire codec at init: the ordered
// records Prepare and Decision, the replica→coordinator Vote and Ack,
// and the coordinator's retry timer (tags 0x50–0x5f, DESIGN.md "Wire
// format and allocation hot path").
func init() {
	msg.RegisterCodec(prepareTag, Prepare{}, appendPrepare, readPrepare)
	msg.RegisterCodec(decisionTag, Decision{}, appendDecision, readDecision)
	msg.RegisterCodec(0x52, Vote{}, appendVote, readVote)
	msg.RegisterCodec(0x53, Ack{}, appendAck, readAck)
	msg.RegisterCodec(0x54, RetryBody{}, func(w *msg.Writer, b RetryBody) { w.Text(b.TxID) },
		func(r *msg.Reader) RetryBody { return RetryBody{TxID: r.Text()} })
}

// The tags of the 2PC records, which tell them from the other payloads
// of a shard's total order.
const (
	prepareTag  = 0x50
	decisionTag = 0x51
)

func appendPrepare(w *msg.Writer, p Prepare) {
	w.Text(p.TxID)
	w.Loc(p.Coord)
	w.Int(p.Shard)
	w.Uvarint(uint64(len(p.Participants)))
	for _, s := range p.Participants {
		w.Int(s)
	}
	core.AppendTxRequest(w, p.Req)
	appendSubTx(w, p.Sub)
}

// appendSubTx writes the reservations in key order, so a SubTx has one
// encoding, and behind a presence bool: an empty map is not a nil one.
func appendSubTx(w *msg.Writer, s SubTx) {
	w.Bool(s.Reserve != nil)
	if s.Reserve != nil {
		w.Uvarint(uint64(len(s.Reserve)))
		for _, k := range msg.SortedKeys(s.Reserve) {
			w.Text(k)
			w.Int64(s.Reserve[k])
		}
	}
	w.Text(s.Apply)
	w.Values(s.ApplyArgs)
}

var errReserveOrder = errors.New("shard: reservation keys out of order")

// readSubTx refuses reservations that are not in strictly ascending key
// order, as appendSubTx writes them, so a decoded SubTx re-encodes to
// the bytes it was read from.
func readSubTx(r *msg.Reader) SubTx {
	var s SubTx
	if r.Bool() {
		n := r.Count(2) // a key length and an amount
		s.Reserve = make(map[string]int64, n)
		prev := ""
		for i := range n {
			k := r.Text()
			if i > 0 && k <= prev {
				r.Fail(errReserveOrder)
			}
			s.Reserve[k], prev = r.Int64(), k
		}
	}
	s.Apply = r.Text()
	s.ApplyArgs = r.Values()
	return s
}

func readPrepare(r *msg.Reader) Prepare {
	p := Prepare{TxID: r.Text(), Coord: r.Loc(), Shard: r.Int()}
	if n := r.Count(1); n > 0 {
		p.Participants = make([]int, n)
		for i := range p.Participants {
			p.Participants[i] = r.Int()
		}
	}
	p.Req = core.ReadTxRequest(r)
	p.Sub = readSubTx(r)
	return p
}

func appendDecision(w *msg.Writer, d Decision) {
	w.Text(d.TxID)
	w.Int(d.Shard)
	w.Loc(d.Coord)
	w.Bool(d.Commit)
}

func readDecision(r *msg.Reader) Decision {
	return Decision{TxID: r.Text(), Shard: r.Int(), Coord: r.Loc(), Commit: r.Bool()}
}

func appendVote(w *msg.Writer, v Vote) {
	w.Text(v.TxID)
	w.Int(v.Shard)
	w.Loc(v.From)
	w.Bool(v.OK)
}

func readVote(r *msg.Reader) Vote {
	return Vote{TxID: r.Text(), Shard: r.Int(), From: r.Loc(), OK: r.Bool()}
}

func appendAck(w *msg.Writer, a Ack) {
	w.Text(a.TxID)
	w.Int(a.Shard)
	w.Loc(a.From)
}

func readAck(r *msg.Reader) Ack { return Ack{TxID: r.Text(), Shard: r.Int(), From: r.Loc()} }

// EncodePrepare serializes a Prepare for use as a broadcast payload: the
// Prepare as a body of the wire codec.
func EncodePrepare(p Prepare) []byte {
	b, err := msg.AppendBody(nil, p)
	if err != nil {
		// The router refuses a request whose arguments have no wire kind
		// before it prepares it (Router.onCrossShard), so this cannot fail.
		panic(fmt.Sprintf("shard: encode %T: %v", p, err))
	}
	return b
}

// EncodeDecision serializes a Decision for use as a broadcast payload.
func EncodeDecision(d Decision) []byte {
	b, _ := msg.AppendBody(nil, d) // a Decision has no field without a kind
	return b
}
