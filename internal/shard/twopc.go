package shard

import (
	"bytes"
	"encoding/gob"
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

// RegisterWireTypes registers the 2PC bodies with the wire codec.
func RegisterWireTypes() {
	msg.RegisterBasics()
	for _, v := range []any{Vote{}, Ack{}, RetryBody{}} {
		msg.RegisterBody(v)
	}
}

// Payload markers distinguishing 2PC records from plain transactions
// ("tx|") in a delivered batch.
const (
	prepMark = "2pp|"
	decMark  = "2pd|"
)

// EncodePrepare serializes a Prepare for use as a broadcast payload.
func EncodePrepare(p Prepare) []byte {
	msg.RegisterBasics()
	var buf bytes.Buffer
	buf.WriteString(prepMark)
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		// All fields are gob-encodable once msg.RegisterBasics ran; this cannot fail.
		panic(fmt.Sprintf("shard: encode prepare: %v", err))
	}
	return buf.Bytes()
}

// DecodePrepare recognizes a Prepare payload. Like broadcast.DecodeBatch
// it is total: payloads cross the wire and the WAL, so malformed bytes
// return ok=false, never a crash.
func DecodePrepare(b []byte) (p Prepare, ok bool) {
	if len(b) < len(prepMark) || string(b[:len(prepMark)]) != prepMark {
		return Prepare{}, false
	}
	msg.RegisterBasics()
	defer func() {
		if recover() != nil {
			p, ok = Prepare{}, false
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(b[len(prepMark):])).Decode(&p); err != nil {
		return Prepare{}, false
	}
	return p, true
}

// EncodeDecision serializes a Decision for use as a broadcast payload.
func EncodeDecision(d Decision) []byte {
	var buf bytes.Buffer
	buf.WriteString(decMark)
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		panic(fmt.Sprintf("shard: encode decision: %v", err))
	}
	return buf.Bytes()
}

// DecodeDecision recognizes a Decision payload (total, like DecodePrepare).
func DecodeDecision(b []byte) (d Decision, ok bool) {
	if len(b) < len(decMark) || string(b[:len(decMark)]) != decMark {
		return Decision{}, false
	}
	defer func() {
		if recover() != nil {
			d, ok = Decision{}, false
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(b[len(decMark):])).Decode(&d); err != nil {
		return Decision{}, false
	}
	return d, true
}
