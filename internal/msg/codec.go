package msg

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// The wire codec serializes Msg values with encoding/gob. Because Msg.Body
// is an interface value, every concrete body type that crosses a real
// network transport must be registered first. Protocol packages expose a
// RegisterWireTypes function and binaries call it at startup; in-process
// transports and the simulator never serialize and need no registration.
//
// A frame starts with one tag byte: frameEnvelope carries a single
// envelope, frameBatch a slice of envelopes bound for the same
// destination (the batching hot path coalesces a handler's fan-out into
// one frame per peer). Encoding scratch buffers are pooled; the encoder
// allocates only the returned frame.

var registry sync.Map // reflect-free guard against double registration panics

// RegisterBody registers a concrete message-body type with the wire codec.
// It is safe to call multiple times with the same value.
func RegisterBody(v any) {
	key := fmt.Sprintf("%T", v)
	if _, dup := registry.LoadOrStore(key, struct{}{}); dup {
		return
	}
	gob.Register(v)
}

// RegisterBasics registers the basic value types that travel inside
// interface-typed fields (TxRequest.Args, SubTx.ApplyArgs, result rows)
// with gob, for the wire codec and the journal codec alike.
var RegisterBasics = sync.OnceFunc(func() {
	for _, v := range []any{int64(0), float64(0), "", int(0), true} {
		gob.Register(v)
	}
})

// Envelope is what actually travels on the wire: the message plus its
// source and destination locations, so receivers can route and reply.
// Trace and LC are the causal-correlation coordinates of the send: Trace
// identifies the client request whose handling caused this message (empty
// until a traced hop derives one), and LC is the sender's Lamport clock
// at the send event. Both ride through the gob codec for free (gob omits
// zero-valued fields), so untraced deployments pay no wire overhead.
type Envelope struct {
	From Loc
	To   Loc
	M    Msg
	// Trace is the per-request trace ID the send belongs to ("" if the
	// causal chain has not passed a traced request yet).
	Trace string
	// LC is the sender's Lamport clock at the send event (0 when the
	// sender keeps no clock).
	LC int64
	// Deadline is the absolute deadline (nanoseconds on the deployment
	// clock, 0 = none) of the request this send serves, extracted from
	// the body via RegisterDeadline when the host stamps the envelope.
	// Transports may drop an expired envelope instead of delivering it:
	// work that can no longer meet its deadline should not consume
	// receive, decode, or apply capacity. Like Trace/LC it gob-encodes
	// to nothing when zero, so deadline-free deployments pay no wire
	// overhead.
	Deadline int64
}

// Frame tags: the first byte of every encoded frame.
const (
	frameEnvelope byte = 'E' // one Envelope
	frameBatch    byte = 'B' // []Envelope, same destination
)

// bufPool recycles encoding scratch buffers so the per-send garbage is
// just the returned frame, not the encoder's working set.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func encodeTagged(tag byte, v any) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	buf.WriteByte(tag)
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// Encode serializes one envelope into a wire frame.
func Encode(e Envelope) ([]byte, error) {
	b, err := encodeTagged(frameEnvelope, e)
	if err != nil {
		return nil, fmt.Errorf("encode envelope: %w", err)
	}
	return b, nil
}

// EncodeBatch serializes several envelopes into one wire frame. The
// caller groups envelopes by destination; the frame is decoded back into
// the individual envelopes by DecodeFrame, so batching is invisible above
// the transport.
func EncodeBatch(envs []Envelope) ([]byte, error) {
	b, err := encodeTagged(frameBatch, envs)
	if err != nil {
		return nil, fmt.Errorf("encode batch: %w", err)
	}
	return b, nil
}

// Decode deserializes a single-envelope frame produced by Encode.
func Decode(b []byte) (Envelope, error) {
	envs, err := DecodeFrame(b)
	if err != nil {
		return Envelope{}, err
	}
	if len(envs) != 1 {
		return Envelope{}, fmt.Errorf("decode envelope: frame carries %d envelopes", len(envs))
	}
	return envs[0], nil
}

// DecodeFrame deserializes a frame produced by Encode or EncodeBatch into
// its envelopes, in send order. Truncated or corrupted input returns an
// error, never a panic: gob's decoder can panic on some malformed type
// descriptors, so the whole decode runs under a recover guard.
func DecodeFrame(b []byte) (envs []Envelope, err error) {
	defer func() {
		if r := recover(); r != nil {
			envs, err = nil, fmt.Errorf("decode frame: malformed input: %v", r)
		}
	}()
	if len(b) == 0 {
		return nil, fmt.Errorf("decode frame: empty")
	}
	dec := gob.NewDecoder(bytes.NewReader(b[1:]))
	switch b[0] {
	case frameEnvelope:
		var e Envelope
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("decode envelope: %w", err)
		}
		return []Envelope{e}, nil
	case frameBatch:
		var envs []Envelope
		if err := dec.Decode(&envs); err != nil {
			return nil, fmt.Errorf("decode batch: %w", err)
		}
		return envs, nil
	default:
		return nil, fmt.Errorf("decode frame: unknown tag 0x%02x", b[0])
	}
}
