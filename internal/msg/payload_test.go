package msg_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/shard"
)

// The payloads are bodies carried inside other bodies' bytes: the "tx|"
// transaction of a Bcast, the batch a consensus value holds, and the
// "2pp|"/"2pd|" 2PC records. Each is its owner's mark (none for the
// batch) followed by one body of the wire codec (msg.AppendBody).

// gobTrip is the oracle: what one-shot gob makes of v.
func gobTrip[T any](t *testing.T, v T) T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode %#v: %v", v, err)
	}
	var out T
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %#v: %v", v, err)
	}
	return out
}

// oldPayloads are the payloads as the gob encoding replaced by the
// codecs wrote them: a mark and a gob stream, or a bare gob stream for
// the batch.
func oldPayloads(tb testing.TB) map[string][]byte {
	enc := func(mark string, v any) []byte {
		buf := bytes.NewBufferString(mark)
		if err := gob.NewEncoder(buf).Encode(v); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string][]byte{
		"tx":       enc("tx|", deposit),
		"batch":    enc("", []broadcast.Bcast(batch16()[:1])),
		"prepare":  enc("2pp|", prepare()),
		"decision": enc("2pd|", shard.Decision{TxID: "c1/9", Coord: "rt1", Commit: true}),
	}
}

// decodePayload runs the decoder of one payload kind, reporting whether
// it accepted b and what it made of it.
func decodePayload(kind string, b []byte) (any, bool) {
	switch kind {
	case "tx":
		req, err := core.DecodeTx(b)
		return req, err == nil
	case "batch":
		batch, err := broadcast.DecodeBatch(string(b))
		return batch, err == nil
	case "prepare":
		return shard.DecodePrepare(b)
	case "decision":
		return shard.DecodeDecision(b)
	}
	panic("unknown payload kind " + kind)
}

// encodePayload is decodePayload's inverse.
func encodePayload(t testing.TB, v any) []byte {
	switch v := v.(type) {
	case core.TxRequest:
		b, err := core.EncodeTx(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	case []broadcast.Bcast:
		return []byte(broadcast.EncodeBatch(v))
	case shard.Prepare:
		return shard.EncodePrepare(v)
	case shard.Decision:
		return shard.EncodeDecision(v)
	}
	t.Fatalf("no payload encoding for %T", v)
	return nil
}

// TestPayloadsAgainstGob is the payload codecs' differential oracle:
// each payload decodes to exactly what a gob round trip of its value
// yields.
func TestPayloadsAgainstGob(t *testing.T) {
	check := func(kind string, in, want any) {
		t.Helper()
		b := encodePayload(t, in)
		got, ok := decodePayload(kind, b)
		if !ok {
			t.Fatalf("%s %#v: its encoding %x does not decode", kind, in, b)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s hand codec: %#v\n        gob: %#v", kind, got, want)
		}
	}
	for _, req := range []core.TxRequest{
		{}, deposit,
		{Client: "c1", Seq: math.MinInt64, Type: "t", Args: everyKind, Deadline: math.MaxInt64},
		{Client: "c1", Args: []any{}},
		{Client: "c1", Args: []any{nil}},
	} {
		check("tx", req, gobTrip(t, req))
	}
	for _, batch := range [][]broadcast.Bcast{nil, {}, batch16(), {{}, {Payload: []byte{}}}} {
		check("batch", batch, gobTrip(t, batch))
	}
	for _, p := range []shard.Prepare{{}, prepare(), {Sub: shard.SubTx{Reserve: map[string]int64{}}}} {
		check("prepare", p, gobTrip(t, p))
	}
	for _, d := range []shard.Decision{{}, {TxID: "c1/9", Shard: 2, Coord: "rt1", Commit: true}} {
		check("decision", d, gobTrip(t, d))
	}
}

// The payloads the gob encoding wrote decode to an error, never to a
// different value: a gob stream opens with its first message's length,
// which is no body tag. A data dir or a peer of that format is refused,
// not misread.
func TestPayloadsRefuseOldGob(t *testing.T) {
	for kind, b := range oldPayloads(t) {
		if v, ok := decodePayload(kind, b); ok {
			t.Errorf("%s: the gob payload %x decoded to %#v", kind, b, v)
		}
	}
}

// planted is a payload carrying a count or length of 2³⁰ where it has a
// few bytes left.
type planted struct {
	kind, field string
	b           []byte
}

func plantedPayloads() []planted {
	huge := func(mark string, b ...byte) []byte {
		return append(binary.AppendUvarint(append([]byte(mark), b...), 1<<30), make([]byte, 32)...)
	}
	return []planted{
		// A TxRequest: empty Client, Seq 0, empty Type, then Args.
		{"tx", "Args count", huge("tx|", 0x10, 0, 0, 0)},
		{"batch", "Bcast count", huge("", 0x22)},
		{"prepare", "TxID length", huge("2pp|", 0x50)},
		// Empty TxID and Coord, Shard 0, then Participants.
		{"prepare", "Participants count", huge("2pp|", 0x50, 0, 0, 0)},
		{"decision", "TxID length", huge("2pd|", 0x51)},
	}
}

func TestPayloadPlantedLengths(t *testing.T) {
	for _, p := range plantedPayloads() {
		if v, ok := decodePayload(p.kind, p.b); ok {
			t.Errorf("%s %s: planted length decoded to %#v", p.kind, p.field, v)
			continue
		}
		// The refusal's error, wrapped once by the payload's owner, and
		// the batch value's copy out of its string: a handful (5, 6 under
		// -race), never anything the planted length asked for.
		if allocs := testing.AllocsPerRun(100, func() { decodePayload(p.kind, p.b) }); allocs > 8 {
			t.Errorf("%s %s: refusing the payload allocated %.0f times, want at most 8", p.kind, p.field, allocs)
		}
	}
}

// The decode budget of the two payloads every SMR replica decodes per
// transaction. A deposit costs its two strings, its Args slice, the
// Reader and the boxed body (its small integers box for free); a batch
// costs each Bcast's From and Payload, the slice, the Reader, the boxed
// body and the value's copy out of its string. The one-shot gob
// decoders these replace cost 193 and 247.
func TestPayloadDecodeAllocs(t *testing.T) {
	tx := encodePayload(t, deposit)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = core.DecodeTx(tx) }); allocs > 5 {
		t.Errorf("DecodeTx of a deposit allocated %.0f times, want at most 5", allocs)
	}
	val := broadcast.EncodeBatch(batch16())
	if allocs := testing.AllocsPerRun(100, func() { _, _ = broadcast.DecodeBatch(val) }); allocs > 2*16+4 {
		t.Errorf("DecodeBatch of 16 Bcasts allocated %.0f times, want at most %d", allocs, 2*16+4)
	}
}

// FuzzDecodePayloads throws arbitrary bytes — and mutations of every
// payload kind, of the gob payloads the codecs replaced, and of planted
// lengths — at all four payload decoders. Each must return a value or
// refuse, never panic, and a value it returns must encode to a payload
// that decodes back to the same encoding.
func FuzzDecodePayloads(f *testing.F) {
	for _, v := range []any{deposit, core.TxRequest{Args: everyKind}, []broadcast.Bcast(batch16()),
		[]broadcast.Bcast{}, prepare(), shard.Decision{TxID: "t", Commit: true}} {
		f.Add(encodePayload(f, v))
	}
	for _, b := range oldPayloads(f) {
		f.Add(b)
	}
	for _, p := range plantedPayloads() {
		f.Add(p.b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []string{"tx", "batch", "prepare", "decision"} {
			v, ok := decodePayload(kind, data)
			if !ok {
				continue
			}
			b := encodePayload(t, v)
			back, ok := decodePayload(kind, b)
			if !ok {
				t.Fatalf("%s %#v re-encodes to %x, which does not decode", kind, v, b)
			}
			if again := encodePayload(t, back); !bytes.Equal(again, b) {
				t.Fatalf("%s: %x decodes and re-encodes to %x", kind, b, again)
			}
		}
	})
}
