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
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/shard"
)

// The payloads are bodies carried inside other bodies' bytes: what a
// Bcast orders — a transaction, a membership command, a lease renewal,
// a PBR recovery proposal, a 2PC prepare or decision — and the batch a
// consensus value holds. Each is one body of the wire codec
// (msg.AppendBody), told from the others by its tag alone.

// payloadKinds names every payload decoder.
var payloadKinds = []string{"tx", "batch", "prepare", "decision", "command", "lease", "config"}

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
// codecs wrote them: a text mark and a gob stream, or a bare gob stream
// for the batch.
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
		req, err := msg.DecodeBody[core.TxRequest](b)
		return req, err == nil
	case "batch":
		batch, err := broadcast.DecodeBatch(string(b))
		return batch, err == nil
	case "prepare":
		p, err := msg.DecodeBody[shard.Prepare](b)
		return p, err == nil
	case "decision":
		d, err := msg.DecodeBody[shard.Decision](b)
		return d, err == nil
	case "command":
		return member.DecodeCommand(b)
	case "lease":
		l, err := msg.DecodeBody[core.LeaseRenewal](b)
		return l, err == nil
	case "config":
		c, err := msg.DecodeBody[core.NewConfig](b)
		return c, err == nil
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
	case member.Command:
		return member.EncodeCommand(v)
	case core.LeaseRenewal:
		return core.EncodeLease(v)
	case core.NewConfig:
		return mustBody(v)
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
	for _, c := range commands {
		check("command", c, gobTrip(t, c))
	}
	for _, l := range []core.LeaseRenewal{{}, lease, {Epoch: math.MinInt, Issue: math.MaxInt64, Seq: math.MinInt64}} {
		check("lease", l, gobTrip(t, l))
	}
	for _, c := range []core.NewConfig{{}, {Members: []msg.Loc{}}, proposal} {
		check("config", c, gobTrip(t, c))
	}
}

// commands are one membership command per op, a node with a '|' among
// them, as the admin route may be asked to submit.
var commands = []member.Command{
	{Op: member.AddReplica, Node: "r|4", Addr: "h:1"},
	{Op: member.RemoveReplica, Node: "r2"},
	{Op: member.AddAcceptor, Node: "b4", Addr: "127.0.0.1:9104"},
	{Op: member.RemoveAcceptor, Node: "b2"},
}

// lease is a renewal with every field set; proposal a PBR recovery
// proposal with a '|' in a member's location.
var (
	lease    = core.LeaseRenewal{Epoch: 3, Holder: "r1", Issue: 1500 * 1e6, Seq: 9}
	proposal = core.NewConfig{OldSeq: 5, Members: []msg.Loc{"r1", "a|b"}, Proposer: "r1"}
)

// oldTextPayloads are the ordered payloads as the build before the
// payload codecs wrote them: a text mark and a codec body, or pipe-
// separated text. Among them are the three the text parsers misread:
// a proposal whose member holds a '|' (read as two members), an OldSeq
// with trailing letters (read as 5), and a node "r|4" (read as node "r"
// at address "4|h:1").
var oldTextPayloads = map[string][]byte{
	"marked tx":           append([]byte("tx|"), mustBody(deposit)...),
	"marked prepare":      append([]byte("2pp|"), mustBody(prepare())...),
	"marked decision":     append([]byte("2pd|"), mustBody(shard.Decision{TxID: "c1/9", Commit: true})...),
	"text command":        []byte("mbr|add-replica|r4|h:1"),
	"text lease":          []byte("lse|0|r1|1500000000|1"),
	"text proposal":       []byte("cfg|5|r1|r1|r2"),
	"'|' in a member":     []byte("cfg|5|r1|r1|a|b"),
	"OldSeq 5abc":         []byte("cfg|5abc|r1|r2"),
	"'|' in a node":       []byte("mbr|add-replica|r|4|h:1"),
	"'|' in a holder":     []byte("lse|0|r|1|1500000000|1"),
	"empty command":       []byte("mbr|"),
	"text command, no op": []byte("mbr|bogus|n|"),
}

func mustBody(v any) []byte {
	b, err := msg.AppendBody(nil, v)
	if err != nil {
		panic(err)
	}
	return b
}

// Every payload an older build ordered — a text mark before a codec
// body, or pipe-separated text — is refused by every payload decoder,
// never misread as some other value: an old journal's payloads are not
// applied as something else.
func TestPayloadsRefuseOldText(t *testing.T) {
	for name, b := range oldTextPayloads {
		for _, kind := range payloadKinds {
			if v, ok := decodePayload(kind, b); ok {
				t.Errorf("%s %q: the %s decoder read %#v", name, b, kind, v)
			}
		}
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
	huge := func(b ...byte) []byte {
		return append(binary.AppendUvarint(b, 1<<30), make([]byte, 32)...)
	}
	return []planted{
		// A TxRequest: empty Client, Seq 0, empty Type, then Args.
		{"tx", "Args count", huge(0x10, 0, 0, 0)},
		{"batch", "Bcast count", huge(0x22)},
		{"prepare", "TxID length", huge(0x50)},
		// Empty TxID and Coord, Shard 0, then Participants.
		{"prepare", "Participants count", huge(0x50, 0, 0, 0)},
		{"decision", "TxID length", huge(0x51)},
		{"command", "Op length", huge(0x70)},
		// Epoch 0, then Holder.
		{"lease", "Holder length", huge(0x1f, 0)},
		// OldSeq 0, then Members.
		{"config", "Members count", huge(0x80, 0)},
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
	if allocs := testing.AllocsPerRun(100, func() { _, _ = msg.DecodeBody[core.TxRequest](tx) }); allocs > 5 {
		t.Errorf("decoding a deposit allocated %.0f times, want at most 5", allocs)
	}
	val := broadcast.EncodeBatch(batch16())
	if allocs := testing.AllocsPerRun(100, func() { _, _ = broadcast.DecodeBatch(val) }); allocs > 2*16+4 {
		t.Errorf("DecodeBatch of 16 Bcasts allocated %.0f times, want at most %d", allocs, 2*16+4)
	}
}

// FuzzDecodePayloads throws arbitrary bytes — and mutations of every
// payload kind, of the gob and text payloads the codecs replaced, and
// of planted lengths — at all seven payload decoders. Each must return
// a value or refuse, never panic, and is exact: a value it returns
// re-encodes to the very bytes it was decoded from.
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
	for _, v := range []any{commands[0], commands[3], lease, proposal, core.NewConfig{}} {
		f.Add(encodePayload(f, v))
	}
	for _, name := range []string{"'|' in a member", "OldSeq 5abc", "'|' in a node", "marked tx", "text lease"} {
		f.Add(oldTextPayloads[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range payloadKinds {
			v, ok := decodePayload(kind, data)
			if !ok {
				continue
			}
			if b := encodePayload(t, v); !bytes.Equal(b, data) {
				t.Fatalf("%s: %x decodes to %#v, which re-encodes to %x", kind, data, v, b)
			}
		}
	})
}
