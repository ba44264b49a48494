package msg

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
)

// codedBody and testBody have frame codecs of their own (testTag,
// testBodyTag), so these tests reach the registered path without
// importing a protocol package.
type codedBody struct {
	N    int
	S    string
	Args []any
}

const (
	testTag     = 0xf0
	testBodyTag = 0xf1
)

func appendCoded(w *Writer, b codedBody) {
	w.Int(b.N)
	w.Text(b.S)
	w.Values(b.Args)
}

func readCoded(r *Reader) codedBody { return codedBody{N: r.Int(), S: r.Text(), Args: r.Values()} }

func appendTestBody(w *Writer, b testBody) {
	w.Int(b.N)
	w.Text(b.S)
}

func readTestBody(r *Reader) testBody { return testBody{N: r.Int(), S: r.Text()} }

func init() {
	RegisterCodec(testTag, codedBody{}, appendCoded, readCoded)
	RegisterCodec(testBodyTag, testBody{}, appendTestBody, readTestBody)
}

func TestBatchFrameRoundTrip(t *testing.T) {
	in := []Envelope{
		{From: "a", To: "b", M: M("one", testBody{N: 1, S: "x"}), LC: 3},
		{From: "a", To: "b", M: M("two", codedBody{N: 2, S: "y", Args: []any{int64(-9), "z", true}}), Trace: "t1", LC: 4},
		{From: "a", To: "b", M: M("three", nil), LC: 5, Deadline: 77},
	}
	frame, err := EncodeBatch(in)
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	out, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("DecodeFrame = %+v, want %+v", out, in)
	}
}

func TestDecodeFrameSingle(t *testing.T) {
	in := Envelope{From: "a", To: "b", M: M("h", testBody{N: 9})}
	frame, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(out) != 1 || out[0].M.Hdr != "h" {
		t.Fatalf("DecodeFrame = %+v", out)
	}
	// Decode must reject a batch frame: callers asking for exactly one
	// envelope should not silently drop the rest.
	batch, err := EncodeBatch([]Envelope{in, in})
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	if _, err := Decode(batch); err == nil {
		t.Error("Decode(batch frame) succeeded, want error")
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	good, err := Encode(Envelope{From: "a", To: "b", M: M("h", codedBody{N: 1})})
	if err != nil {
		t.Fatal(err)
	}
	// The gob frames this format replaced led with 'E' or 'B'.
	var old bytes.Buffer
	old.WriteByte('E')
	if err := gob.NewEncoder(&old).Encode(Envelope{From: "a", To: "b", M: M("h", 1)}); err != nil {
		t.Fatal(err)
	}
	unknownTag := bytes.Clone(good)
	unknownTag[bytes.IndexByte(good, testTag)] = 0xee
	// Tag 1 carried a length and a gob body; it is reserved, not decoded.
	gobTag := append([]byte{frameVersion, 1, 0, 0, 0, 0, 0, 0, tagReserved}, byte(old.Len()))
	gobTag = append(gobTag, old.Bytes()...)
	for name, frame := range map[string][]byte{
		"empty":           nil,
		"unknown version": {0x7f, 1, 2},
		"old gob frame":   old.Bytes(),
		"gob body tag":    gobTag,
		"unknown tag":     unknownTag,
		"trailing byte":   append(bytes.Clone(good), 0),
		"unknown kind":    {frameVersion, 1, 0, 0, 0, 0, 0, 0, testTag, 0, 0, 1, kindTrue + 1},
	} {
		if envs, err := DecodeFrame(frame); err == nil {
			t.Errorf("%s: DecodeFrame = %+v, want an error", name, envs)
		}
	}
}

// RegisterCodec refuses, on a table of the test's own, every
// registration that could make a tag or a type ambiguous: a reserved
// tag, and a tag or a type registered before, even identically.
func TestRegisterCodec(t *testing.T) {
	var tab codecTable
	tab.add(newCodec(testTag, codedBody{}, appendCoded, readCoded))
	type other struct{ N int }
	for name, register := range map[string]func(){
		"reserved tag": func() { tab.add(newCodec(tagReserved, other{}, nil, nil)) },
		"nil tag":      func() { tab.add(newCodec(tagNil, other{}, nil, nil)) },
		"again":        func() { tab.add(newCodec(testTag, codedBody{}, appendCoded, readCoded)) },
		"reused tag":   func() { tab.add(newCodec(testTag, other{}, nil, nil)) },
		"reused type":  func() { tab.add(newCodec(testTag+1, codedBody{}, appendCoded, readCoded)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			register()
		}()
	}
	if c := tab.byTag[testTag]; c == nil || c != tab.byType[reflect.TypeOf(codedBody{})] || len(tab.byType) != 1 {
		t.Errorf("table after refusals = %v, want only codedBody under %#x", tab.byType, testTag)
	}
	var found bool
	for _, wt := range WireTags() {
		found = found || wt.Tag == testTag && wt.Type == reflect.TypeOf(codedBody{})
	}
	if !found {
		t.Errorf("WireTags() = %v, want a %#x row for codedBody", WireTags(), testTag)
	}
}

// Every value kind a request or a result can hold either has a wire
// encoding — its own, or the one the SQL layer widens it to — or is
// refused with an error naming its type. A body without a codec is
// refused the same way.
func TestValueKinds(t *testing.T) {
	type point struct{ X int }
	for _, tc := range []struct {
		in, want any // want nil: refused
	}{
		{nil, nil}, {int64(-3), int64(-3)}, {7, 7}, {2.5, 2.5}, {"s", "s"}, {true, true}, {false, false},
		{int32(-9), int64(-9)}, {float32(1.5), float64(1.5)},
		{int8(1), nil}, {int16(1), nil}, {uint(1), nil}, {uint8(1), nil}, {uint16(1), nil},
		{uint32(1), nil}, {uint64(1), nil}, {[]byte("b"), nil}, {complex(1, 2), nil}, {point{1}, nil},
	} {
		body := codedBody{N: 1, Args: []any{int64(2), tc.in}}
		b, err := AppendBody(nil, body)
		refused := tc.want == nil && tc.in != nil
		if refused {
			name := reflect.TypeOf(tc.in).String()
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%T: AppendBody = %v, want an error naming %s", tc.in, err, name)
			}
			if cerr := CheckValues(body.Args); cerr == nil || !strings.Contains(cerr.Error(), name) {
				t.Errorf("%T: CheckValues = %v, want an error naming %s", tc.in, cerr, name)
			}
			continue
		}
		if err != nil || CheckValues(body.Args) != nil {
			t.Errorf("%T: AppendBody = %v, CheckValues = %v", tc.in, err, CheckValues(body.Args))
			continue
		}
		got, err := DecodeBody[codedBody](b)
		if err != nil || !reflect.DeepEqual(got.Args, []any{int64(2), tc.want}) {
			t.Errorf("%T: round trip = %#v, %v; want %#v", tc.in, got.Args, err, tc.want)
		}
	}
	if _, err := AppendBody(nil, struct{ N int }{}); err == nil || !strings.Contains(err.Error(), "struct { N int }") {
		t.Errorf("a body without a codec: AppendBody = %v, want an error naming its type", err)
	}
	if _, err := Encode(Envelope{M: M("h", uint64(1))}); err == nil || !strings.Contains(err.Error(), "uint64") {
		t.Errorf("a frame with a body without a codec: Encode = %v, want an error naming its type", err)
	}
}

// The allocation budget of the hot path: encoding allocates only the
// returned frame, its working array coming from a pool.
func BenchmarkEncode(b *testing.B) {
	env := Envelope{From: "n1", To: "n2", M: M("px.p2a", codedBody{N: 42, S: "value"}), LC: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeBatch16(b *testing.B) {
	envs := make([]Envelope, 16)
	for i := range envs {
		envs[i] = Envelope{From: "n1", To: "n2", M: M("px.p2a", codedBody{N: i, S: "value"}), LC: int64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBatch(envs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	frame, err := Encode(Envelope{From: "n1", To: "n2", M: M("px.p2a", codedBody{N: 42, S: "value"})})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}
