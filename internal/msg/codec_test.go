package msg

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// codedBody has a frame codec of its own (testTag), so these tests reach
// the registered path without importing a protocol package.
type codedBody struct {
	N    int
	S    string
	Args []any
}

const testTag = 0xf0

func appendCoded(w *Writer, b codedBody) {
	w.Int(b.N)
	w.Text(b.S)
	w.Values(b.Args)
}

func readCoded(r *Reader) codedBody { return codedBody{N: r.Int(), S: r.Text(), Args: r.Values()} }

func init() {
	RegisterBasics()
	RegisterCodec(testTag, codedBody{}, appendCoded, readCoded)
}

func TestBatchFrameRoundTrip(t *testing.T) {
	RegisterBody(testBody{})
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
	RegisterBody(testBody{})
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
	for name, frame := range map[string][]byte{
		"empty":           nil,
		"unknown version": {0x7f, 1, 2},
		"old gob frame":   old.Bytes(),
		"unknown tag":     unknownTag,
		"trailing byte":   append(bytes.Clone(good), 0),
		"unknown kind":    {frameVersion, 1, 0, 0, 0, 0, 0, 0, testTag, 0, 0, 1, kindTrue + 1},
	} {
		if envs, err := DecodeFrame(frame); err == nil {
			t.Errorf("%s: DecodeFrame = %+v, want an error", name, envs)
		}
	}
}

func TestRegisterCodec(t *testing.T) {
	// The same type under the same tag again is a no-op.
	RegisterCodec(testTag, codedBody{}, appendCoded, readCoded)
	type other struct{ N int }
	for name, register := range map[string]func(){
		"reserved tag": func() { RegisterCodec(tagGob, other{}, nil, nil) },
		"reused tag":   func() { RegisterCodec(testTag, other{}, nil, nil) },
		"reused type":  func() { RegisterCodec(testTag+1, codedBody{}, appendCoded, readCoded) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RegisterCodec did not panic", name)
				}
			}()
			register()
		}()
	}
	var found bool
	for _, wt := range WireTags() {
		found = found || wt.Tag == testTag && wt.Type == reflect.TypeOf(codedBody{})
	}
	if !found {
		t.Errorf("WireTags() = %v, want a %#x row for codedBody", WireTags(), testTag)
	}
}

// A body whose []any holds a kind the codec lacks travels under the gob
// fallback instead, and arrives all the same.
func TestCodecFallsBackToGob(t *testing.T) {
	prev, n := gobBodyHook, 0
	gobBodyHook = func() { n++ }
	defer func() { gobBodyHook = prev }()
	gob.Register(float32(0))
	for _, tc := range []struct {
		body any
		gob  int
	}{
		{codedBody{N: 1, Args: []any{int64(2), "x"}}, 0},
		{codedBody{N: 1, Args: []any{int64(2), float32(1.5)}}, 1},
		{testBody{N: 3}, 1},
	} {
		before := n
		in := Envelope{From: "a", To: "b", M: M("h", tc.body)}
		frame, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("%#v: round trip = %#v", tc.body, out.M.Body)
		}
		if n-before != tc.gob {
			t.Errorf("%#v: %d gob bodies, want %d", tc.body, n-before, tc.gob)
		}
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
