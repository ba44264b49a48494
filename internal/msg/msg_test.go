package msg

import (
	"testing"
	"testing/quick"
	"time"
)

func TestM(t *testing.T) {
	m := M("hello", 42)
	if m.Hdr != "hello" {
		t.Errorf("Hdr = %q, want %q", m.Hdr, "hello")
	}
	if m.Body != 42 {
		t.Errorf("Body = %v, want 42", m.Body)
	}
}

func TestDirectiveConstructors(t *testing.T) {
	t.Run("send is immediate", func(t *testing.T) {
		d := Send("a", M("x", nil))
		if d.Delay != 0 {
			t.Errorf("Delay = %v, want 0", d.Delay)
		}
		if d.Dest != "a" {
			t.Errorf("Dest = %q, want a", d.Dest)
		}
	})
	t.Run("send after carries delay", func(t *testing.T) {
		d := SendAfter(time.Second, "b", M("x", nil))
		if d.Delay != time.Second {
			t.Errorf("Delay = %v, want 1s", d.Delay)
		}
	})
}

func TestBroadcast(t *testing.T) {
	dests := []Loc{"a", "b", "c"}
	ds := Broadcast(dests, M("ping", 1))
	if len(ds) != len(dests) {
		t.Fatalf("len = %d, want %d", len(ds), len(dests))
	}
	for i, d := range ds {
		if d.Dest != dests[i] {
			t.Errorf("ds[%d].Dest = %q, want %q", i, d.Dest, dests[i])
		}
		if d.M.Hdr != "ping" {
			t.Errorf("ds[%d].M.Hdr = %q, want ping", i, d.M.Hdr)
		}
	}
}

func TestBroadcastEmpty(t *testing.T) {
	if ds := Broadcast(nil, M("x", nil)); len(ds) != 0 {
		t.Errorf("Broadcast(nil) = %v, want empty", ds)
	}
}

type testBody struct {
	N int
	S string
}

func TestCodecRoundTrip(t *testing.T) {
	in := Envelope{From: "client", To: "server", M: M("req", testBody{N: 7, S: "hi"})}
	b, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.From != in.From || out.To != in.To || out.M.Hdr != in.M.Hdr {
		t.Errorf("round trip mismatch: %+v != %+v", out, in)
	}
	body, ok := out.M.Body.(testBody)
	if !ok {
		t.Fatalf("body type = %T, want testBody", out.M.Body)
	}
	if body != (testBody{N: 7, S: "hi"}) {
		t.Errorf("body = %+v", body)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(hdr string, n int, s string, from, to string) bool {
		in := Envelope{From: Loc(from), To: Loc(to), M: M(hdr, testBody{N: n, S: s})}
		b, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(b)
		if err != nil {
			return false
		}
		got, ok := out.M.Body.(testBody)
		return ok && got.N == n && got.S == s && out.M.Hdr == hdr &&
			out.From == Loc(from) && out.To == Loc(to)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a frame")); err == nil {
		t.Error("Decode(garbage) succeeded, want error")
	}
}

func TestStringers(t *testing.T) {
	if got := M("h", 1).String(); got != "h(1)" {
		t.Errorf("Msg.String = %q", got)
	}
	if got := Send("a", M("h", 1)).String(); got != "-> a: h(1)" {
		t.Errorf("Directive.String = %q", got)
	}
	if got := SendAfter(time.Second, "a", M("h", 1)).String(); got != "after 1s -> a: h(1)" {
		t.Errorf("delayed Directive.String = %q", got)
	}
}
