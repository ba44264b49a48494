//go:build !race

package msg

import "testing"

// The codecs are function values, so a Writer or Reader handed to one
// escapes; the entry points lend pooled ones instead. Encoding into a
// buffer that is large enough then allocates nothing, and decoding
// allocates only what the decoded value holds. (The race detector
// empties pools at random, so this runs without it.)
func TestCodecAllocs(t *testing.T) {
	var body any = codedBody{N: 1, S: "s", Args: []any{int64(2)}}
	envs := []Envelope{{From: "a", To: "b", M: M("h", body), LC: 3}}
	buf := make([]byte, 0, 256)
	for name, fn := range map[string]func(){
		"AppendBody":  func() { _, _ = AppendBody(buf[:0], body) },
		"AppendFrame": func() { _, _ = AppendFrame(buf[:0], envs) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocated %.0f times, want 0", name, n)
		}
	}
	// A frame of one envelope with empty strings and no body costs its
	// envelope slice; a record of a body without strings or slices costs
	// the boxed body.
	frame, _ := AppendFrame(nil, []Envelope{{}})
	rec, _ := AppendBody(nil, testBody{N: 7})
	for name, fn := range map[string]func(){
		"DecodeFrame": func() { _, _ = DecodeFrame(frame) },
		"DecodeBody":  func() { _, _ = DecodeBody[testBody](rec) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 1 {
			t.Errorf("%s allocated %.0f times, want 1", name, n)
		}
	}
}
