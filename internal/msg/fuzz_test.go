package msg_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"shadowdb/internal/msg"
)

// sampleFrames encodes one frame per sample body and one batch of them
// all.
func sampleFrames(tb testing.TB) [][]byte {
	var frames [][]byte
	var all []msg.Envelope
	for _, body := range samples() {
		env := msg.Envelope{From: "c1", To: "r1", M: msg.M("hdr", body), Trace: "t", LC: 3}
		f, err := msg.Encode(env)
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, f)
		all = append(all, env)
	}
	batch, err := msg.EncodeBatch(all)
	if err != nil {
		tb.Fatal(err)
	}
	return append(frames, batch)
}

// FuzzDecodeFrame throws arbitrary bytes — and mutations of valid
// frames of every registered tag — at the frame decoder. The only
// acceptable outcomes are a decoded envelope slice or an error; any
// panic is a bug (a malicious or corrupted peer must not be able to
// crash the process).
func FuzzDecodeFrame(f *testing.F) {
	frames := sampleFrames(f)
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0x80, 0xff})
	f.Add(frames[0][:len(frames[0])/2]) // truncated
	f.Add([]byte("Z arbitrary junk that is not a frame"))
	// Tag 1, the retired gob fallback: a length and a gob stream.
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 1, 4, 3, 0xff, 0x82, 0})
	for _, frame := range frames {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		envs, err := msg.DecodeFrame(data)
		if err != nil && envs != nil {
			t.Fatalf("DecodeFrame returned both envelopes and error: %v", err)
		}
		// A frame that decodes must re-encode and decode to the same
		// envelopes (compared by route and header: a fuzzed float may be
		// a NaN).
		if err == nil {
			re, eerr := msg.EncodeBatch(envs)
			if eerr != nil {
				t.Fatalf("decoded envelopes do not re-encode: %v", eerr)
			}
			back, derr := msg.DecodeFrame(re)
			if derr != nil || len(back) != len(envs) {
				t.Fatalf("round trip lost envelopes: %d -> %d (%v)", len(envs), len(back), derr)
			}
			for i := range back {
				if back[i].From != envs[i].From || back[i].To != envs[i].To || back[i].M.Hdr != envs[i].M.Hdr {
					t.Fatalf("envelope %d: %+v -> %+v", i, envs[i], back[i])
				}
			}
		}
	})
}

// Every proper prefix of a valid frame, and every valid frame with a
// byte appended, is an error: frames are counted and length-prefixed
// throughout, so there is no clean boundary short of the end. Flipping
// any byte never panics.
func TestDecodeFrameTruncatedPrefixes(t *testing.T) {
	for _, frame := range sampleFrames(t) {
		for i := 0; i < len(frame); i++ {
			if envs, err := msg.DecodeFrame(frame[:i]); err == nil {
				t.Fatalf("prefix %d/%d of %x decoded to %+v", i, len(frame), frame, envs)
			}
		}
		if _, err := msg.DecodeFrame(append(bytes.Clone(frame), 0)); err == nil {
			t.Fatalf("%x with a trailing byte decoded", frame)
		}
		for i := 0; i < len(frame); i++ {
			mut := bytes.Clone(frame)
			mut[i] ^= 0xff
			_, _ = msg.DecodeFrame(mut)
		}
	}
}

// Planted sizes — an envelope count of 2³⁰, a string or []any length
// larger than the frame — are refused before anything is allocated.
func TestDecodeFramePlantedLengths(t *testing.T) {
	huge := func(b []byte) []byte { return binary.AppendUvarint(b, 1<<30) }
	// head is a frame of one envelope with empty route, header and trace,
	// up to its body tag.
	head := []byte{1, 1, 0, 0, 0, 0, 0, 0}
	for name, frame := range map[string][]byte{
		"envelope count": append(huge([]byte{1}), make([]byte, 64)...),
		"From length":    append(huge([]byte{1, 1}), make([]byte, 64)...),
		"Hdr length":     append(huge([]byte{1, 1, 0, 0}), make([]byte, 64)...),
		// A TxRequest (tag 0x10): empty Client, Seq 0, empty Type, then Args.
		"[]any length": append(huge(append(head[:len(head):len(head)], 0x10, 0, 0, 0)), make([]byte, 64)...),
		// A Deliver (tag 0x21): Slot 0, then its Bcast count.
		"Bcast count": append(huge(append(head[:len(head):len(head)], 0x21, 0)), make([]byte, 64)...),
	} {
		if _, err := msg.DecodeFrame(frame); err == nil {
			t.Errorf("%s: planted length decoded", name)
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = msg.DecodeFrame(frame) }); allocs > 2 {
			t.Errorf("%s: refusing the frame allocated %.0f times, want at most 2", name, allocs)
		}
	}
}
