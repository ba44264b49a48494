package msg_test

import (
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/core"
	"shadowdb/internal/msg"
)

// hotFrames are the frames the steady state sends most: a lease read's
// answer, a phase-2 request carrying a batch value, and a full sequencer
// batch of sixteen client Bcasts.
func hotFrames(b *testing.B) map[string][]msg.Envelope {
	payload, err := core.EncodeTx(core.TxRequest{Client: "c1", Seq: 1, Type: "deposit", Args: []any{int64(1), int64(1)}})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]msg.Envelope, 16)
	for i := range batch {
		batch[i] = msg.Envelope{From: "cli", To: "b1", LC: int64(i), M: msg.M(broadcast.HdrBcast,
			broadcast.Bcast{From: "c1", Seq: int64(i + 1), Payload: payload})}
	}
	return map[string][]msg.Envelope{
		"readresult": {{From: "r1", To: "cli", LC: 9, M: msg.M(core.HdrReadResult, &core.ReadResult{
			Client: "c3", Seq: 77, Mode: core.ReadLease, Slot: 1200, Issue: 1 << 60, Cols: []string{"balance"}, Vals: []any{int64(1010)}})}},
		"p2a": {{From: "b1", To: "b2", LC: 9, M: msg.M(synod.HdrP2a, synod.P2a{
			B: synod.Ballot{N: 1, L: "b1"}, Inst: 1200, Val: string(payload) + string(payload), From: "b1"})}},
		"bcast16": batch,
	}
}

func BenchmarkHotFrames(b *testing.B) {
	for name, envs := range hotFrames(b) {
		frame, err := msg.EncodeBatch(envs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := msg.EncodeBatch(envs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := msg.DecodeFrame(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
