package broadcast

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"testing"

	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/msg"
	"shadowdb/internal/recoverytest"
	"shadowdb/internal/store"
)

// The sequencer as a client of store.Journal, for the recovery table
// every client runs. Unit n is the decision of slot n-1.
func seqUnit(n int) (inst int, val string) {
	return n - 1, EncodeBatch([]Bcast{{From: "c1", Seq: int64(n), Payload: []byte("x")}})
}

var sequencerClient = recoverytest.Client{
	Open: func(t testing.TB, st store.Stable, fresh bool) (recoverytest.Instance, error) {
		cfg := Config{
			Nodes:       []msg.Loc{"b1"},
			Subscribers: []msg.Loc{"r1"},
			Stable:      func(msg.Loc) store.Stable { return st },
		}
		s, err := openSequencer(cfg, "b1")
		if err != nil {
			return recoverytest.Instance{}, err
		}
		return recoverytest.Instance{
			Apply: func(n int) {
				inst, val := seqUnit(n)
				if ds := deliversIn(s.onDecide(cfg, "b1", inst, val)); len(ds) != 1 || ds[0].Slot != inst {
					t.Fatalf("decision of slot %d delivered %v", inst, ds)
				}
			},
			Frontier: func() int { return s.next },
			// propSlot is left out: a live node raises it only when it
			// proposes, a recovered one past every journaled slot.
			State: func() string {
				parked := make([]int, 0, len(s.decided))
				for slot := range s.decided {
					parked = append(parked, slot)
				}
				slices.Sort(parked)
				return fmt.Sprint("next ", s.next, " parked ", parked)
			},
			Compact: func() error { return s.j.Compact(s.snapshot()) },
		}, nil
	},
	Records: func(t testing.TB, n int) [][]byte {
		inst, val := seqUnit(n)
		return [][]byte{decideRecord(t, inst, val)}
	},
	OldRecords: func(t testing.TB, n int) [][]byte {
		inst, val := seqUnit(n)
		return [][]byte{gobBytes(t, oldSeqRecord{Inst: inst, Val: val})}
	},
	OldSnapshot: func(t testing.TB, n int) []byte {
		return gobBytes(t, oldSeqSnapshot{Next: n, PropSlot: n - 1, Decided: map[int]string{n + 1: EncodeBatch(nil)}})
	},
}

// gobBytes is v as one gob stream, the sequencer's old format.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oldSeqSnapshot is the gob snapshot the sequencer compacted into before
// its snapshot held decisions as wire bodies.
type oldSeqSnapshot struct {
	Next     int
	PropSlot int
	Decided  map[int]string
}

// decideRecord is the sequencer's journal record of a decision.
func decideRecord(t testing.TB, inst int, val string) []byte {
	rec, err := msg.AppendBody(nil, synod.Decide{Inst: inst, Val: val})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// oldSeqRecord is the gob record the sequencer journaled before its
// records were wire bodies, copied here under another name (gob matches
// fields by name; the type's name is only in the type descriptor).
type oldSeqRecord struct {
	Inst int
	Val  string
}

func TestSequencerRecovery(t *testing.T) { recoverytest.Run(t, sequencerClient) }

func FuzzSequencerRecover(f *testing.F) { recoverytest.Fuzz(f, sequencerClient) }
