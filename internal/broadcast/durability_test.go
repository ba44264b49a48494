package broadcast

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
	"shadowdb/internal/store"
)

func durableSeqCfg(prov store.Provider) Config {
	return Config{
		Nodes:       []msg.Loc{"b1"},
		Subscribers: []msg.Loc{"r1"},
		Stable: func(l msg.Loc) store.Stable {
			st, err := prov.Open("seq-" + string(l))
			if err != nil {
				panic(err)
			}
			return st
		},
	}
}

func decideMsg(inst int, msgs ...Bcast) msg.Msg {
	return msg.M(synod.HdrDecide, synod.Decide{Inst: inst, Val: EncodeBatch(msgs)})
}

func deliversIn(outs []msg.Directive) []Deliver {
	var ds []Deliver
	for _, o := range outs {
		if o.M.Hdr == HdrDeliver {
			ds = append(ds, o.M.Body.(Deliver))
		}
	}
	return ds
}

// A rebuilt sequencer resumes delivery contiguously after the journaled
// prefix: old slots are neither re-delivered nor re-decided, and new
// proposals go to fresh slots.
func TestSequencerJournalResumesContiguously(t *testing.T) {
	prov := store.NewMem()
	cfg := durableSeqCfg(prov)
	cl := sequencerClass(cfg)

	p := loe.NewProcess(cl, "b1")
	var outs []msg.Directive
	p, outs = p.Step(decideMsg(0, Bcast{From: "c1", Seq: 1, Payload: []byte("x")}))
	if ds := deliversIn(outs); len(ds) != 1 || ds[0].Slot != 0 {
		t.Fatalf("slot 0 delivery: %v", ds)
	}
	p, outs = p.Step(decideMsg(1, Bcast{From: "c1", Seq: 2, Payload: []byte("y")}))
	if ds := deliversIn(outs); len(ds) != 1 || ds[0].Slot != 1 {
		t.Fatalf("slot 1 delivery: %v", ds)
	}
	_ = p

	// Crash: rebuild from the journal.
	fresh := loe.NewProcess(cl, "b1")

	// A duplicate announcement of a journaled slot is ignored, not
	// re-delivered.
	fresh, outs = fresh.Step(decideMsg(1, Bcast{From: "c1", Seq: 2, Payload: []byte("y")}))
	if ds := deliversIn(outs); len(ds) != 0 {
		t.Fatalf("journaled slot re-delivered after restart: %v", ds)
	}
	// The next decision continues exactly where the journal ends.
	fresh, outs = fresh.Step(decideMsg(2, Bcast{From: "c1", Seq: 3, Payload: []byte("z")}))
	ds := deliversIn(outs)
	if len(ds) != 1 || ds[0].Slot != 2 {
		t.Fatalf("post-restart delivery: %v, want exactly slot 2", ds)
	}
	// A new client message is proposed for a fresh slot, never a
	// journaled one.
	_, outs = fresh.Step(msg.M(HdrBcast, Bcast{From: "c2", Seq: 1, Payload: []byte("w")}))
	for _, o := range outs {
		if prop, ok := o.M.Body.(synod.Propose); ok && prop.Inst <= 2 {
			t.Fatalf("restarted sequencer re-proposed slot %d", prop.Inst)
		}
	}
}

// Journal compaction (snapshot + rotation) preserves out-of-order
// decided slots across a restart.
func TestSequencerJournalCompaction(t *testing.T) {
	prov := store.NewMem()
	cfg := durableSeqCfg(prov)
	cl := sequencerClass(cfg)

	p := loe.NewProcess(cl, "b1")
	// Decide slot 1 before slot 0 so an out-of-order slot is in the
	// decided map when the compaction threshold is crossed, then fill
	// in the rest contiguously.
	p, _ = p.Step(decideMsg(1, Bcast{From: "c1", Seq: 2, Payload: []byte("b")}))
	for i := 0; i < store.DefaultFloor+4; i++ {
		if i == 1 {
			continue
		}
		p, _ = p.Step(decideMsg(i, Bcast{From: "c1", Seq: int64(i + 1), Payload: []byte("v")}))
	}
	_ = p

	fresh := loe.NewProcess(cl, "b1")
	_, outs := fresh.Step(decideMsg(store.DefaultFloor+4, Bcast{From: "c1", Seq: 99, Payload: []byte("tail")}))
	ds := deliversIn(outs)
	if len(ds) != 1 || ds[0].Slot != store.DefaultFloor+4 {
		t.Fatalf("delivery after compacted restart: %v, want slot %d", ds, store.DefaultFloor+4)
	}
}

func TestDecodeBatchMalformed(t *testing.T) {
	for _, bad := range []string{"", "garbage", "\x00\x01\x02", string(make([]byte, 64))} {
		if _, err := DecodeBatch(bad); err == nil {
			t.Errorf("DecodeBatch(%q) accepted malformed input", bad)
		}
	}
	// Round trip still works.
	in := []Bcast{{From: "c", Seq: 9, Payload: []byte("p")}}
	out, err := DecodeBatch(EncodeBatch(in))
	if err != nil || len(out) != 1 || out[0].From != in[0].From || out[0].Seq != in[0].Seq || string(out[0].Payload) != string(in[0].Payload) {
		t.Fatalf("round trip: %v %v", out, err)
	}
}

// A journaled decision whose value does not decode fails recovery with
// an error naming the journal and the record, as store/doc.go's single
// policy requires; it does not recover as an empty slot the frontier
// walks past. A value encoded as a gob stream — a data dir this build's
// codec did not write — is such a value.
func TestSequencerRefusesUndecodableValue(t *testing.T) {
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode([]Bcast{{From: "c1", Seq: 1, Payload: []byte("tx|")}}); err != nil {
		t.Fatal(err)
	}
	good := EncodeBatch([]Bcast{{From: "c1", Seq: 1, Payload: []byte("x")}})
	// A snapshot with the frontier at 2, the proposals at 4, and slots 3
	// and 4 parked, slot 4's value a gob stream.
	snap, err := msg.Append(nil, func(w *msg.Writer) {
		w.Int(2)
		w.Int(4)
		w.Body(synod.Decide{Inst: 3, Val: good})
		w.Body(synod.Decide{Inst: 4, Val: old.String()})
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		snap []byte
		recs []synod.Decide
		want []string
	}{
		"garbage record": {recs: []synod.Decide{{Inst: 0, Val: good}, {Inst: 1, Val: "garbage"}},
			want: []string{"journal seq-b1", "record 1", "slot 1"}},
		"gob record": {recs: []synod.Decide{{Inst: 0, Val: old.String()}},
			want: []string{"journal seq-b1", "record 0", "slot 0"}},
		"snapshot slot": {snap: snap, want: []string{"journal seq-b1", "snapshot", "slot 4"}},
	} {
		prov := store.NewMem()
		st, err := prov.Open("seq-b1")
		if err != nil {
			t.Fatal(err)
		}
		if tc.snap != nil {
			if err := st.SaveSnapshot(tc.snap); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range tc.recs {
			if err := st.Append(decideRecord(t, r.Inst, r.Val)); err != nil {
				t.Fatal(err)
			}
		}
		s, err := openSequencer(durableSeqCfg(prov), "b1")
		if err == nil {
			t.Errorf("%s: recovered with frontier %d, want an error", name, s.next)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", name, err, w)
			}
		}
	}
}
