package broadcast

import (
	"testing"
	"testing/quick"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
)

func TestEncodeDecodeBatchRoundTrip(t *testing.T) {
	f := func(from string, seq int64, payload []byte) bool {
		in := []Bcast{{From: msg.Loc(from), Seq: seq, Payload: payload}}
		out, err := DecodeBatch(EncodeBatch(in))
		if err != nil || len(out) != 1 {
			return false
		}
		return out[0].From == msg.Loc(from) && out[0].Seq == seq &&
			string(out[0].Payload) == string(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeBatchGarbage(t *testing.T) {
	if _, err := DecodeBatch("not a batch"); err == nil {
		t.Error("DecodeBatch accepted garbage")
	}
}

func TestSingleBroadcastDelivered(t *testing.T) {
	cfg := testConfig()
	r := gpm.NewRunner(Spec(cfg).System())
	r.Inject("b1", msg.M(HdrBcast, Bcast{From: "c1", Seq: 1, Payload: []byte("hello")}))
	if _, err := r.Run(100_000); err != nil {
		t.Fatal(err)
	}
	ds := DeliveriesTo(r.Trace(), "sub1")
	if len(ds) == 0 {
		t.Fatal("no deliveries")
	}
	if ds[0].Slot != 0 || len(ds[0].Msgs) != 1 || string(ds[0].Msgs[0].Payload) != "hello" {
		t.Errorf("first delivery = %+v", ds[0])
	}
	if err := CheckTotalOrder(r.Trace()); err != nil {
		t.Error(err)
	}
}

func TestDuplicateClientMessageSuppressed(t *testing.T) {
	cfg := testConfig()
	r := gpm.NewRunner(Spec(cfg).System())
	b := Bcast{From: "c1", Seq: 7, Payload: []byte("once")}
	// The client retries against the same node; only one copy may be
	// sequenced.
	r.Inject("b1", msg.M(HdrBcast, b))
	r.Inject("b1", msg.M(HdrBcast, b))
	if _, err := r.Run(100_000); err != nil {
		t.Fatal(err)
	}
	count := 0
	seen := make(map[int]bool)
	for _, d := range DeliveriesTo(r.Trace(), "sub1") {
		if seen[d.Slot] {
			continue
		}
		seen[d.Slot] = true
		for _, m := range d.Msgs {
			if m.From == "c1" && m.Seq == 7 {
				count++
			}
		}
	}
	if count != 1 {
		t.Errorf("message sequenced %d times, want 1", count)
	}
}

func TestBatchingBundlesMessages(t *testing.T) {
	cfg := testConfig()
	r := gpm.NewRunner(Spec(cfg).System())
	const n = 40
	for i := 0; i < n; i++ {
		r.Inject("b1", msg.M(HdrBcast, Bcast{From: "c1", Seq: int64(i)}))
	}
	if _, err := r.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	slots := make(map[int]int)
	for _, d := range DeliveriesTo(r.Trace(), "sub1") {
		slots[d.Slot] = len(d.Msgs)
	}
	total := 0
	for _, k := range slots {
		total += k
	}
	if total != n {
		t.Fatalf("delivered %d messages, want %d", total, n)
	}
	if len(slots) >= n {
		t.Errorf("used %d slots for %d messages; batching had no effect", len(slots), n)
	}
}

func TestMaxBatchHonoured(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 3
	r := gpm.NewRunner(Spec(cfg).System())
	for i := 0; i < 20; i++ {
		r.Inject("b1", msg.M(HdrBcast, Bcast{From: "c1", Seq: int64(i)}))
	}
	if _, err := r.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, d := range DeliveriesTo(r.Trace(), "sub1") {
		if seen[d.Slot] {
			continue
		}
		seen[d.Slot] = true
		if len(d.Msgs) > 3 {
			t.Errorf("slot %d carried %d messages, max 3", d.Slot, len(d.Msgs))
		}
	}
}

func TestConcurrentProposersConverge(t *testing.T) {
	cfg := testConfig()
	trace, err := run(cfg, nil, nil, 3, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTotalOrder(trace); err != nil {
		t.Fatal(err)
	}
	if err := integrity(trace, 3, 15); err != nil {
		t.Fatal(err)
	}
}

func TestTwoThirdBackend(t *testing.T) {
	cfg := testConfig()
	trace, err := run(cfg, []Module{TwoThird()}, nil, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTotalOrder(trace); err != nil {
		t.Fatal(err)
	}
	if err := integrity(trace, 2, 6); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolSwitching(t *testing.T) {
	if err := checkSwitching(); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Interpreted.String() != "Interpreted" ||
		InterpretedOpt.String() != "Inter.-Opt." ||
		Compiled.String() != "Compiled" {
		t.Error("Mode.String mismatch")
	}
}

func TestGeneratorModes(t *testing.T) {
	cfg := Config{Nodes: []msg.Loc{"b1", "b2", "b3"}, Subscribers: []msg.Loc{"sub"}}
	for _, mode := range []Mode{Compiled, InterpretedOpt} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			gen, ev, err := Generator(cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			if mode == Compiled && ev != nil {
				t.Error("compiled mode returned an evaluator")
			}
			r := gpm.NewRunner(gpm.System{Gen: gen, Locs: cfg.Nodes})
			r.Inject("b1", msg.M(HdrBcast, Bcast{From: "c", Seq: 1, Payload: []byte("m")}))
			if _, err := r.Run(500_000); err != nil {
				t.Fatal(err)
			}
			ds := DeliveriesTo(r.Trace(), "sub")
			if len(ds) == 0 {
				t.Fatalf("%s mode delivered nothing", mode)
			}
			if mode != Compiled && ev.Steps == 0 {
				t.Error("interpreter did no work")
			}
		})
	}
}

func TestProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing is slow")
	}
	for _, p := range Properties() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Check(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCheckTotalOrderRejectsDisagreement(t *testing.T) {
	mk := func(sub msg.Loc, slot int, payload string) gpm.TraceEntry {
		return gpm.TraceEntry{
			Loc: "b1",
			Outs: []msg.Directive{msg.Send(sub, msg.M(HdrDeliver, Deliver{
				Slot: slot,
				Msgs: []Bcast{{From: "c", Seq: 1, Payload: []byte(payload)}},
			}))},
		}
	}
	trace := []gpm.TraceEntry{
		mk("sub1", 0, "x"),
		{Loc: "b1", Outs: []msg.Directive{msg.Send("sub2", msg.M(HdrDeliver, Deliver{
			Slot: 0,
			Msgs: []Bcast{{From: "d", Seq: 9, Payload: []byte("y")}},
		}))}},
	}
	if err := CheckTotalOrder(trace); err == nil {
		t.Error("disagreeing subscribers accepted")
	}

	gap := []gpm.TraceEntry{mk("sub1", 1, "x")}
	if err := CheckTotalOrder(gap); err == nil {
		t.Error("slot gap accepted")
	}
}

// BenchmarkBcastKey measures the dedup-map key construction on the
// sequencer hot path (one key per submitted message).
func BenchmarkBcastKey(b *testing.B) {
	bc := Bcast{From: "client42", Seq: 1234567}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bc.Key() == "" {
			b.Fatal("empty key")
		}
	}
}
