package member

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"shadowdb/internal/msg"
)

func initial() Config {
	return Config{
		Bcast:    []msg.Loc{"b1", "b2", "b3"},
		Replicas: []msg.Loc{"r1", "r2", "r3"},
	}
}

func TestCommandRoundTrip(t *testing.T) {
	for _, c := range []Command{
		{Op: AddReplica, Node: "r4", Addr: "127.0.0.1:9104"},
		{Op: RemoveAcceptor, Node: "b2"},
		{Op: AddAcceptor, Node: "b4", Addr: "h:1"},
		{Op: RemoveReplica, Node: "r2"},
		{Op: AddReplica, Node: "r|4", Addr: "h:1"}, // the text format split it at the '|'
	} {
		got, ok := DecodeCommand(EncodeCommand(c))
		if !ok || got != c {
			t.Fatalf("round trip %+v -> %+v ok=%v", c, got, ok)
		}
	}
	// The codec refuses what no node can apply; the text format of older
	// builds is refused whole.
	for _, raw := range [][]byte{
		nil, {cmdTag}, EncodeCommand(Command{Op: "bogus", Node: "n"}), EncodeCommand(Command{Op: AddReplica}),
		[]byte("tx|whatever"), []byte("mbr|add-replica|r4|h:1"), []byte("mbr|remove-replica|r2|"),
	} {
		if _, ok := DecodeCommand(raw); ok {
			t.Fatalf("decoded invalid payload %q", raw)
		}
	}
}

func TestViewEpochDerivation(t *testing.T) {
	v := NewView(initial(), 8)
	cfg, ok := v.Apply(Command{Op: AddAcceptor, Node: "b4"}, 100)
	if !ok || cfg.Epoch != 1 {
		t.Fatalf("add-acceptor: %+v ok=%v", cfg, ok)
	}
	if cfg.ActivateAt != 108 || cfg.ReplicasFrom != 101 {
		t.Fatalf("activation slots: %+v", cfg)
	}
	if !cfg.HasAcceptor("b4") || cfg.HasReplica("b4") {
		t.Fatalf("membership after add: %+v", cfg)
	}
	// Duplicate delivery of the same slot by a co-located component.
	if _, ok := v.Apply(Command{Op: AddAcceptor, Node: "b4"}, 100); ok {
		t.Fatal("duplicate slot derived a second epoch")
	}
	// Replica join: effective next slot, not alpha-delayed.
	cfg, ok = v.Apply(Command{Op: AddReplica, Node: "r4"}, 120)
	if !ok || cfg.Epoch != 2 || cfg.ReplicasFrom != 121 || cfg.ActivateAt != 128 {
		t.Fatalf("add-replica: %+v ok=%v", cfg, ok)
	}
	// Schedule lookups: acceptors switch at ActivateAt, replicas at
	// ReplicasFrom.
	if got := v.EpochOf(107).Epoch; got != 0 {
		t.Fatalf("inst 107 epoch %d", got)
	}
	if got := v.EpochOf(108).Epoch; got != 1 {
		t.Fatalf("inst 108 epoch %d", got)
	}
	if got := v.At(120).Epoch; got != 1 {
		t.Fatalf("slot 120 epoch %d", got)
	}
	if got := v.At(121).Epoch; got != 2 {
		t.Fatalf("slot 121 epoch %d", got)
	}
	if len(v.AcceptorsFor(-1)) != 4 || len(v.AcceptorsFor(0)) != 3 {
		t.Fatal("AcceptorsFor mixing epochs")
	}
	if v.BaselineOf("b4") != 108 || v.BaselineOf("r4") != 121 || v.BaselineOf("b1") != 0 {
		t.Fatalf("baselines: b4=%d r4=%d b1=%d", v.BaselineOf("b4"), v.BaselineOf("r4"), v.BaselineOf("b1"))
	}
}

func TestViewNoOpCommands(t *testing.T) {
	v := NewView(initial(), 4)
	cases := []Command{
		{Op: AddAcceptor, Node: "b2"},    // already present
		{Op: AddReplica, Node: "r1"},     // already present
		{Op: RemoveAcceptor, Node: "b9"}, // absent
		{Op: RemoveReplica, Node: "r9"},  // absent
		{Op: RemoveAcceptor, Node: "b1"}, // the sequencer
	}
	for i, c := range cases {
		if cfg, ok := v.Apply(c, 10+i); ok {
			t.Fatalf("no-op %+v derived epoch %+v", c, cfg)
		}
	}
	if got := v.Current().Epoch; got != 0 {
		t.Fatalf("epoch after no-ops: %d", got)
	}
}

func TestViewActivationMonotonic(t *testing.T) {
	v := NewView(initial(), 8)
	a, _ := v.Apply(Command{Op: AddAcceptor, Node: "b4"}, 10)
	b, _ := v.Apply(Command{Op: AddAcceptor, Node: "b5"}, 11)
	if b.ActivateAt <= a.ActivateAt || b.ReplicasFrom <= a.ReplicasFrom {
		t.Fatalf("epochs not strictly ordered: %+v then %+v", a, b)
	}
	// Same schedule on an independent view: derivation is pure.
	w := NewView(initial(), 8)
	wa, _ := w.Apply(Command{Op: AddAcceptor, Node: "b4"}, 10)
	wb, _ := w.Apply(Command{Op: AddAcceptor, Node: "b5"}, 11)
	if wa.Fingerprint() != a.Fingerprint() || wb.Fingerprint() != b.Fingerprint() {
		t.Fatal("derivation differs across views")
	}
}

func TestViewRemoveAndProposer(t *testing.T) {
	v := NewView(initial(), 4)
	prev := v.Current()
	cfg, ok := v.Apply(Command{Op: AddReplica, Node: "r4"}, 50)
	if !ok {
		t.Fatal("add failed")
	}
	if got := Proposer(prev, "r4"); got != "r1" {
		t.Fatalf("proposer %q", got)
	}
	cfg, ok = v.Apply(Command{Op: RemoveReplica, Node: "r2"}, 60)
	if !ok || cfg.HasReplica("r2") {
		t.Fatalf("remove-replica: %+v", cfg)
	}
	if want := []msg.Loc{"r1", "r3", "r4"}; !reflect.DeepEqual(cfg.Replicas, want) {
		t.Fatalf("replica order after remove: %v", cfg.Replicas)
	}
	cfg, ok = v.Apply(Command{Op: RemoveAcceptor, Node: "b3"}, 70)
	if !ok || cfg.HasAcceptor("b3") || cfg.Bcast[0] != "b1" {
		t.Fatalf("remove-acceptor: %+v", cfg)
	}
}

func TestOnApplyHook(t *testing.T) {
	v := NewView(initial(), 4)
	var got []Command
	v.OnApply(func(c Command, _ Config) { got = append(got, c) })
	v.Apply(Command{Op: AddReplica, Node: "r4", Addr: "a:1"}, 5)
	v.Apply(Command{Op: AddReplica, Node: "r4", Addr: "a:1"}, 6) // no-op: present
	if len(got) != 1 || got[0].Addr != "a:1" {
		t.Fatalf("hook calls: %+v", got)
	}
}

func TestTopologyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	top := Topology{Epoch: 3, Nodes: map[string]string{"b1": "h:1", "r1": "h:2"}}
	if err := top.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, top) {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Directory()[msg.Loc("b1")] != "h:1" {
		t.Fatal("directory")
	}
	if ids := got.IDs(); !reflect.DeepEqual(ids, []string{"b1", "r1"}) {
		t.Fatalf("ids: %v", ids)
	}
}

func TestRestamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := (Topology{Epoch: 1, Nodes: map[string]string{"r1": "h:1"}}).Save(path); err != nil {
		t.Fatal(err)
	}
	next := func(e int) int { return e + 1 }
	at := func(e int) func(int) int { return func(int) int { return e } }
	for _, tc := range []struct {
		node, addr string
		epoch      func(int) int
		want       int
		rewritten  bool
		r4         string
	}{
		{"r4", "h:4", next, 2, true, "h:4"},   // the join verb
		{"r4", "h:4", at(2), 2, false, "h:4"}, // a node applying the same command
		{"r1", "", at(3), 3, true, "h:4"},     // a removal keeps every address
		{"r4", "h:9", at(1), 3, false, "h:4"}, // a stale epoch changes nothing
	} {
		got, rewritten, err := Restamp(path, tc.node, tc.addr, tc.epoch)
		if err != nil || got != tc.want || rewritten != tc.rewritten {
			t.Fatalf("Restamp(%s, %q) = %d, %v, %v; want %d, %v", tc.node, tc.addr, got, rewritten, err, tc.want, tc.rewritten)
		}
		top, err := LoadTopology(path)
		if err != nil || top.Epoch != tc.want || top.Nodes["r4"] != tc.r4 || top.Nodes["r1"] != "h:1" {
			t.Fatalf("after Restamp(%s, %q): %+v, %v", tc.node, tc.addr, top, err)
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"unknown-field": `{"epoch":1,"nodes":{"b1":"h:1"},"extra":true}`,
		"trailing":      `{"epoch":1,"nodes":{"b1":"h:1"}}{"again":1}`,
		"no-nodes":      `{"epoch":1,"nodes":{}}`,
		"neg-epoch":     `{"epoch":-1,"nodes":{"b1":"h:1"}}`,
		"empty-addr":    `{"epoch":1,"nodes":{"b1":""}}`,
	} {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTopology(p); err == nil {
			t.Fatalf("%s: accepted invalid topology", name)
		}
	}
}
