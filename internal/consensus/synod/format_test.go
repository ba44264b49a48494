package synod

import (
	"bytes"
	"fmt"
	"testing"

	"shadowdb/internal/msg"
	"shadowdb/internal/store"
)

// One state has one snapshot: an acceptor holding the same pvalues,
// accepted in two orders, writes identical bytes — the P1a of its
// ballot and a P2a per pvalue in slot order — and an acceptor recovered
// from them holds that state.
func TestSnapshotsAreDeterministic(t *testing.T) {
	build := func(order []int) (*acceptorState, []byte) {
		s := &acceptorState{accepted: make(map[int]PValue)}
		for _, inst := range order {
			s.record(P2a{B: Ballot{N: inst % 3, L: "l1"}, Inst: inst, Val: "v"})
		}
		s.record(P1a{B: Ballot{N: 9, L: "l2"}})
		return s, s.snapshot()
	}
	var up, down []int
	for inst := 0; inst < 16; inst++ {
		up, down = append(up, inst), append([]int{inst}, down...)
	}
	orig, want := build(up)
	if _, got := build(down); !bytes.Equal(got, want) {
		t.Fatalf("one state, two snapshots:\n%x\n%x", want, got)
	}
	st, _ := store.NewMem().Open("acc-a1")
	if err := st.SaveSnapshot(want); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Stable = func(msg.Loc) store.Stable { return st }
	back, err := openAcceptor(cfg, "a1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(back.hasB, back.ballot, back.pvalues()), fmt.Sprint(orig.hasB, orig.ballot, orig.pvalues()); got != want {
		t.Errorf("recovered %s, want %s", got, want)
	}
}
