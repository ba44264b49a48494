package broadcast

import (
	"bytes"
	"testing"

	"shadowdb/internal/msg"
)

// One state has one snapshot: a sequencer holding the same parked
// decisions, filled in two orders, writes identical bytes.
func TestSnapshotsAreDeterministic(t *testing.T) {
	build := func(order []int) []byte {
		s, err := openSequencer(Config{Nodes: []msg.Loc{"b1"}, Subscribers: []msg.Loc{"r1"}}, "b1")
		if err != nil {
			t.Fatal(err)
		}
		s.next, s.propSlot = 3, 40
		for _, slot := range order {
			s.decided[slot] = []Bcast{{From: "c1", Seq: int64(slot), Payload: []byte("x")}}
		}
		return s.snapshot()
	}
	var up, down []int
	for slot := 5; slot < 21; slot++ {
		up, down = append(up, slot), append([]int{slot}, down...)
	}
	want := build(up)
	for n := 0; n < 5; n++ {
		if got := build(down); !bytes.Equal(got, want) {
			t.Fatalf("one state, two snapshots:\n%x\n%x", want, got)
		}
	}
}
