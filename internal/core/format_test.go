package core

import (
	"bytes"
	"fmt"
	"testing"

	"shadowdb/internal/msg"
)

// One state has one snapshot: an executor that applied the same
// deposits of sixteen clients in two orders, and so filled its dedup map
// in two orders, writes identical bytes, and so does a header whose
// joined map was filled in two orders. The header's maps are written in
// key order; a gob header wrote them in map iteration order.
func TestSnapshotsAreDeterministic(t *testing.T) {
	build := func(name string, order []int) []byte {
		e := NewExecutor(bankDB(t, name, 20), BankRegistry())
		for _, i := range order {
			req := TxRequest{Client: msg.Loc(fmt.Sprintf("c%02d", i)), Seq: 1, Type: "deposit", Args: []any{int64(i), int64(1)}}
			if _, err := e.Apply(e.Executed+1, req); err != nil {
				t.Fatal(err)
			}
		}
		h := e.header()
		h.Joined = make(map[msg.Loc]int)
		for _, i := range order {
			h.Joined[msg.Loc(fmt.Sprintf("r%02d", i))] = i
		}
		return appendSnapshot(nil, h, e.DB)
	}
	var up, down []int
	for i := 0; i < 16; i++ {
		up, down = append(up, i), append(down, 15-i)
	}
	want := build("up", up)
	for n := 0; n < 5; n++ {
		if got := build(fmt.Sprintf("down%d", n), down); !bytes.Equal(got, want) {
			t.Fatalf("one state, two snapshots:\n%x\n%x", want, got)
		}
	}
}
