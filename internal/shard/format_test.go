package shard

import (
	"bytes"
	"fmt"
	"testing"

	"shadowdb/internal/core"
	"shadowdb/internal/store"
)

// One state has one snapshot: a ledger and a router holding the same
// transactions, filled in two orders, each write identical bytes.
func TestSnapshotsAreDeterministic(t *testing.T) {
	var up, down []int
	for i := 1; i <= 16; i++ {
		up, down = append(up, i), append([]int{i}, down...)
	}
	ledger := func(order []int) []byte {
		l := NewLedger(0, Bank())
		for _, i := range order {
			req := transfer(int64(i))
			subs, err := Bank().Split(req, modPart{2})
			if err != nil {
				t.Fatal(err)
			}
			p := Prepare{TxID: req.Key(), Coord: RouterLoc, Shard: 0, Participants: []int{0, 1}, Req: req, Sub: subs[0]}
			l.prepared[p.TxID] = pendingPrep{P: p, OK: i%2 == 0}
			id := fmt.Sprintf("done/%d", i)
			l.decided[id] = Decision{TxID: id, Coord: RouterLoc, Commit: i%3 == 0}
		}
		return l.Snapshot()
	}
	router := func(order []int) []byte {
		st, _ := store.NewMem().Open("router")
		r, err := durableRouter(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			req := transfer(int64(i))
			subs, err := Bank().Split(req, modPart{2})
			if err != nil {
				t.Fatal(err)
			}
			for _, jr := range []journalRec{
				{Kind: "begin", TxID: req.Key(), Req: req, Subs: subs},
				{Kind: "decide", TxID: req.Key(), Commit: true},
			} {
				if err := r.apply(jr); err != nil {
					t.Fatal(err)
				}
			}
			if i%2 == 0 {
				if err := r.apply(journalRec{Kind: "done", TxID: req.Key()}); err != nil {
					t.Fatal(err)
				}
			}
			r.doneRes[fmt.Sprintf("c9/%d", i)] = core.TxResult{Client: "c9", Seq: int64(i)}
		}
		return r.snapshot()
	}
	for name, snap := range map[string]func([]int) []byte{"ledger": ledger, "router": router} {
		want := snap(up)
		for n := 0; n < 5; n++ {
			if got := snap(down); !bytes.Equal(got, want) {
				t.Fatalf("%s: one state, two snapshots:\n%x\n%x", name, want, got)
			}
		}
	}
}
