package core

import (
	"bytes"
	"fmt"
	"regexp"
	"testing"

	"shadowdb/internal/msg"
	"shadowdb/internal/store"
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

// A replica data dir written before the ordered payloads were codec
// bodies holds an "SNP3" snapshot: the layout this build writes, but
// over a journal whose Deliver records carry "tx|"-marked payloads that
// would now be skipped as nothing. Every durable replica saves a
// baseline snapshot, so refusing that magic, naming the journal,
// refuses the whole dir.
func TestRecoverRefusesSNP3(t *testing.T) {
	for _, p := range durableProtos {
		t.Run(p.name, func(t *testing.T) {
			st := mustOpen(t, store.NewMem(), "r")
			r, err := p.open(t, st, bankDB(t, "snp3-"+p.name, 3))
			if err != nil {
				t.Fatal(err)
			}
			r.apply(1)
			if err := r.exec.Compact(); err != nil {
				t.Fatal(err)
			}
			snap, ok, err := st.Snapshot()
			if err != nil || !ok || string(snap[:4]) != "SNP4" {
				t.Fatalf("snapshot %q… ok=%v err=%v, want an SNP4 snapshot", snap[:min(len(snap), 4)], ok, err)
			}
			if err := st.SaveSnapshot(append([]byte("SNP3"), snap[4:]...)); err != nil {
				t.Fatal(err)
			}
			_, err = p.open(t, st, emptyDB(t, "snp3-reopen-"+p.name))
			if err == nil || !regexp.MustCompile(`^store: journal \S+: snapshot: .*not a snapshot in the current format`).MatchString(err.Error()) {
				t.Fatalf("reopening over an SNP3 snapshot: %v, want it refused by name", err)
			}
		})
	}
}
