package synod

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"shadowdb/internal/msg"
	"shadowdb/internal/recoverytest"
	"shadowdb/internal/store"
)

// The acceptor as a client of store.Journal, for the recovery table
// every client runs. Unit n is one round at ballot n: the P1a promised,
// then the P2a accepted for instance n — two journal records.
func accUnit(n int) []any {
	b := Ballot{N: n, L: "l1"}
	return []any{P1a{B: b, From: "l1"}, P2a{B: b, Inst: n, Val: fmt.Sprintf("v%d", n), From: "l1"}}
}

// oldAccRecord is the gob record the acceptor journaled before its
// records were wire bodies, copied here under another name (gob matches
// fields by name; the type's name is only in the type descriptor).
type oldAccRecord struct {
	B  Ballot
	PV *PValue
}

// oldAccSnapshot is the gob snapshot the acceptor compacted into before
// its snapshot was a list of wire bodies.
type oldAccSnapshot struct {
	B    Ballot
	HasB bool
	PVs  []PValue
}

// gobBytes is v as one gob stream, the acceptor's old format.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var acceptorClient = recoverytest.Client{
	Open: func(t testing.TB, st store.Stable, fresh bool) (recoverytest.Instance, error) {
		cfg := testConfig()
		cfg.Stable = func(msg.Loc) store.Stable { return st }
		s, err := openAcceptor(cfg, "a1")
		if err != nil {
			return recoverytest.Instance{}, err
		}
		return recoverytest.Instance{
			Apply: func(n int) {
				for _, r := range accUnit(n) {
					s.record(r)
				}
			},
			Frontier: func() int { return len(s.accepted) },
			// What a P1b reveals: the promise and every accepted pvalue.
			State:   func() string { return fmt.Sprint(s.hasB, s.ballot, s.pvalues()) },
			Compact: func() error { return s.j.Compact(s.snapshot()) },
		}, nil
	},
	Records: func(t testing.TB, n int) [][]byte {
		var recs [][]byte
		for _, r := range accUnit(n) {
			rec, err := msg.AppendBody(nil, r)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		return recs
	},
	OldRecords: func(t testing.TB, n int) [][]byte {
		b := Ballot{N: n, L: "l1"}
		return [][]byte{
			gobBytes(t, oldAccRecord{B: b}),
			gobBytes(t, oldAccRecord{B: b, PV: &PValue{B: b, Inst: n, Val: fmt.Sprintf("v%d", n)}}),
		}
	},
	OldSnapshot: func(t testing.TB, n int) []byte {
		snap := oldAccSnapshot{B: Ballot{N: n, L: "l1"}, HasB: true}
		for i := 1; i <= n; i++ {
			snap.PVs = append(snap.PVs, PValue{B: Ballot{N: i, L: "l1"}, Inst: i, Val: fmt.Sprintf("v%d", i)})
		}
		return gobBytes(t, snap)
	},
}

func TestAcceptorRecovery(t *testing.T) { recoverytest.Run(t, acceptorClient) }

func FuzzAcceptorRecover(f *testing.F) { recoverytest.Fuzz(f, acceptorClient) }

// The acceptor's accepted map is never trimmed, so its snapshot only
// grows; the Journal's rule keeps the bytes compaction rewrites within
// twice the bytes journaled (a snapshot is at most the one before it
// plus the tail it folds in), where a fixed cadence rewrote the whole
// map every 64 records.
func TestAcceptorCompactionAmortised(t *testing.T) {
	st, _ := store.NewMem().Open("acc-a1")
	spy := &recoverytest.Spy{Stable: st}
	in, err := acceptorClient.Open(t, spy, true)
	if err != nil {
		t.Fatal(err)
	}
	const units = 4000
	for n := 1; n <= units; n++ {
		in.Apply(n)
	}
	if fixed := 2 * units / store.DefaultFloor; spy.Snaps == 0 || spy.Snaps > fixed/2 {
		t.Errorf("%d compactions in %d records: want some, and fewer than half the %d a fixed cadence makes", spy.Snaps, 2*units, fixed)
	}
	if spy.Snapped > 2*spy.Appended {
		t.Errorf("compaction rewrote %d bytes for %d journaled", spy.Snapped, spy.Appended)
	}
}
