// Package recoverytest is the recovery contract of store.Journal
// (internal/store/doc.go) as a table every client of the Journal runs:
// the executor under PBR and under SMR, the shard replica (SMR with its
// 2PC ledger), the Synod acceptor, the broadcast sequencer and the 2PC
// coordinator each supply a Client and pass the same rows over
// store.Mem and store.Dir, and feed the same Fuzz body with bytes nobody
// wrote.
//
// A client's history is a sequence of units 1, 2, 3, …: whatever the
// client journals for one step of its protocol (a transaction, a slot,
// an accepted pvalue, a whole cross-shard transfer).
package recoverytest

import (
	"errors"
	"fmt"
	"regexp"
	"testing"

	"shadowdb/internal/store"
)

// Client is one client of store.Journal, reduced to what the rows drive.
type Client struct {
	// Open builds an instance over st, recovering what st holds. fresh
	// marks the first open of a new store, where a client may seed
	// state that never travels through the journal (the executor's
	// initial rows); a restart passes fresh=false and must rebuild
	// everything from st alone.
	Open func(t testing.TB, st store.Stable, fresh bool) (Instance, error)
	// Records encodes unit n as the journal records the client writes
	// for it, in order.
	Records func(t testing.TB, n int) [][]byte
	// OldRecords encodes unit n in the client's previous record format,
	// which recovery must refuse; nil when the format has not changed.
	OldRecords func(t testing.TB, n int) [][]byte
	// OldSnapshot encodes the state after units 1..n as the client's
	// previous snapshot format wrote it, which recovery must refuse; nil
	// when the format has not changed.
	OldSnapshot func(t testing.TB, n int) []byte
}

// Instance is one incarnation of a client.
type Instance struct {
	// Apply takes unit n through the client's live path, journal
	// included.
	Apply func(n int)
	// Frontier is the number of units the state reflects.
	Frontier func() int
	// State renders everything a restart must bring back.
	State func() string
	// Compact folds the state into the store's snapshot now.
	Compact func() error
}

// Spy sits under a client's Journal and counts what reaches the store:
// the records in the tail, the snapshots saved, and the bytes of both.
type Spy struct {
	store.Stable
	Tail, Snaps       int
	Appended, Snapped int
}

// Append counts the record into the tail.
func (s *Spy) Append(rec []byte) error {
	s.Tail++
	s.Appended += len(rec)
	return s.Stable.Append(rec)
}

// SaveSnapshot counts the snapshot and empties the tail.
func (s *Spy) SaveSnapshot(snap []byte) error {
	s.Snaps++
	s.Snapped += len(snap)
	s.Tail = 0
	return s.Stable.SaveSnapshot(snap)
}

// unreadable is a store whose snapshot cannot be read back.
type unreadable struct{ store.Stable }

func (unreadable) Snapshot() ([]byte, bool, error) { return nil, false, errors.New("bad sector") }

// run is one row's view of one client over one store.
type run struct {
	t *testing.T
	c Client
	// st is the store every incarnation of the row opens.
	st *Spy
}

func (r run) apply(in Instance, from, to int) {
	for n := from; n <= to; n++ {
		in.Apply(n)
	}
}

// append puts records into the tail behind the client's back.
func (r run) append(recs ...[]byte) {
	for _, rec := range recs {
		if err := r.st.Append(rec); err != nil {
			r.t.Fatal(err)
		}
	}
}

// restart opens a new incarnation over the row's store and checks it
// came back with the state and at the frontier of orig.
func (r run) restart(orig Instance) Instance {
	r.t.Helper()
	in, err := r.c.Open(r.t, r.st, false)
	if err != nil {
		r.t.Fatalf("restart: %v", err)
	}
	if got, want := in.Frontier(), orig.Frontier(); got != want {
		r.t.Errorf("recovered to unit %d, want %d", got, want)
	}
	if got, want := in.State(), orig.State(); got != want {
		r.t.Errorf("recovered state differs from the original:\n got %s\nwant %s", got, want)
	}
	return in
}

// resumes checks a restarted incarnation carries on with unit n.
func (r run) resumes(in Instance, n int) {
	r.t.Helper()
	in.Apply(n)
	if in.Frontier() != n {
		r.t.Errorf("restarted instance at unit %d after applying unit %d", in.Frontier(), n)
	}
}

// refused checks a restart over the row's store fails, saying why: its
// error matches the regular expression mention.
func (r run) refused(what, mention string) {
	r.t.Helper()
	_, err := r.c.Open(r.t, r.st, false)
	if err == nil {
		r.t.Fatalf("opened over %s: must refuse, not start on part of its state", what)
	}
	if !regexp.MustCompile(mention).MatchString(err.Error()) {
		r.t.Errorf("refusal of %s does not say %q: %v", what, mention, err)
	}
}

var rows = []struct {
	name string
	run  func(r run, in Instance)
}{
	{"fresh store", func(r run, in Instance) {
		if in.Frontier() != 0 {
			r.t.Errorf("fresh store opened at unit %d", in.Frontier())
		}
		r.restart(in)
	}},
	{"snapshot only", func(r run, in Instance) {
		r.apply(in, 1, 5)
		if err := in.Compact(); err != nil {
			r.t.Fatal(err)
		}
		if r.st.Tail != 0 {
			r.t.Fatalf("%d records left behind a compaction", r.st.Tail)
		}
		r.resumes(r.restart(in), 6)
	}},
	{"journal tail", func(r run, in Instance) {
		r.apply(in, 1, 10)
		r.restart(in)
	}},
	{"snapshot and journal tail", func(r run, in Instance) {
		r.apply(in, 1, 5)
		if err := in.Compact(); err != nil {
			r.t.Fatal(err)
		}
		r.apply(in, 6, 10)
		r.resumes(r.restart(in), 11)
	}},
	{"across a compaction by the rule", func(r run, in Instance) {
		base, n := r.st.Snaps, 0
		for r.st.Snaps == base {
			if n++; n > 1000 {
				r.t.Fatal("1000 units journaled and the client never compacted")
			}
			in.Apply(n)
		}
		// Right behind the compaction: the snapshot alone must hold
		// everything unit n did.
		r.restart(in)
		r.apply(in, n+1, n+7)
		r.restart(in)
	}},
	{"pre-snapshot straggler", func(r run, in Instance) {
		r.apply(in, 1, 5)
		if err := in.Compact(); err != nil {
			r.t.Fatal(err)
		}
		r.append(r.c.Records(r.t, 2)...)
		r.resumes(r.restart(in), 6)
	}},
	{"undecodable record", func(r run, in Instance) {
		r.apply(in, 1, 3)
		at := r.st.Tail
		r.append([]byte("not a journal record"))
		r.apply(in, 4, 5)
		r.refused("a record that does not decode", fmt.Sprintf("record %d", at))
	}},
	{"tail record in the old format", func(r run, in Instance) {
		if r.c.OldRecords == nil {
			r.t.Skip("the client's record format has not changed")
		}
		r.apply(in, 1, 3)
		at := r.st.Tail
		r.append(r.c.OldRecords(r.t, 4)...)
		r.refused("a record in the old format", fmt.Sprintf(`^store: journal \S+: record %d: `, at))
	}},
	{"snapshot in the old format", func(r run, in Instance) {
		if r.c.OldSnapshot == nil {
			r.t.Skip("the client's snapshot format has not changed")
		}
		r.apply(in, 1, 3)
		if err := r.st.SaveSnapshot(r.c.OldSnapshot(r.t, 3)); err != nil {
			r.t.Fatal(err)
		}
		r.refused("a snapshot in the old format", `^store: journal \S+: snapshot: `)
	}},
	{"refused snapshot format", func(r run, in Instance) {
		r.apply(in, 1, 3)
		if err := r.st.SaveSnapshot([]byte("not a snapshot")); err != nil {
			r.t.Fatal(err)
		}
		r.refused("a snapshot that does not decode", "snapshot")
	}},
	{"unreadable snapshot", func(r run, in Instance) {
		r.apply(in, 1, 3)
		r.st.Stable = unreadable{r.st.Stable}
		r.refused("a snapshot it cannot read", "bad sector")
	}},
}

// Run takes the client through every row over both stores.
func Run(t *testing.T, c Client) {
	provs := map[string]func(*testing.T) store.Provider{
		"mem": func(*testing.T) store.Provider { return store.NewMem() },
		"dir": func(t *testing.T) store.Provider {
			d, err := store.NewDir(t.TempDir(), store.SyncNever)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for _, row := range rows {
		for name, prov := range provs {
			t.Run(row.name+"/"+name, func(t *testing.T) {
				st, err := prov(t).Open("client")
				if err != nil {
					t.Fatal(err)
				}
				r := run{t: t, c: c, st: &Spy{Stable: st}}
				in, err := c.Open(t, r.st, true)
				if err != nil {
					t.Fatal(err)
				}
				row.run(r, in)
			})
		}
	}
}

// Fuzz feeds the client's recovery a store nobody wrote: an arbitrary
// snapshot (when withSnap) and an arbitrary record between the real
// records of units 1 and 2. Recovery may refuse it or come up on it;
// it must not panic, and it must not come up empty — as if the store
// held nothing — nor, with no snapshot to supersede them, without the
// two real units.
func Fuzz(f *testing.F, c Client) {
	f.Add([]byte{}, false, []byte{})
	f.Add([]byte("not a snapshot"), true, []byte("not a journal record"))
	for _, rec := range c.Records(f, 2) {
		f.Add([]byte{}, false, rec)
		f.Add(rec, true, rec[:len(rec)/2])
	}
	// A real snapshot, and a real record of a unit that is not next.
	{
		st, _ := store.NewMem().Open("seed")
		in, err := c.Open(f, st, true)
		if err != nil {
			f.Fatal(err)
		}
		in.Apply(1)
		in.Apply(2)
		if err := in.Compact(); err != nil {
			f.Fatal(err)
		}
		snap, _, _ := st.Snapshot()
		f.Add(snap, true, c.Records(f, 7)[0])
		f.Add(snap[:len(snap)/2], true, c.Records(f, 1)[0])
	}
	st, _ := store.NewMem().Open("empty")
	in, err := c.Open(f, st, false)
	if err != nil {
		f.Fatal(err)
	}
	empty := in.State()
	f.Fuzz(func(t *testing.T, snap []byte, withSnap bool, rec []byte) {
		st, _ := store.NewMem().Open("fuzzed")
		if withSnap {
			_ = st.SaveSnapshot(snap)
		}
		for _, r := range c.Records(t, 1) {
			_ = st.Append(r)
		}
		_ = st.Append(rec)
		for _, r := range c.Records(t, 2) {
			_ = st.Append(r)
		}
		in, err := c.Open(t, st, false)
		if err != nil {
			return
		}
		if in.State() == empty {
			t.Errorf("recovery came up empty over a written store (snapshot %q, record %q)", snap, rec)
		}
		if !withSnap && in.Frontier() < 2 {
			t.Errorf("recovery came up at unit %d, behind the two real units around record %q", in.Frontier(), rec)
		}
	})
}
