package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// The two decoders recovery feeds with bytes read back from disk: the
// snapshot file and the journal records. Whatever a crash, a bad sector
// or a stray file left there, recovery must refuse it or skip it —
// never panic, never come up on half of it.

// FuzzRestoreSnapshot drives the SNP2 header + image decoder. A rejected
// snapshot leaves the database as it was; an accepted one round-trips.
func FuzzRestoreSnapshot(f *testing.F) {
	exec := NewExecutor(bankDB(f, "fuzz-seed", 5), BankRegistry())
	for seq := int64(1); seq <= 3; seq++ {
		if _, err := exec.Apply(seq, durDeposit(seq)); err != nil {
			f.Fatal(err)
		}
	}
	pbr := encodeSnapshot(exec.header(), exec.DB)
	smr := encodeSnapshot(snapHeader{
		Slot: 41, Executed: 3, LastSeq: exec.LastSeqs(), Recent: exec.RecentResults(),
		Epochs: []member.Config{{Epoch: 1, ReplicasFrom: 7, Bcast: []msg.Loc{"b1"}, Replicas: []msg.Loc{"r1", "r2"}}},
		Joined: map[msg.Loc]int{"r2": 7},
	}, exec.DB)
	for _, snap := range [][]byte{pbr, smr} {
		f.Add(snap)
		f.Add(snap[:len(snap)/2])                    // torn write
		f.Add(append(snap[:len(snap):len(snap)], 0)) // trailing garbage
		f.Add(snap[:len(snapMagic)+4])               // header length with nothing behind it
		flipped := bytes.Clone(snap)
		flipped[len(snapMagic)+6] ^= 0x40 // inside the gob header
		f.Add(flipped)
	}
	// A sound first table, then one whose schema Restore refuses (its
	// second column renamed to duplicate the first).
	if _, err := exec.DB.Exec("CREATE TABLE zz (ka INT PRIMARY KEY, kb INT)"); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Replace(encodeSnapshot(exec.header(), exec.DB), []byte("\x02kb"), []byte("\x02ka"), 1))
	f.Add([]byte(snapMagic + "\xff\xff\xff\xff"))
	f.Add(store.EncodeRecord(struct{ Slot int }{Slot: 5})) // the all-gob layout SNP2 replaced

	f.Fuzz(func(t *testing.T, b []byte) {
		db := bankDB(t, "fuzz", 3)
		before := db.AppendDump(nil)
		var h snapHeader
		if err := restoreSnapshot(b, &h, db); err != nil {
			if !bytes.Equal(before, db.AppendDump(nil)) {
				t.Errorf("rejected snapshot (%v) changed the database: %q", err, b)
			}
			return
		}
		var h2 snapHeader
		db2 := emptyDB(t, "fuzz2")
		if err := restoreSnapshot(encodeSnapshot(h, db), &h2, db2); err != nil || !sqldb.Equal(db, db2) {
			t.Errorf("accepted snapshot does not round-trip (%v): %q", err, b)
		}
		if !reflect.DeepEqual(h, h2) {
			t.Errorf("accepted header does not round-trip: %+v, then %+v", h, h2)
		}
	})
}

// FuzzReplayRecord drives both protocols' journal-record codecs through
// the shared recover loop, over a store holding a real snapshot, the
// record of unit 1, the fuzzed bytes and the record of unit 2. A fuzzed
// record that does not decode fails the recovery; one that does is
// applied only if it is exactly the next ordered unit — the real unit 2
// behind it is then the straggler — and is skipped otherwise, the
// records around it kept.
func FuzzReplayRecord(f *testing.F) {
	for _, p := range durableProtos {
		f.Add(p.record(f, 2))
		f.Add(p.record(f, 7)) // not the next unit
		f.Add(p.record(f, 2)[:20])
	}
	f.Add([]byte{})
	f.Add([]byte("not a journal record"))
	// Unit 2 carrying a request with a negative Seq, which the dedup
	// ring has no slot for: PBR refuses the record, SMR the transaction.
	for _, seq := range []int64{-1, math.MinInt64} {
		req := durDeposit(seq)
		f.Add(store.EncodeRecord(execRecord{Order: 2, Req: req}))
		pay, err := EncodeTx(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(store.EncodeRecord(walDeliver{Slot: 1, Msgs: []broadcast.Bcast{{From: req.Client, Seq: 2, Payload: pay}}}))
	}

	f.Fuzz(func(t *testing.T, rec []byte) {
		for _, p := range durableProtos {
			st := mustOpen(t, store.NewMem(), "r")
			r, err := p.open(t, st, bankDB(t, "fuzz-"+p.name, 3))
			if err != nil {
				t.Fatal(err)
			}
			r.apply(1)
			for _, rec := range [][]byte{rec, p.record(t, 2)} {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			r2, err := p.open(t, st, emptyDB(t, "fuzz2-"+p.name))
			if err != nil {
				continue // refused, naming the record
			}
			if n := r2.units(); n != 2 {
				t.Errorf("%s: recovered to unit %d around a fuzzed record, want 2", p.name, n)
			}
		}
	})
}
