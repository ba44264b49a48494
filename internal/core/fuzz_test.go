package core

import (
	"bytes"
	"math"
	"reflect"
	"slices"
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
	pbr := appendSnapshot(nil, exec.header(), exec.DB)
	smr := appendSnapshot(nil, snapHeader{
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
		flipped[len(snapMagic)+6] ^= 0x40 // inside the header
		f.Add(flipped)
	}
	// A sound first table, then one whose schema Restore refuses (its
	// second column renamed to duplicate the first).
	if _, err := exec.DB.Exec("CREATE TABLE zz (ka INT PRIMARY KEY, kb INT)"); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Replace(appendSnapshot(nil, exec.header(), exec.DB), []byte("\x02kb"), []byte("\x02ka"), 1))
	f.Add([]byte(snapMagic + "\xff\xff\xff\xff"))
	f.Add(gobBytes(f, struct{ Slot int }{Slot: 5})) // the all-gob layout SNP2 replaced
	f.Add(durableProtos[1].oldSnapshot(f, 2))       // SNP2, with its gob header

	f.Fuzz(func(t *testing.T, b []byte) {
		e := NewExecutor(bankDB(t, "fuzz", 3), BankRegistry())
		before := e.DB.AppendDump(nil)
		h, img, err := splitSnapshot(b)
		if err == nil {
			err = e.restore(h, img)
		}
		if err != nil {
			if !bytes.Equal(before, e.DB.AppendDump(nil)) {
				t.Errorf("rejected snapshot (%v) changed the database: %q", err, b)
			}
			return
		}
		e2 := NewExecutor(emptyDB(t, "fuzz2"), BankRegistry())
		h2, img2, err := splitSnapshot(appendSnapshot(nil, h, e.DB))
		if err == nil {
			err = e2.restore(h2, img2)
		}
		if err != nil || !sqldb.Equal(e.DB, e2.DB) {
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
		f.Add(orderRecord(2, req))
		pay, err := EncodeTx(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(deliverRecord(broadcast.Deliver{Slot: 1, Msgs: []broadcast.Bcast{{From: req.Client, Seq: 2, Payload: pay}}}))
	}
	// Unit 2 as the build before the payload codecs journaled it: its
	// transaction behind a "tx|" mark, which this build applies as no
	// transaction. Such a journal sits behind an SNP3 snapshot, which
	// Recover refuses first (TestRecoverRefusesSNP3).
	pay, err := EncodeTx(durDeposit(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deliverRecord(broadcast.Deliver{Slot: 1, Msgs: []broadcast.Bcast{{From: "c0", Seq: 2, Payload: append([]byte("tx|"), pay...)}}}))

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

// fuzzRequests decodes five bytes per request: the client, the kind of
// Seq (zero, negative, MinInt64, MaxInt64, the client's previous one
// again, or small), the type (bank types, an unknown one, none), the
// argument list (right, short, empty, wrong kinds, too long) and a
// value feeding Seq and arguments.
func fuzzRequests(b []byte) []TxRequest {
	var reqs []TxRequest
	last := make(map[msg.Loc]int64)
	for ; len(b) >= 5; b = b[5:] {
		client := msg.Loc([]string{"c0", "c1", "c2"}[b[0]%3])
		v := int64(b[4])
		seq := v
		switch b[1] % 8 {
		case 0:
			seq = 0
		case 1:
			seq = -v - 1
		case 2:
			seq = math.MinInt64
		case 3:
			seq = math.MaxInt64
		case 4:
			seq = last[client]
		}
		last[client] = seq
		args := [][]any{
			{int(v % 5), int(v)}, {v % 5, -v * 1000}, {int(v % 5), int((v + 1) % 5), int(v)},
			{int64(v % 5)}, nil, {"x", "y"}, {v % 5, 1.5, true}, {nil, nil}, {1.5, v},
		}[b[3]%9]
		typ := []string{"deposit", "transfer", "balance", "nosuch", ""}[b[2]%5]
		reqs = append(reqs, TxRequest{Client: client, Seq: seq, Type: typ, Args: args})
	}
	return reqs
}

// FuzzApplyBatch drives the group-commit apply path with arbitrary
// request lists. ApplyBatch must never panic, and it must land where
// Apply one request at a time lands — the contract its doc comment
// states: the same results (a refused negative Seq carries Apply's
// error), Executed, dedup horizons and rows. With the fast procedures
// on, the bookkeeping must still match.
func FuzzApplyBatch(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2}) // deposit with Seq -3: once an index out of range in the dedup ring
	f.Add([]byte{
		0, 2, 0, 0, 1, // Seq MinInt64
		1, 3, 1, 2, 7, // transfer with Seq MaxInt64
		1, 3, 0, 0, 7, // the same Seq again
		2, 0, 3, 4, 0, // unknown type, Seq 0
		2, 4, 2, 5, 9, // balance with strings, Seq 0 repeated
		0, 5, 0, 6, 4, // deposit with too many arguments of the wrong kinds
		0, 6, 4, 7, 5, // no type, nil arguments
		1, 1, 1, 8, 200, // transfer with a float, Seq -201
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		reqs := fuzzRequests(b)
		batch, twin, fast := bankExec(t, 4), bankExec(t, 4), bankExec(t, 4)
		fast.Fast = BankFastRegistry()
		got := slices.Clone(batch.ApplyBatch(reqs))
		fast.ApplyBatch(reqs)
		if len(got) != len(reqs) {
			t.Fatalf("%d results for %d requests", len(got), len(reqs))
		}
		for i, req := range reqs {
			want, err := twin.Apply(twin.Executed+1, req)
			if err != nil {
				want = TxResult{Client: req.Client, Seq: req.Seq, Err: err.Error()}
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("request %d %+v: batch answered %+v, one at a time %+v", i, req, got[i], want)
			}
		}
		for _, e := range []*Executor{batch, fast} {
			if e.Executed != twin.Executed || !reflect.DeepEqual(e.LastSeqs(), twin.LastSeqs()) {
				t.Errorf("fast %v: executed %d, horizons %v; one at a time %d, %v",
					e.Fast != nil, e.Executed, e.LastSeqs(), twin.Executed, twin.LastSeqs())
			}
			if e.DB.InTx() {
				t.Errorf("fast %v: the batch left a transaction open", e.Fast != nil)
			}
		}
		if !sqldb.Equal(batch.DB, twin.DB) {
			t.Error("batch and one-at-a-time application left different rows")
		}
	})
}
