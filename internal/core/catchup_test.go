package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// Catch-up is served from the journal tail (Executor.serveCatchup): a
// replica answers a request for the units after a frontier with exactly
// its journal records past it, up to its own frontier, while the
// journal reaches back that far — back to its last snapshot — and with
// a state transfer otherwise. These tables pin which of the two a
// request gets: they decide what a recovery sends.

// cacheTx is the request applied at an order number in these tests.
func cacheTx(order int64) TxRequest {
	return TxRequest{Client: "c0", Seq: order, Type: "deposit", Args: []any{int(order % 4), 1}}
}

// served asks e for the units after after, as serveCatchup answers a
// peer, and returns the records of its Catchups in order, or ok=false
// when it needs a state transfer instead.
func served(t *testing.T, e *Executor, after int64, unit func([]byte) (int64, bool)) ([][]byte, bool) {
	t.Helper()
	outs, ok := e.serveCatchup("r9", 0, after, unit)
	var recs [][]byte
	for _, o := range outs {
		cu, isCatchup := o.M.Body.(Catchup)
		if !isCatchup || o.M.Hdr != HdrCatchup || o.Dest != "r9" {
			t.Fatalf("serveCatchup(%d) sent %v to %s, want Catchups to r9", after, o.M.Hdr, o.Dest)
		}
		recs = append(recs, cu.Records...)
	}
	if ok && len(outs) == 0 {
		t.Fatalf("serveCatchup(%d) answered nothing; an empty Catchup tells a peer it misses nothing", after)
	}
	return recs, ok
}

// checkServed asserts r's journal serves exactly the orders lo..Executed
// (none when lo > Executed): every frontier from lo-1 on gets the
// transactions after it, and every earlier one a state transfer.
func checkServed(t *testing.T, where string, r *PBRReplica, lo int64) {
	t.Helper()
	if got := int64(r.exec.snapAt) + 1; got != lo {
		t.Errorf("%s: journal reaches back to order %d, want %d", where, got, lo)
	}
	hi := r.exec.Executed
	for _, after := range []int64{-1, 0, 1, lo - 2, lo - 1, lo, hi - 1, hi, hi + 1} {
		recs, ok := served(t, r.exec, after, orderOf)
		if after+1 < lo {
			if ok {
				t.Errorf("%s: after %d served %d records; the journal starts at %d", where, after, len(recs), lo)
			}
			continue
		}
		var want [][]byte
		for o := after + 1; o <= hi; o++ {
			want = append(want, orderRecord(o, cacheTx(o)))
		}
		if !ok || !reflect.DeepEqual(recs, want) {
			t.Errorf("%s: after %d served %d records, %v; want orders %d..%d", where, after, len(recs), ok, after+1, hi)
		}
	}
}

func TestPBRLogFrom(t *testing.T) {
	dep := testDeployment()
	newReplica := func(slf msg.Loc, name string) *PBRReplica {
		return NewPBRReplica(slf, bankDB(t, name, 4), BankRegistry(), dep)
	}
	forward := func(r *PBRReplica, from, to int64) {
		for o := from; o <= to; o++ {
			r.Step(msg.M(HdrRepl, Repl{Order: o, Req: cacheTx(o)}))
		}
	}
	catchup := func(r *PBRReplica, from, to int64) {
		var c Catchup
		for o := from; o <= to; o++ {
			c.Records = append(c.Records, orderRecord(o, cacheTx(o)))
		}
		r.Step(msg.M(HdrCatchup, c))
	}

	t.Run("primary", func(t *testing.T) {
		r := newReplica("r1", "served-primary")
		n := int64(0)
		for _, at := range []int64{0, 1, DefaultSnapEvery - 1, DefaultSnapEvery, DefaultSnapEvery + 1, 1024, 2049} {
			for ; n < at; n++ {
				r.Step(msg.M(HdrTx, cacheTx(n+1)))
			}
			if r.exec.Executed != at {
				t.Fatalf("primary executed %d, want %d", r.exec.Executed, at)
			}
			lo := int64(r.exec.snapAt) + 1
			if (at < DefaultSnapEvery) != (lo == 1) {
				t.Errorf("after %d: journal starts at %d; a volatile journal first compacts at its floor of %d", at, lo, DefaultSnapEvery)
			}
			checkServed(t, fmt.Sprintf("after %d", at), r, lo)
		}
	})

	t.Run("backup forwards", func(t *testing.T) {
		r := newReplica("r2", "served-forwards")
		forward(r, 1, 1500)
		if r.exec.snapAt == 0 {
			t.Fatal("1500 forwards never compacted the journal")
		}
		checkServed(t, "after 1500 forwards", r, int64(r.exec.snapAt)+1)
	})

	t.Run("catch-up batch", func(t *testing.T) {
		r := newReplica("r2", "served-catchup")
		catchup(r, 1, 1500)
		// One batch, journaled whole before the compaction check: the
		// snapshot covers all of it.
		checkServed(t, "after a 1500-transaction catch-up", r, 1501)
		catchup(r, 1401, 1600) // overlaps what is applied already
		lo := int64(r.exec.snapAt) + 1
		if lo != 1501 && lo != 1601 {
			t.Errorf("after an overlapping catch-up the journal starts at %d, want 1501 or a snapshot at 1600", lo)
		}
		checkServed(t, "after an overlapping catch-up", r, lo)
		forward(r, 1601, 1610)
		checkServed(t, "after forwards behind the catch-up", r, lo)
	})

	t.Run("installed transfer", func(t *testing.T) {
		primary := NewExecutor(bankDB(t, "served-xfer-r1", 4), BankRegistry())
		for o := int64(1); o <= 7; o++ {
			if _, err := primary.Apply(o, cacheTx(o)); err != nil {
				t.Fatal(err)
			}
		}
		r := newReplica("r2", "served-xfer-r2")
		forward(r, 1, 3)
		xfer, _ := primary.SnapshotDirectives("r2", 0, 1)
		for _, o := range xfer {
			r.Step(o.M)
		}
		if r.exec.Executed != 7 {
			t.Fatalf("backup installed Executed = %d, want 7", r.exec.Executed)
		}
		checkServed(t, "after the transfer", r, 8)
		forward(r, 8, 10)
		checkServed(t, "after forwards behind the transfer", r, 8)
	})

	t.Run("wiped to spare", func(t *testing.T) {
		r := newReplica("r1", "served-wipe")
		for o := int64(1); o <= 5; o++ {
			r.Step(msg.M(HdrTx, cacheTx(o)))
		}
		r.wipeToSpare()
		checkServed(t, "after the wipe", r, 1)
	})

	t.Run("durable restart", func(t *testing.T) {
		prov := store.NewMem()
		open := func(name string, rows int) *PBRReplica {
			st, err := prov.Open("r1")
			if err != nil {
				t.Fatal(err)
			}
			r, _, err := NewDurablePBRReplica("r1", bankDB(t, name, rows), BankRegistry(), dep, st, 0)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		records := func() int {
			st, err := prov.Open("r1")
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := st.Replay(func([]byte) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			return n
		}
		r := open("served-durable", 4)
		const n = 150
		for o := int64(1); o <= n; o++ {
			r.Step(msg.M(HdrTx, cacheTx(o)))
		}
		checkServed(t, "before the restart", r, int64(r.exec.snapAt)+1)
		tail := records()

		rb := open("served-durable-b", 0)
		if rb.exec.Executed != n {
			t.Fatalf("restarted replica recovered Executed = %d, want %d", rb.exec.Executed, n)
		}
		lo := int64(rb.exec.snapAt) + 1
		if lo > n || n-lo+1 != int64(tail) {
			t.Fatalf("snapshot at %d and %d journaled records: want a non-empty tail behind the snapshot", rb.exec.snapAt, tail)
		}
		checkServed(t, "after the replay", rb, lo)
		if got := records(); got != tail {
			t.Errorf("restart left %d journal records, want the %d it replayed: replayed records were journaled again", got, tail)
		}
	})

	// Both refinements, through the protocol, over either store or none
	// (a volatile replica journals privately): a request after a
	// frontier below the snapshot gets a state transfer, any other
	// exactly the records past it up to the server's frontier.
	for _, p := range []struct {
		name string
		// open builds a server over st (nil: a volatile one) that applies
		// unit n (1-based) with apply, and answers r2's request after a
		// frontier with ask.
		open func(t *testing.T, st store.Stable) (apply func(n int64), ask func(after int64) []msg.Directive, frontier func() int64, e *Executor)
		unit func([]byte) (int64, bool)
	}{
		{"pbr", func(t *testing.T, st store.Stable) (func(int64), func(int64) []msg.Directive, func() int64, *Executor) {
			var r *PBRReplica
			if st == nil {
				r = NewPBRReplica("r1", bankDB(t, "served-pbr", 4), BankRegistry(), dep)
			} else {
				var err error
				if r, _, err = NewDurablePBRReplica("r1", bankDB(t, "served-pbr", 4), BankRegistry(), dep, st, 0); err != nil {
					t.Fatal(err)
				}
			}
			return func(n int64) { r.Step(msg.M(HdrTx, cacheTx(n))) },
				func(after int64) []msg.Directive {
					// Resync: each row asks afresh, whatever the last one got.
					_, outs := r.Step(msg.M(HdrCatchupReq, CatchupReq{From: "r2", After: after, Resync: true}))
					return outs
				},
				func() int64 { return r.exec.Executed }, r.exec
		}, orderOf},
		{"smr", func(t *testing.T, st store.Stable) (func(int64), func(int64) []msg.Directive, func() int64, *Executor) {
			r, err := OpenSMRReplica(SMRConfig{Self: "r1", DB: bankDB(t, "served-smr", 4), Registry: BankRegistry(), Store: st, Peers: []msg.Loc{"r1", "r2"}})
			if err != nil {
				t.Fatal(err)
			}
			return func(n int64) { stepDeliver(r, depositDeliver(t, int(n-1))) },
				func(after int64) []msg.Directive {
					_, outs := r.Step(msg.M(HdrCatchupReq, CatchupReq{From: "r2", After: after}))
					return outs
				},
				func() int64 { return int64(r.LastSlot()) }, r.exec
		}, slotOf},
	} {
		for _, prov := range []string{"volatile", "mem", "dir"} {
			t.Run("served ranges/"+p.name+"/"+prov, func(t *testing.T) {
				var st store.Stable
				switch prov {
				case "mem":
					st = mustOpen(t, store.NewMem(), "r1")
				case "dir":
					st = mustOpen(t, mustDirProv(t), "r1")
				}
				apply, ask, frontier, e := p.open(t, st)
				base := e.snapAt
				for n := int64(1); n <= 100; n++ {
					apply(n)
				}
				snapAt, hi := int64(e.snapAt), frontier()
				if snapAt == int64(base) || snapAt >= hi {
					t.Fatalf("snapshot at %d (baseline %d), frontier %d: want a compaction and a tail behind it", snapAt, base, hi)
				}
				for _, after := range []int64{-1, snapAt - 1, snapAt, hi - 1, hi, hi + 1} {
					outs := ask(after)
					if after < snapAt {
						if len(outs) == 0 || outs[0].M.Hdr != HdrSnapPart || outs[0].Dest != "r2" {
							t.Errorf("after %d (snapshot at %d): answered %v, want a state transfer to r2", after, snapAt, outs)
						}
						continue
					}
					want := after + 1
					for _, o := range outs {
						cu, ok := o.M.Body.(Catchup)
						if !ok || o.Dest != "r2" {
							t.Fatalf("after %d: answered %v to %s, want Catchups to r2", after, o.M.Hdr, o.Dest)
						}
						for _, rec := range cu.Records {
							if i, ok := p.unit(rec); !ok || i != want {
								t.Fatalf("after %d: record of unit %d (%v) where unit %d belongs", after, i, ok, want)
							}
							want++
						}
					}
					if len(outs) == 0 || want != max(hi, after)+1 {
						t.Errorf("after %d: %d messages served units up to %d, want up to %d", after, len(outs), want-1, hi)
					}
				}
			})
		}
	}
}

// A served Catchup holds copies of the journal's records: a store may
// reuse a replayed record's memory (a private store.Mem does, once a
// compaction has folded the tail in), and what a peer was sent must
// still read as the slots it was sent for. The replica serves each slot
// right after applying it, through several compactions, and every
// record it served is read back at the end.
func TestServedCatchupOutlivesCompaction(t *testing.T) {
	r := openSMR(t, "r1", bankDB(t, "served-copies", 4), false)
	const slots = 5 * DefaultSnapEvery
	served := map[int64][]byte{}
	for s := 0; s < slots; s++ {
		stepDeliver(r, depositDeliver(t, s))
		if s == r.exec.snapAt {
			continue // just compacted: the slot is in the snapshot
		}
		_, outs := r.Step(msg.M(HdrCatchupReq, CatchupReq{From: "r2", After: int64(s - 1)}))
		var cu Catchup
		if len(outs) == 1 {
			cu, _ = outs[0].M.Body.(Catchup)
		}
		if len(cu.Records) != 1 {
			t.Fatalf("asked for slot %d: answered %v, want one Catchup of its record", s, outs)
		}
		served[int64(s)] = cu.Records[0]
	}
	if r.exec.snapAt < 3*DefaultSnapEvery {
		t.Fatalf("snapshot at slot %d after %d slots: want several compactions", r.exec.snapAt, slots)
	}
	for s, rec := range served {
		if got, ok := slotOf(rec); !ok || got != s {
			t.Errorf("the record served for slot %d reads as slot %d (decodes: %v) once the server journaled on", s, got, ok)
		}
	}
}

// TestExecutorLogCache checks the range a PBR primary serves once it
// has compacted: the recent suffix is served, the far past is refused,
// and a caught-up backup is owed nothing.
func TestExecutorLogCache(t *testing.T) {
	r := NewPBRReplica("r1", bankDB(t, "served-evicted", 4), BankRegistry(), testDeployment())
	const n = DefaultSnapEvery + 6
	for o := int64(1); o <= n; o++ {
		r.Step(msg.M(HdrTx, cacheTx(o)))
	}
	if r.exec.Executed != n || r.exec.snapAt != DefaultSnapEvery {
		t.Fatalf("primary executed %d with a snapshot at %d, want %d and %d", r.exec.Executed, r.exec.snapAt, n, DefaultSnapEvery)
	}
	// Recent suffix available.
	recs, ok := served(t, r.exec, n-3, orderOf)
	if !ok || len(recs) != 3 {
		t.Errorf("after %d: %d records, %v; want 3", n-3, len(recs), ok)
	} else if first, _ := orderOf(recs[0]); first != n-2 {
		t.Errorf("after %d: records from order %d, want %d", n-3, first, n-2)
	}
	// Far past compacted.
	if _, ok := served(t, r.exec, 2, orderOf); ok {
		t.Error("compacted range reported available")
	}
	// Nothing missing.
	recs, ok = served(t, r.exec, n, orderOf)
	if !ok || len(recs) != 0 {
		t.Errorf("after %d: %d records, %v", n, len(recs), ok)
	}
}

// TestFullLog checks the oracle's view of a PBR replica's history: whole
// while the journal reaches back to order 1, ErrIncompleteLog once a
// compaction folded order 1 into a snapshot.
func TestFullLog(t *testing.T) {
	r := NewPBRReplica("r1", bankDB(t, "full-log", 4), BankRegistry(), testDeployment())
	for o := int64(1); o <= 5; o++ {
		r.Step(msg.M(HdrTx, cacheTx(o)))
	}
	log, err := r.FullLog()
	want := make([]Repl, 5)
	for i := range want {
		want[i] = Repl{Order: int64(i + 1), Req: cacheTx(int64(i + 1))}
	}
	if err != nil || !reflect.DeepEqual(log, want) {
		t.Fatalf("FullLog = %v, %v", log, err)
	}
	for o := int64(6); o <= DefaultSnapEvery; o++ {
		r.Step(msg.M(HdrTx, cacheTx(o)))
	}
	if _, err := r.FullLog(); !errors.Is(err, ErrIncompleteLog) {
		t.Errorf("compacted log: err = %v", err)
	}
}

// A replica behind a gap asks its peers once per gap, not once per
// delivery past it: the first slot parked past the gap asks every peer,
// later ones ride that request (re-asking at every eighth, in case it
// or its answer was lost), and progress re-arms the pacer.
func TestSMRGapAsksOncePerGap(t *testing.T) {
	r, err := OpenSMRReplica(SMRConfig{Self: "r1", DB: bankDB(t, "gap-asks", 4), Registry: BankRegistry(),
		Peers: []msg.Loc{"r1", "r2", "r3"}})
	if err != nil {
		t.Fatal(err)
	}
	asks := func(outs []msg.Directive, after int64) int {
		n := 0
		for _, o := range outs {
			if q, ok := o.M.Body.(CatchupReq); ok && o.M.Hdr == HdrCatchupReq {
				if q.After != after || q.From != "r1" {
					t.Errorf("asked %s for the units after %d from %s, want after %d from r1", o.Dest, q.After, q.From, after)
				}
				n++
			}
		}
		return n
	}
	stepDeliver(r, depositDeliver(t, 0))
	if n := asks(stepDeliver(r, depositDeliver(t, 2)), 0); n != 2 {
		t.Fatalf("the first slot past the gap sent %d catch-up requests, want one per peer", n)
	}
	total := 2
	for s := 3; s <= 11; s++ {
		total += asks(stepDeliver(r, depositDeliver(t, s)), 0)
	}
	if total > 4 {
		t.Errorf("10 slots past one gap sent %d catch-up requests to 2 peers, want at most 4", total)
	}

	stepDeliver(r, depositDeliver(t, 1)) // the gap closes; the parked slots drain
	if r.LastSlot() != 11 {
		t.Fatalf("frontier %d after the gap closed, want 11", r.LastSlot())
	}
	if n := asks(stepDeliver(r, depositDeliver(t, 13)), 11); n != 2 {
		t.Errorf("the first slot past a new gap sent %d catch-up requests, want one per peer", n)
	}
}

// hostileRecords decodes four bytes per catch-up record: a kind — a PBR
// record, an SMR record, raw bytes, or a PBR or SMR record cut short —
// then a unit index (order n, or slot n-1) and a Seq, each possibly
// negative, so units repeat, run out of order and carry negative Seqs,
// and where a cut record ends.
func hostileRecords(t testing.TB, b []byte) [][]byte {
	var recs [][]byte
	for ; len(b) >= 4; b = b[4:] {
		unit, seq := int64(int8(b[1])), int64(int8(b[2]))
		req := durDeposit(seq)
		pay, err := EncodeTx(req)
		if err != nil {
			t.Fatal(err)
		}
		smr := deliverRecord(broadcast.Deliver{Slot: int(unit - 1), Msgs: []broadcast.Bcast{{From: req.Client, Seq: seq, Payload: pay}}})
		switch b[0] % 5 {
		case 0:
			recs = append(recs, orderRecord(unit, req))
		case 1:
			recs = append(recs, smr)
		case 2:
			recs = append(recs, b[1:4])
		case 3:
			pbr := orderRecord(unit, req)
			recs = append(recs, pbr[:int(b[3])%len(pbr)])
		default:
			recs = append(recs, smr[:int(b[3])%len(smr)])
		}
	}
	return recs
}

// stepCatchup steps a durable PBR backup and a durable SMR replica with
// one Catchup of hostile records, then with hostile state-transfer
// parts (stepParts). Neither may panic, and each must have journaled
// exactly what it applied: it serves back the units after its snapshot
// up to its frontier, in order, and a new incarnation over its store
// recovers its frontier and rows.
func stepCatchup(t *testing.T, b []byte) {
	c := Catchup{Records: hostileRecords(t, b)}
	if len(b) > 0 && b[0]&0x80 != 0 {
		c.Records = append(c.Records, b) // the raw input as one more record
	}
	dep := PBRDeployment{Pool: []msg.Loc{"p1", "p2"}, InitialMembers: 2}
	openPBR := func(name string, st store.Stable) *PBRReplica {
		r, _, err := NewDurablePBRReplica("p2", bankDB(t, name, 4), BankRegistry(), dep, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	openSMR := func(name string, st store.Stable) *SMRReplica {
		r, err := NewDurableSMRReplica("r1", bankDB(t, name, 4), BankRegistry(), st, []msg.Loc{"r1", "r2"})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	prov := store.NewMem()
	pbr, smr := openPBR("hostile-pbr", mustOpen(t, prov, "p2")), openSMR("hostile-smr", mustOpen(t, prov, "r1"))
	cu := msg.M(HdrCatchup, c)
	pbr.Step(cu)
	smr.Step(cu)
	stepParts(t, "pbr", b, pbr.exec, func(m msg.Msg) { pbr.Step(m) }, func() (*Executor, func(msg.Msg)) {
		r := openPBR("hostile-pbr-ref", mustOpen(t, store.NewMem(), "p2"))
		return r.exec, func(m msg.Msg) { r.Step(m) }
	}, cu)
	stepParts(t, "smr", b, smr.exec, func(m msg.Msg) { smr.Step(m) }, func() (*Executor, func(msg.Msg)) {
		r := openSMR("hostile-smr-ref", mustOpen(t, store.NewMem(), "r1"))
		return r.exec, func(m msg.Msg) { r.Step(m) }
	}, cu)
	for _, sv := range []struct {
		name     string
		e        *Executor
		frontier int64
		unit     func([]byte) (int64, bool)
	}{{"pbr", pbr.exec, pbr.exec.Executed, orderOf}, {"smr", smr.exec, int64(smr.LastSlot()), slotOf}} {
		recs, ok := served(t, sv.e, int64(sv.e.snapAt), sv.unit)
		want := int64(sv.e.snapAt) + 1
		for _, rec := range recs {
			if i, _ := sv.unit(rec); i != want {
				break
			}
			want++
		}
		if !ok || want != sv.frontier+1 || len(recs) != int(sv.frontier)-sv.e.snapAt {
			t.Errorf("%s: serves back %d records (%v) past its snapshot at %d; want units %d..%d in order",
				sv.name, len(recs), ok, sv.e.snapAt, sv.e.snapAt+1, sv.frontier)
		}
	}

	pbr2, _, err := NewDurablePBRReplica("p2", emptyDB(t, "hostile-pbr2"), BankRegistry(), dep, mustOpen(t, prov, "p2"), 0)
	if err != nil {
		t.Fatalf("pbr: the journal catch-up left does not recover: %v", err)
	}
	if pbr2.exec.Executed != pbr.exec.Executed || !sqldb.Equal(pbr.exec.DB, pbr2.exec.DB) {
		t.Errorf("pbr: applied %d orders, a restart recovers %d (rows equal: %v)",
			pbr.exec.Executed, pbr2.exec.Executed, sqldb.Equal(pbr.exec.DB, pbr2.exec.DB))
	}
	smr2, err := NewDurableSMRReplica("r1", emptyDB(t, "hostile-smr2"), BankRegistry(), mustOpen(t, prov, "r1"), nil)
	if err != nil {
		t.Fatalf("smr: the journal catch-up left does not recover: %v", err)
	}
	if smr2.LastSlot() != smr.LastSlot() || !sqldb.Equal(smr.exec.DB, smr2.exec.DB) {
		t.Errorf("smr: applied through slot %d, a restart recovers slot %d (rows equal: %v)",
			smr.LastSlot(), smr2.LastSlot(), sqldb.Equal(smr.exec.DB, smr2.exec.DB))
	}
}

// FuzzCatchup throws Catchups of hostile records at both refinements:
// any peer can send one, so no record may take a replica down or make
// it apply what it did not journal.
func FuzzCatchup(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 0})                    // PBR orders 1..3
	f.Add([]byte{1, 1, 1, 0, 1, 2, 2, 0, 1, 3, 3, 0})                    // SMR slots 0..2
	f.Add([]byte{0, 1, 1, 0, 0, 2, 0xff, 0, 0, 3, 3, 0})                 // a negative Seq mid-run
	f.Add([]byte{0, 1, 1, 0, 0, 1, 1, 0, 0, 3, 3, 0, 0, 2, 2, 0})        // a repeat, then out of order
	f.Add([]byte{1, 1, 0x80, 0, 1, 2, 1, 0, 1, 1, 1, 0})                 // SMR: MinInt8 Seq, then repeats
	f.Add([]byte{0, 1, 1, 0, 3, 2, 2, 17, 4, 1, 2, 9, 2, 'x', 'y', 'z'}) // cut records, raw bytes
	f.Add([]byte{0x80, 0xff, 0xff, 0xff, 0xff})                          // one undecodable raw record
	f.Add([]byte{1, 6, 100, 5, 1, 7, 100, 5})                            // SMR slots 5, 6 parked, then a transfer past them
	f.Fuzz(func(t *testing.T, b []byte) { stepCatchup(t, b) })
}

// TestCatchupHostileRecords runs FuzzCatchup's body over a fixed-seed
// stream of inputs, so tier-1 covers more than the seed corpus. Each
// input is a run of one refinement's records, units 1, 2, 3, …, with
// every few a record of another kind, a unit repeated, skipped or run
// backwards, or a Seq negative or repeated.
func TestCatchupHostileRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 200; i++ {
		kind := byte(rng.Intn(2))
		var b []byte
		for k := 1; k <= rng.Intn(16); k++ {
			rec := []byte{kind, byte(k), byte(k), byte(rng.Intn(256))}
			switch rng.Intn(12) {
			case 0:
				rec[0] = byte(rng.Intn(5))
			case 1:
				rec[1] = byte(k - 1 - rng.Intn(3))
			case 2:
				rec[1] = byte(k + 1 + rng.Intn(3))
			case 3:
				rec[2] = byte(-1 - rng.Intn(128))
			case 4:
				rec[2] = byte(k - 1)
			}
			b = append(b, rec...)
		}
		stepCatchup(t, b)
	}
}

// BenchmarkServeCatchup times a PBR primary serving 1 024 journaled
// transactions to a backup from its journal.
func BenchmarkServeCatchup(b *testing.B) {
	const n = 1024
	st := mustOpen(b, store.NewMem(), "r1")
	r, _, err := NewDurablePBRReplica("r1", bankDB(b, "bench-serve", 4), BankRegistry(), testDeployment(), st, 2*n)
	if err != nil {
		b.Fatal(err)
	}
	for o := int64(1); o <= n; o++ {
		r.Step(msg.M(HdrTx, cacheTx(o)))
	}
	req := msg.M(HdrCatchupReq, CatchupReq{From: "r2", After: 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, outs := r.Step(req)
		if len(outs) != 1 || len(outs[0].M.Body.(Catchup).Records) != n {
			b.Fatalf("served %v, want one Catchup of %d records", outs, n)
		}
	}
}
