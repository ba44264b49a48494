package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/recoverytest"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// Recovery is store.Journal's loop with the replicated executor as its
// client (durability.go), so both refinements run the table every
// client of the Journal runs (internal/recoverytest). An ordered unit n
// (1-based) is one deposit by client c0 with sequence number n — a
// forward with order number n under PBR, slot n-1 under SMR — so after
// n units both protocols hold the same rows and Executed == n.

// durableReplica is one protocol's durable replica, reduced to what the
// recovery cases drive.
type durableReplica struct {
	exec     *Executor
	restored bool
	// apply orders and executes unit n.
	apply func(n int64)
	// units is the protocol's own ordering frontier, in units applied.
	units func() int64
}

type durableProto struct {
	name string
	// open builds the replica over st; a restart passes the store a
	// previous incarnation wrote.
	open func(t testing.TB, st store.Stable, db *sqldb.DB) (durableReplica, error)
	// record encodes unit n as the protocol's journal record.
	record func(t testing.TB, n int64) []byte
	// oldRecord encodes unit n as the record of the gob format the
	// journal kept before it held wire bodies.
	oldRecord func(t testing.TB, n int64) []byte
	// slot is the ordering frontier after n units.
	slot func(n int64) int
}

// The gob records of the format before wire bodies, copied here under
// other names (gob matches fields by name; the type's name is only in
// the type descriptor): a PBR transaction and an SMR slot.
type (
	oldExecRecord struct {
		Order int64
		Req   TxRequest
	}
	oldSlotRecord struct {
		Slot int
		Msgs []broadcast.Bcast
	}
	// oldSnapHeader is the gob header of an SNP2 snapshot.
	oldSnapHeader struct {
		Slot     int
		Executed int64
		LastSeq  map[string]int64
		Recent   []TxResult
		Epochs   []member.Config
		Joined   map[msg.Loc]int
		Ext      []byte
	}
)

// gobBytes is v as one gob stream: the format journal records and
// snapshot headers had before the wire codec wrote them.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oldSnapshot is the SNP2 snapshot of the state after n units: the magic,
// the header's length, a gob header and the database image.
func (p durableProto) oldSnapshot(t testing.TB, n int64) []byte {
	h := gobBytes(t, oldSnapHeader{Slot: p.slot(n), Executed: n, LastSeq: map[string]int64{"c0": n},
		Recent: []TxResult{{Client: "c0", Seq: n}}})
	snap := binary.BigEndian.AppendUint32([]byte("SNP2"), uint32(len(h)))
	return bankDB(t, p.name+"-old", 10).AppendDump(append(snap, h...))
}

var durableProtos = []durableProto{
	{
		name: "pbr",
		open: func(t testing.TB, st store.Stable, db *sqldb.DB) (durableReplica, error) {
			dep := PBRDeployment{Pool: []msg.Loc{"p1", "p2"}, InitialMembers: 2}
			r, restored, err := NewDurablePBRReplica("p2", db, BankRegistry(), dep, st, DefaultSnapEvery)
			if err != nil {
				return durableReplica{}, err
			}
			exec := r.Executor()
			return durableReplica{exec: exec, restored: restored,
				apply: func(n int64) {
					r.Step(msg.M(HdrRepl, Repl{Order: n, Req: durDeposit(n)}))
					if exec.Executed != n {
						t.Fatalf("backup at order %d after the forward of order %d", exec.Executed, n)
					}
				},
				units: func() int64 { return exec.Executed },
			}, nil
		},
		record: func(t testing.TB, n int64) []byte { return orderRecord(n, durDeposit(n)) },
		oldRecord: func(t testing.TB, n int64) []byte {
			return gobBytes(t, oldExecRecord{Order: n, Req: durDeposit(n)})
		},
		slot: func(n int64) int { return int(n) },
	},
	{
		name: "smr",
		open: func(t testing.TB, st store.Stable, db *sqldb.DB) (durableReplica, error) {
			r, err := NewDurableSMRReplica("r1", db, BankRegistry(), st, nil)
			if err != nil {
				return durableReplica{}, err
			}
			return durableReplica{exec: r.Executor(), restored: r.Recovered(),
				apply: func(n int64) { stepDeliver(r, depositDeliver(t, int(n-1))) },
				units: func() int64 { return int64(r.LastSlot()) + 1 },
			}, nil
		},
		record: func(t testing.TB, n int64) []byte { return slotRecord(t, int(n-1)) },
		oldRecord: func(t testing.TB, n int64) []byte {
			return gobBytes(t, oldSlotRecord{Slot: int(n - 1), Msgs: depositDeliver(t, int(n-1)).Msgs})
		},
		slot: func(n int64) int { return int(n - 1) },
	},
}

// client adapts the protocol to the recovery table shared by every
// client of store.Journal.
func (p durableProto) client() recoverytest.Client {
	return recoverytest.Client{
		Open: func(t testing.TB, st store.Stable, fresh bool) (recoverytest.Instance, error) {
			rows := 0
			if fresh {
				rows = 10 // a restart rebuilds them from the store alone
			}
			r, err := p.open(t, st, bankDB(t, p.name, rows))
			if err != nil {
				return recoverytest.Instance{}, err
			}
			if r.restored == fresh {
				t.Errorf("restored = %v opening a store with fresh = %v", r.restored, fresh)
			}
			return recoverytest.Instance{
				Apply:    func(n int) { r.apply(int64(n)) },
				Frontier: func() int { return int(r.units()) },
				State: func() string {
					return fmt.Sprintf("executed %d dedup %v %v rows %x", r.exec.Executed,
						r.exec.LastSeqs(), r.exec.RecentResults(), r.exec.DB.AppendDump(nil))
				},
				Compact: r.exec.Compact,
			}, nil
		},
		Records:     func(t testing.TB, n int) [][]byte { return [][]byte{p.record(t, int64(n))} },
		OldRecords:  func(t testing.TB, n int) [][]byte { return [][]byte{p.oldRecord(t, int64(n))} },
		OldSnapshot: func(t testing.TB, n int) []byte { return p.oldSnapshot(t, int64(n)) },
	}
}

func TestDurableReplicaRecovery(t *testing.T) {
	for _, p := range durableProtos {
		t.Run(p.name, func(t *testing.T) { recoverytest.Run(t, p.client()) })
	}
}

// restart opens a new incarnation over st with an empty database and
// checks it came back at the frontier, with the rows, of the original.
func (p durableProto) restart(t *testing.T, st store.Stable, want int64, orig *sqldb.DB) durableReplica {
	t.Helper()
	db := emptyDB(t, p.name+"-restarted")
	r, err := p.open(t, st, db)
	if err != nil {
		t.Fatal(err)
	}
	if r.units() != want || r.exec.Executed != want {
		t.Errorf("recovered to unit %d, Executed %d; want %d", r.units(), r.exec.Executed, want)
	}
	if !sqldb.Equal(orig, db) {
		t.Error("recovered database differs from the original")
	}
	return r
}

// What the shared rows leave to the executor: a record that decodes but
// is ahead of the frontier is skipped like a straggler, and a request
// answered before the crash is still a duplicate after it.
func TestRecoverySkipsOutOfOrderRecord(t *testing.T) {
	for _, p := range durableProtos {
		st := mustOpen(t, store.NewMem(), "r")
		r, err := p.open(t, st, bankDB(t, p.name+"-orig", 10))
		if err != nil {
			t.Fatal(err)
		}
		for n := int64(1); n <= 5; n++ {
			r.apply(n)
		}
		if err := st.Append(p.record(t, 9)); err != nil {
			t.Fatal(err)
		}
		r2 := p.restart(t, st, 5, r.exec.DB)
		if _, dup := r2.exec.Duplicate(durDeposit(3)); !dup {
			t.Errorf("%s: pre-crash request not recognized as duplicate after recovery", p.name)
		}
		r2.apply(6)
		if r2.units() != 6 {
			t.Errorf("%s: restarted replica stuck at unit %d after the skipped record", p.name, r2.units())
		}
	}
}

// With a database much larger than 64 units of journal, a durable
// replica compacts when the journal has grown to the snapshot's size —
// not every 64 units — so snapshot bytes written stay within the bytes
// journaled; and a fresh incarnation recovers from that snapshot plus a
// tail far longer than 64 records, inherits the tail it replayed, and
// compacts when the old incarnation would have.
func TestCompactionAmortisedAgainstSnapshotSize(t *testing.T) {
	for _, p := range durableProtos {
		t.Run(p.name, func(t *testing.T) {
			prov := store.NewMem()
			spy := &spyStable{Stable: mustOpen(t, prov, "r"), t: t, floor: DefaultSnapEvery}
			r, err := p.open(t, spy, bankDB(t, p.name+"-amort", 4000))
			if err != nil {
				t.Fatal(err)
			}
			baseline := spy.written
			// Two compactions, then a tail well past the floor.
			n := int64(0)
			for spy.snaps < 3 || spy.tailRecs < 2*DefaultSnapEvery {
				if n++; n > 20_000 {
					t.Fatalf("%d compactions after %d units", spy.snaps-1, n)
				}
				r.apply(n)
			}
			compactions, fixed := spy.snaps-1, int(n)/DefaultSnapEvery
			if compactions >= fixed/2 {
				t.Errorf("%d compactions in %d units of a %d-byte database: want a few, far fewer than the %d a fixed cadence makes",
					compactions, n, baseline, fixed)
			}
			if rewritten := spy.written - baseline; rewritten > spy.appended {
				t.Errorf("compaction wrote %d snapshot bytes for %d journaled bytes; the rule bounds it by the journal", rewritten, spy.appended)
			}

			spy2 := &spyStable{Stable: mustOpen(t, prov, "r"), t: t, floor: DefaultSnapEvery, snaps: 1, snapBytes: spy.snapBytes}
			r2 := p.restart(t, spy2, n, r.exec.DB)
			// The bound is checked in spy2.Append.
			spy2.tailRecs, spy2.tailBytes, spy2.floorBytes = spy.tailRecs, spy.tailBytes, spy.floorBytes
			for m := n + 1; spy2.snaps == 1; m++ {
				if m > 2*n {
					t.Fatal("restarted replica never compacted")
				}
				r2.apply(m)
			}
		})
	}
}
