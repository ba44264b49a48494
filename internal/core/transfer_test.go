package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// A state transfer sends the snapshot a compaction writes, cut into
// SnapParts. These tests pin its receive side against a network that
// duplicates, reorders and drops parts, and against hostile parts.

// padRows adds a table of wide rows, so a transfer's image spans
// several parts of catchupChunk.
func padRows(t testing.TB, db *sqldb.DB) {
	t.Helper()
	if _, err := db.Exec("CREATE TABLE pad (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	v := strings.Repeat("x", 64<<10)
	for k := 0; k < 40; k++ {
		if _, err := db.Exec("INSERT INTO pad (k, v) VALUES (?, ?)", k, v); err != nil {
			t.Fatal(err)
		}
	}
}

// ledgerExt stands in for a shard replica's 2PC ledger: extension state
// that only a snapshot carries.
type ledgerExt struct{ state []byte }

func (x *ledgerExt) Bind(msg.Loc, *Executor) map[byte]OrderedHandler { return nil }
func (x *ledgerExt) Snapshot() []byte                                { return x.state }
func (x *ledgerExt) Restore(b []byte) error {
	x.state = b
	return nil
}

// xferReceiver is one refinement's receiving replica over a store.
type xferReceiver struct {
	exec *Executor
	step func(msg.Msg)
	// installed reports whether a transfer has been installed.
	installed func() bool
	// restart opens a new incarnation over the same store.
	restart func() *Executor
}

// xferCase is a sender whose state moved between two transfers to the
// same receiver, old (numbered lower) and new, and the receiver's kind.
type xferCase struct {
	name     string
	old, new []msg.Directive
	// want is the sender's header and image when it sent new.
	want    snapHeader
	wantImg []byte
	open    func(t *testing.T) xferReceiver
}

func pbrXferCase(t *testing.T) xferCase {
	sender := NewExecutor(bankDB(t, "xfer-pbr-r1", 10), BankRegistry())
	padRows(t, sender.DB)
	apply := func(from, to int64) {
		for seq := from; seq <= to; seq++ {
			if _, err := sender.Apply(seq, durDeposit(seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(1, 3)
	old, _ := sender.SnapshotDirectives("r2", 0, 1)
	apply(4, 7)
	xfer, _ := sender.SnapshotDirectives("r2", 0, 2)
	return xferCase{name: "pbr", old: old, new: xfer, want: sender.header(), wantImg: sender.DB.AppendDump(nil),
		open: func(t *testing.T) xferReceiver {
			prov := store.NewMem()
			open := func(db *sqldb.DB) *PBRReplica {
				r, _, err := NewDurablePBRReplica("r2", db, BankRegistry(), testDeployment(), mustOpen(t, prov, "r2"), 0)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			r := open(bankDB(t, "xfer-pbr-r2", 10))
			return xferReceiver{exec: r.exec, step: func(m msg.Msg) { r.Step(m) },
				installed: func() bool { return r.exec.Executed > 0 },
				restart:   func() *Executor { return open(emptyDB(t, "xfer-pbr-r2b")).exec },
			}
		}}
}

// smrXferCase sends from an SMR replica. With lease on, the replicas
// run a view and a lease, and the old transfer is the bootstrap push an
// ordered AddReplica makes the proposer send; with ext, they run a
// ledgerExt and no view.
func smrXferCase(t *testing.T, name string, lease bool) xferCase {
	initial := member.Config{Bcast: []msg.Loc{"b1"}, Replicas: []msg.Loc{"r1", "r3"}}
	attach := func(r *SMRReplica) {
		if lease {
			r.SetView(member.NewView(initial, 3))
			r.EnableLease(LeaseConfig{Dur: testLeaseDur, MaxStale: testLeaseStale, Bcast: "b1",
				Now: func() time.Duration { return 0 }}, BankReadRegistry())
		}
	}
	cfg := func(slf msg.Loc, db *sqldb.DB, st store.Stable, joiner bool) SMRConfig {
		c := SMRConfig{Self: slf, DB: db, Registry: BankRegistry(), Store: st, Joiner: joiner}
		if !lease {
			c.Ext = &ledgerExt{}
		}
		return c
	}
	db1 := bankDB(t, "xfer-"+name+"-r1", 10)
	padRows(t, db1)
	sender, err := OpenSMRReplica(cfg("r1", db1, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	attach(sender)
	for s := 0; s < 3; s++ {
		stepDeliver(sender, depositDeliver(t, s))
	}
	var old []msg.Directive
	if lease {
		old = stepDeliver(sender, broadcast.Deliver{Slot: 3, Msgs: []broadcast.Bcast{{From: "admin", Seq: 1,
			Payload: member.EncodeCommand(member.Command{Op: member.AddReplica, Node: "r2"})}}})
	} else {
		sender.ext.(*ledgerExt).state = []byte("ledger through slot 2")
		stepDeliver(sender, depositDeliver(t, 3))
		old = sender.transferTo("r2")
	}
	for s := 4; s < 7; s++ {
		stepDeliver(sender, depositDeliver(t, s))
	}
	if !lease {
		sender.ext.(*ledgerExt).state = []byte("ledger through slot 6")
	}
	return xferCase{name: name, old: old, new: sender.transferTo("r2"), want: sender.exec.header(), wantImg: db1.AppendDump(nil),
		open: func(t *testing.T) xferReceiver {
			prov := store.NewMem()
			open := func(db *sqldb.DB) *SMRReplica {
				r, err := OpenSMRReplica(cfg("r2", db, mustOpen(t, prov, "r2"), true))
				if err != nil {
					t.Fatal(err)
				}
				attach(r)
				return r
			}
			r := open(emptyDB(t, "xfer-"+name+"-r2"))
			return xferReceiver{exec: r.exec, step: func(m msg.Msg) { r.Step(m) },
				installed: r.Active,
				restart:   func() *Executor { return open(emptyDB(t, "xfer-"+name+"-r2b")).exec },
			}
		}}
}

// TestStateTransfer delivers a transfer to PBR, to SMR with a view and
// a lease, and to SMR with extension state, as the network may: parts
// duplicated, reordered, one dropped and then re-sent, mixed with
// stragglers of a superseded transfer, or followed by a stale one.
// Afterwards the receiver holds exactly the sender's header and image,
// and so does a restart over its store.
func TestStateTransfer(t *testing.T) {
	for _, c := range []xferCase{pbrXferCase(t), smrXferCase(t, "smr-view-lease", true), smrXferCase(t, "smr-ext", false)} {
		if len(c.new) < 3 || len(c.old) != len(c.new) {
			t.Fatalf("%s: transfers of %d and %d parts, want the header and at least two image parts each", c.name, len(c.old), len(c.new))
		}
		if _, img, err := splitSnapshot(c.new[0].M.Body.(SnapPart).Bytes); err != nil || len(img) != 0 {
			t.Fatalf("%s: part 0 is not exactly the header (%v, %d image bytes)", c.name, err, len(img))
		}
		for _, v := range []struct {
			name    string
			deliver func(t *testing.T, r xferReceiver)
		}{
			{"duplicated", func(t *testing.T, r xferReceiver) {
				for _, o := range c.new {
					r.step(o.M)
					r.step(o.M)
				}
			}},
			{"reordered", func(t *testing.T, r xferReceiver) {
				for i := len(c.new) - 1; i >= 0; i-- {
					r.step(c.new[i].M)
				}
			}},
			{"dropped then re-sent", func(t *testing.T, r xferReceiver) {
				for i, o := range c.new {
					if i != 1 {
						r.step(o.M)
					}
				}
				if r.installed() {
					t.Fatal("installed with a part missing")
				}
				r.step(c.new[1].M)
			}},
			{"superseded", func(t *testing.T, r xferReceiver) {
				r.step(c.old[0].M)
				for i, o := range c.new {
					r.step(o.M)
					r.step(c.old[i].M) // straggler of the superseded transfer
				}
			}},
			{"stale", func(t *testing.T, r xferReceiver) {
				for _, o := range c.new {
					r.step(o.M)
				}
				for _, o := range c.old {
					r.step(o.M)
				}
			}},
		} {
			t.Run(c.name+"/"+v.name, func(t *testing.T) {
				r := c.open(t)
				v.deliver(t, r)
				if !r.installed() {
					t.Fatal("transfer not installed")
				}
				for _, e := range []struct {
					what string
					exec *Executor
				}{{"receiver", r.exec}, {"restart", r.restart()}} {
					if h := e.exec.header(); !reflect.DeepEqual(h, c.want) {
						t.Errorf("%s header %+v, want the sender's %+v", e.what, h, c.want)
					}
					if !reflect.DeepEqual(e.exec.DB.AppendDump(nil), c.wantImg) {
						t.Errorf("%s image differs from the sender's", e.what)
					}
				}
			})
		}
	}
}

// parts cuts snap into the parts of transfer xfer, as a sender would.
func parts(t *testing.T, h snapHeader, db *sqldb.DB, xfer int64) []msg.Msg {
	t.Helper()
	e := NewExecutor(db, BankRegistry())
	e.frontier = func(hh *snapHeader) { *hh = h }
	outs, _ := e.SnapshotDirectives("r2", 0, xfer)
	var ms []msg.Msg
	for _, o := range outs {
		ms = append(ms, o.M)
	}
	return ms
}

// An active SMR replica drops a transfer at or below its frontier — the
// answer to a catch-up request it has since outrun through live
// deliveries — whatever the transfer's number.
func TestSMRDropsOutrunTransfer(t *testing.T) {
	r := openSMR(t, "r2", bankDB(t, "outrun-r2", 10), false)
	for s := 0; s < 6; s++ {
		stepDeliver(r, depositDeliver(t, s))
	}
	before := r.exec.DB.AppendDump(nil)
	for i, slot := range []int{2, 5} {
		for _, m := range parts(t, snapHeader{Slot: slot, Executed: int64(slot + 1)}, bankDB(t, fmt.Sprint("outrun-r1-", slot), 3), int64(100+i)) {
			r.Step(m)
		}
		if r.LastSlot() != 5 || r.exec.Executed != 6 || !bytes.Equal(r.exec.DB.AppendDump(nil), before) {
			t.Fatalf("a transfer of slot %d rolled a replica at slot 5 back to slot %d, executed %d", slot, r.LastSlot(), r.exec.Executed)
		}
	}
}

// A stopped PBR backup counts heartbeats without transfer traffic
// before it forces a resync; any part of its configuration's transfer
// it takes is traffic, a part of another configuration is not.
func TestPBRPartResetsStuckTicks(t *testing.T) {
	r := NewPBRReplica("r2", bankDB(t, "stuck-r2", 4), BankRegistry(), testDeployment())
	xfer := parts(t, snapHeader{Slot: 3, Executed: 3}, bankDB(t, "stuck-r1", 4), 1)
	r.stuckTicks = 3
	other := xfer[0].Body.(SnapPart)
	other.CfgSeq = 1
	r.Step(msg.M(HdrSnapPart, other))
	if r.stuckTicks != 3 {
		t.Fatalf("a part of another configuration reset stuckTicks to %d", r.stuckTicks)
	}
	r.Step(xfer[0])
	if r.stuckTicks != 0 {
		t.Fatalf("a part taken left stuckTicks at %d", r.stuckTicks)
	}
}

// A header whose dedup horizon or results carry a negative Seq — one no
// replica records — installs without indexing the dedup ring with it.
func TestTransferDropsNegativeSeqs(t *testing.T) {
	r := openSMR(t, "r2", emptyDB(t, "negseq-r2"), true)
	h := snapHeader{Slot: 4, Executed: 5, LastSeq: map[string]int64{"c1": -3, "c2": 2},
		Recent: []TxResult{{Client: "c1", Seq: -3}, {Client: "c2", Seq: 2}}}
	for _, m := range parts(t, h, bankDB(t, "negseq-r1", 3), 1) {
		r.Step(m)
	}
	if !r.Active() {
		t.Fatal("transfer not installed")
	}
	if got := r.exec.header(); !reflect.DeepEqual(got.LastSeq, map[string]int64{"c2": 2}) || len(got.Recent) != 1 {
		t.Errorf("installed dedup horizon %v and results %v, want c2's alone", got.LastSeq, got.Recent)
	}
}

// transferSample returns a real transfer's parts for each refinement —
// a PBR primary's executor and an SMR replica, 40 orders or slots past
// their baseline — that hostileParts derives its parts from.
func transferSample(t testing.TB) map[string][][]byte {
	sampleOnce.Do(func() {
		parts := func(outs []msg.Directive) [][]byte {
			var b [][]byte
			for _, o := range outs {
				b = append(b, o.M.Body.(SnapPart).Bytes)
			}
			return b
		}
		pbr := NewExecutor(bankDB(t, "sample-pbr", 4), BankRegistry())
		for seq := int64(1); seq <= 40; seq++ {
			if _, err := pbr.Apply(seq, durDeposit(seq)); err != nil {
				t.Fatal(err)
			}
		}
		p, _ := pbr.SnapshotDirectives("p2", 0, 1)
		smr := openSMR(t, "r2", bankDB(t, "sample-smr", 4), false)
		for s := 0; s < 40; s++ {
			stepDeliver(smr, depositDeliver(t, s))
		}
		sample = map[string][][]byte{"pbr": parts(p), "smr": parts(smr.transferTo("r1"))}
	})
	return sample
}

var (
	sampleOnce sync.Once
	sample     map[string][][]byte
)

// hostileParts derives state-transfer parts from b, four bytes a part:
// a genuine part of kind's sample transfer, numbered 1 or 2 by b[2], at
// index b[1]; or, by b[3], a header part with a bad magic, a header
// part cut short, a part numbered past its Of, the last part of an Of
// that differs from its transfer's, or one claiming an enormous Of.
func hostileParts(t testing.TB, kind string, b []byte) []SnapPart {
	genuine := transferSample(t)[kind]
	of := len(genuine)
	var parts []SnapPart
	for ; len(b) >= 4; b = b[4:] {
		p := SnapPart{Xfer: int64(b[2]%2 + 1), N: int(b[1]) % of, Of: of}
		p.Bytes = genuine[p.N]
		switch b[3] % 6 {
		case 0:
			p.N, p.Bytes = 0, append([]byte("SNP9"), genuine[0][4:]...)
		case 1:
			p.N, p.Bytes = 0, genuine[0][:int(b[3])%len(genuine[0])]
		case 2:
			p.N = of + int(b[1]%3)
		case 3:
			p.Of = of + 1 + int(b[1]%3)
			p.N = p.Of - 1
		case 4:
			p.Of = math.MaxInt
		}
		parts = append(parts, p)
	}
	return parts
}

// stepParts steps a replica, already handed the hostile catch-up
// catchup, with hostile parts: it must not panic, and it ends with its
// database as it was — every transfer refused or incomplete — or holding
// the sample's image, or holding that image followed by the catch-up's
// units strictly above the image's frontier, which a replica applies
// from a peer's records as from any other. The last is what fresh, a
// replica of the same kind that has applied nothing, makes of the
// sample transfer and then the same catch-up; a replica that applied a
// unit it parked at or below the installed frontier differs from it.
func stepParts(t *testing.T, kind string, b []byte, e *Executor, step func(msg.Msg), fresh func() (*Executor, func(msg.Msg)), catchup msg.Msg) {
	t.Helper()
	before := e.DB.AppendDump(nil)
	for _, p := range hostileParts(t, kind, b) {
		step(msg.M(HdrSnapPart, p))
	}
	after := e.DB.AppendDump(nil)
	genuine := transferSample(t)[kind]
	if bytes.Equal(after, before) || bytes.Equal(after, bytes.Join(genuine[1:], nil)) {
		return
	}
	ref, refStep := fresh()
	for n, part := range genuine {
		refStep(msg.M(HdrSnapPart, SnapPart{Xfer: 1, N: n, Of: len(genuine), Bytes: part}))
	}
	refStep(catchup)
	if !bytes.Equal(after, ref.DB.AppendDump(nil)) {
		t.Errorf("%s: hostile parts left a database that is neither the old one, nor the transferred one, nor that one followed by the catch-up's units above its frontier", kind)
	}
}

// BenchmarkStateTransfer times both sides of a state transfer of a
// 50 000-account bank database: the sender cutting its snapshot into
// parts, and a joining SMR replica assembling and installing them.
func BenchmarkStateTransfer(b *testing.B) {
	sender := NewExecutor(bankDB(b, "bench-xfer", 50_000), BankRegistry())
	b.Run("send", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sender.SnapshotDirectives("r2", 0, int64(i+1))
		}
	})
	parts, _ := sender.SnapshotDirectives("r2", 0, 1)
	b.Run("receive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r := openSMR(b, "r2", emptyDB(b, "bench-xfer-r2"), true)
			b.StartTimer()
			for _, o := range parts {
				r.Step(o.M)
			}
			if !r.Active() {
				b.Fatal("transfer not installed")
			}
		}
	})
}
