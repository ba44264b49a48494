package core

import (
	"strings"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// leaseRig is one lease-enabled replica with a controllable clock. The
// default view names r1..r3 as replicas, so r1 is the natural holder.
type leaseRig struct {
	t   *testing.T
	r   *SMRReplica
	now time.Duration
}

const (
	testLeaseDur   = 2 * time.Second
	testLeaseStale = time.Second
)

func newLeaseRig(t *testing.T, slf msg.Loc) *leaseRig {
	t.Helper()
	r := openSMR(t, slf, bankDB(t, "lease-"+string(slf), 4), false)
	return enableTestLease(t, r, slf)
}

func enableTestLease(t *testing.T, r *SMRReplica, slf msg.Loc) *leaseRig {
	t.Helper()
	r.SetView(member.NewView(member.Config{
		Bcast:    []msg.Loc{"b1", "b2", "b3"},
		Replicas: []msg.Loc{"r1", "r2", "r3"},
	}, 3))
	rig := &leaseRig{t: t, r: r}
	r.EnableLease(LeaseConfig{
		Dur: testLeaseDur, MaxStale: testLeaseStale, Bcast: "b1",
		Now: func() time.Duration { return rig.now },
	}, BankReadRegistry())
	return rig
}

// deliver steps one ordered slot carrying the given payloads.
func (g *leaseRig) deliver(slot int, payloads ...[]byte) []msg.Directive {
	g.t.Helper()
	msgs := make([]broadcast.Bcast, len(payloads))
	for i, p := range payloads {
		msgs[i] = broadcast.Bcast{From: "x", Seq: int64(slot*10 + i), Payload: p}
	}
	_, outs := g.r.Step(msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: slot, Msgs: msgs}))
	return outs
}

// renew delivers an ordered lease renewal at the given slot.
func (g *leaseRig) renew(slot, epoch int, holder msg.Loc, issue time.Duration) {
	g.t.Helper()
	g.deliver(slot, EncodeLease(LeaseRenewal{Epoch: epoch, Holder: holder, Issue: issue, Seq: int64(slot + 1)}))
}

// read issues one local read and returns its (pooled) result. Callers
// release it after their assertions.
func (g *leaseRig) read(mode ReadMode) *ReadResult {
	g.t.Helper()
	_, outs := g.r.Step(msg.M(HdrRead, ReadRequest{
		Client: "cli", Seq: 1, Type: "balance", Args: []any{int64(1)}, Mode: mode,
	}))
	if len(outs) != 1 {
		g.t.Fatalf("read produced %d directives, want 1 reply", len(outs))
	}
	return outs[0].M.Body.(*ReadResult)
}

func (g *leaseRig) assertServed(mode ReadMode, wantBalance int64) {
	g.t.Helper()
	res := g.read(mode)
	defer ReleaseReadResult(res)
	if res.Rejected || res.Err != "" {
		g.t.Fatalf("%v read rejected=%v err=%q, want served", mode, res.Rejected, res.Err)
	}
	if len(res.Vals) != 1 || res.Vals[0] != wantBalance {
		g.t.Fatalf("%v read returned %v, want [%d]", mode, res.Vals, wantBalance)
	}
}

func (g *leaseRig) assertRejected(mode ReadMode) {
	g.t.Helper()
	res := g.read(mode)
	defer ReleaseReadResult(res)
	if !res.Rejected {
		g.t.Fatalf("%v read served (err=%q), want rejected", mode, res.Err)
	}
}

func leaseDeposit(t *testing.T, seq int64, amount int) []byte {
	t.Helper()
	pay, err := EncodeTx(TxRequest{Client: "c0", Seq: seq, Type: "deposit", Args: []any{1, amount}})
	if err != nil {
		t.Fatal(err)
	}
	return pay
}

// A replica serves lease reads only after a renewal naming it has been
// ordered and applied; before that every lease read is rejected, and a
// non-holder rejects even with the grant applied.
func TestLeaseGrantServesLocalRead(t *testing.T) {
	g := newLeaseRig(t, "r1")
	g.now = time.Second
	g.assertRejected(ReadLease)

	g.renew(0, 0, "r1", g.now)
	g.assertServed(ReadLease, 1000)

	res := g.read(ReadLease)
	if res.Slot != 0 {
		t.Errorf("served read reports slot frontier %d, want 0", res.Slot)
	}
	ReleaseReadResult(res)

	// The same grant applied at another replica does not let IT serve.
	other := newLeaseRig(t, "r2")
	other.now = time.Second
	other.renew(0, 0, "r1", other.now)
	other.assertRejected(ReadLease)
}

// A read procedure whose answer holds a value the wire codec has no
// kind for is answered with an error naming its type, not dropped when
// the reply cannot be encoded.
func TestLeaseReadRefusesUnsendableValue(t *testing.T) {
	g := newLeaseRig(t, "r1")
	g.r.readReg["balance"] = func(db *sqldb.DB, args []any, res *ReadResult) error {
		res.Vals = append(res.Vals, uint64(7))
		return nil
	}
	g.now = time.Second
	g.renew(0, 0, "r1", g.now)
	res := g.read(ReadLease)
	defer ReleaseReadResult(res)
	if !strings.Contains(res.Err, "uint64") || len(res.Vals) != 0 {
		t.Fatalf("read answered %v, err %q; want no values and an error naming uint64", res.Vals, res.Err)
	}
	if _, err := msg.AppendBody(nil, res); err != nil {
		t.Fatalf("the answer does not encode: %v", err)
	}
}

// A lease expires Dur after its carried issue time: the holder keeps
// serving inside the window and rejects the moment it closes, even
// though no new message arrived to tell it so.
func TestLeaseExpiry(t *testing.T) {
	g := newLeaseRig(t, "r1")
	g.now = time.Second
	g.renew(0, 0, "r1", g.now)

	g.now = time.Second + testLeaseDur - time.Millisecond
	g.assertServed(ReadLease, 1000)

	g.now = time.Second + testLeaseDur
	g.assertRejected(ReadLease)

	// A fresh ordered renewal re-opens the window.
	g.renew(1, 0, "r1", g.now)
	g.assertServed(ReadLease, 1000)
}

// An epoch boundary invalidates the lease structurally: once a
// membership command deposes the holder, its existing grant stops
// working and renewals carrying the stale epoch are refused by the
// ordered-apply validity check.
func TestLeaseEpochBoundary(t *testing.T) {
	g := newLeaseRig(t, "r1")
	g.now = time.Second
	g.renew(0, 0, "r1", g.now)
	g.assertServed(ReadLease, 1000)

	// Slot 1 removes r1 from the replica set: epoch 1, holder r2.
	g.deliver(1, member.EncodeCommand(member.Command{Op: member.RemoveReplica, Node: "r1"}))
	g.assertRejected(ReadLease)

	// A renewal proposed under the old epoch but ordered after the
	// boundary is refused — serving off it would be split-brain.
	g.renew(2, 0, "r1", g.now)
	g.assertRejected(ReadLease)
}

// A new holder waits out the previous holder's full lease window
// (notBefore barrier) before serving, so two holders never serve
// simultaneously even across an epoch change.
func TestLeaseHolderChangeBarrier(t *testing.T) {
	g := newLeaseRig(t, "r2")
	g.now = time.Second
	g.renew(0, 0, "r1", g.now) // r1 holds until 3s

	g.deliver(1, member.EncodeCommand(member.Command{Op: member.RemoveReplica, Node: "r1"}))
	g.now = 1500 * time.Millisecond
	g.renew(2, 1, "r2", g.now) // r2's first grant under epoch 1

	// Inside r1's window: the barrier holds.
	g.now = 2 * time.Second
	g.assertRejected(ReadLease)

	// r1's window (issue 1s + 2s) has elapsed: r2 may serve.
	g.now = 3 * time.Second
	g.assertServed(ReadLease, 1000)
}

// With leases enabled only the valid holder acknowledges writes; other
// replicas apply silently. This is what makes a local read at the
// holder linearizable.
func TestLeaseAckGating(t *testing.T) {
	holder := newLeaseRig(t, "r1")
	follower := newLeaseRig(t, "r2")
	holder.now, follower.now = time.Second, time.Second
	holder.renew(0, 0, "r1", time.Second)
	follower.renew(0, 0, "r1", time.Second)

	dep := leaseDeposit(t, 1, 5)
	if outs := holder.deliver(1, dep); len(outs) != 1 || outs[0].M.Hdr != HdrTxResult {
		t.Fatalf("holder emitted %v, want one TxResult", outs)
	}
	if outs := follower.deliver(1, dep); len(outs) != 0 {
		t.Fatalf("non-holder emitted %v, want suppressed ack", outs)
	}
	// Both applied the write; the holder's local read sees it.
	holder.assertServed(ReadLease, 1005)
}

// A write applied while no valid holder exists is acknowledged by
// nobody, and the broadcast layer dedups client retries — so the
// replica that next becomes the valid holder must re-emit the cached
// result, or the ack is lost forever. Covers the startup race (write
// ordered before the first grant) and the handover barrier (writes
// applied while the new holder waits out the old window).
func TestLeaseReackOnAcquisition(t *testing.T) {
	// Startup race: deposit ordered before any grant.
	g := newLeaseRig(t, "r1")
	g.now = time.Second
	if outs := g.deliver(0, leaseDeposit(t, 1, 5)); len(outs) != 0 {
		t.Fatalf("pre-grant deliver emitted %v, want suppressed ack", outs)
	}
	outs := g.deliver(1, EncodeLease(LeaseRenewal{Epoch: 0, Holder: "r1", Issue: g.now, Seq: 1}))
	if len(outs) != 1 || outs[0].M.Hdr != HdrTxResult {
		t.Fatalf("grant emitted %v, want one re-emitted TxResult", outs)
	}
	res := outs[0].M.Body.(TxResult)
	if res.Client != "c0" || res.Seq != 1 {
		t.Fatalf("re-ack for %s/%d, want c0/1", res.Client, res.Seq)
	}

	// Handover: r2 applies a write inside the old holder's barrier
	// window, then re-acks it once its own grant becomes valid.
	h := newLeaseRig(t, "r2")
	h.now = time.Second
	h.renew(0, 0, "r1", h.now) // r1 holds until 3s
	h.deliver(1, member.EncodeCommand(member.Command{Op: member.RemoveReplica, Node: "r1"}))
	if outs := h.deliver(2, leaseDeposit(t, 1, 5)); len(outs) != 0 {
		t.Fatalf("barrier-window deliver emitted %v, want suppressed ack", outs)
	}
	h.now = 2 * time.Second
	h.renew(3, 1, "r2", h.now) // granted, but barrier holds until 3s
	h.assertRejected(ReadLease)
	h.now = 3 * time.Second
	outs = h.deliver(4, EncodeLease(LeaseRenewal{Epoch: 1, Holder: "r2", Issue: h.now, Seq: 2}))
	if len(outs) != 1 || outs[0].M.Hdr != HdrTxResult {
		t.Fatalf("post-barrier grant emitted %v, want one re-emitted TxResult", outs)
	}
	h.assertServed(ReadLease, 1005)
}

// Follower reads serve within the staleness bound measured from the
// last applied renewal's issue time, and reject once the bound runs
// out (a partitioned follower stops receiving renewals).
func TestFollowerStalenessBound(t *testing.T) {
	g := newLeaseRig(t, "r2")
	g.now = time.Second
	g.renew(0, 0, "r1", g.now)

	g.now = time.Second + testLeaseStale - 100*time.Millisecond
	g.assertServed(ReadFollower, 1000)
	res := g.read(ReadFollower)
	if res.Issue != int64(time.Second) {
		t.Errorf("follower read stamped issue %d, want %d", res.Issue, int64(time.Second))
	}
	ReleaseReadResult(res)

	g.now = time.Second + testLeaseStale + time.Millisecond
	g.assertRejected(ReadFollower)

	// Lease-mode reads at a follower are always rejected.
	g.now = time.Second
	g.assertRejected(ReadLease)
}

// Lease state is volatile: a holder rebuilt over its journal (the
// fault.Rolling restart shape — crash, recover from stable storage,
// rejoin) replays its journaled grants into nothing and must not
// resume serving until a fresh renewal is ordered and applied under
// the current epoch.
func TestLeaseAcrossRestart(t *testing.T) {
	prov := store.NewMem()
	db := bankDB(t, "lease-restart", 4)
	r1, err := NewDurableSMRReplica("r1", db, BankRegistry(), mustOpen(t, prov, "r1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := enableTestLease(t, r1, "r1")
	g.now = time.Second
	g.renew(0, 0, "r1", g.now)
	g.deliver(1, leaseDeposit(t, 1, 5))
	g.assertServed(ReadLease, 1005)

	// Crash: rebuild from the journal. The journaled renewal at slot 0
	// replays before EnableLease runs, so it is dropped — recovered
	// state includes the deposit but no lease.
	db2 := emptyDB(t, "lease-restart-2")
	r1b, err := NewDurableSMRReplica("r1", db2, BankRegistry(), mustOpen(t, prov, "r1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	g2 := enableTestLease(t, r1b, "r1")
	g2.now = time.Second + 100*time.Millisecond
	g2.assertRejected(ReadLease)

	// Only a fresh ordered renewal under the current epoch re-opens
	// local serving.
	g2.renew(2, 0, "r1", g2.now)
	g2.assertServed(ReadLease, 1005)
}
