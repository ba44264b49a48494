package core

import (
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/netutil"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// SMR durability: the replicated executor's journal (durability.go)
// with the slot as the ordered unit — the Deliver body that carried it,
// journaled before it executes. After a crash a new incarnation over
// the same store recovers locally and asks a peer only for the slots
// ordered during its downtime; the peer serves them from its own
// journal, or falls back to a full state transfer when compaction has
// discarded the range. A replica built without a store journals into a
// private one, so it serves its peers the same way; only at boot does
// it differ, having nothing of its own to ask about.

// slotOf reads an SMR journal record's slot.
func slotOf(rec []byte) (int64, bool) {
	d, err := msg.DecodeBody[broadcast.Deliver](rec)
	return int64(d.Slot), err == nil
}

// NewDurableSMRReplica is OpenSMRReplica over st with peers. It stays
// until benchmark/ may be edited (ROADMAP item 1(b)).
func NewDurableSMRReplica(slf msg.Loc, db *sqldb.DB, reg Registry, st store.Stable, peers []msg.Loc) (*SMRReplica, error) {
	return OpenSMRReplica(SMRConfig{Self: slf, DB: db, Registry: reg, Store: st, Peers: peers})
}

// replaySlot re-executes a journaled slot when it is the next one; a
// pre-snapshot straggler or a duplicate is skipped. Nothing is listening
// yet, so the replies (already sent by the pre-crash incarnation) are
// discarded.
func (r *SMRReplica) replaySlot(rec []byte) error {
	d, err := msg.DecodeBody[broadcast.Deliver](rec)
	if err == nil && d.Slot == r.lastSlot+1 {
		r.lastSlot = d.Slot
		_ = r.applyBatch(d)
	}
	return err
}

// Recovered reports whether the replica restored state from its store
// (false when the store was fresh).
func (r *SMRReplica) Recovered() bool { return r.recoveredLocal }

// LastSlot returns the highest contiguously applied slot.
func (r *SMRReplica) LastSlot() int { return r.lastSlot }

// recoveryBackoff is how long after the boot-time catch-up request a
// restarted replica asks again (a flat 2s schedule expressed as the
// shared netutil policy). The first round can be lost without an error
// on either side (peers may still hold connections to the dead
// incarnation); peers answer idempotently and already-applied slots
// are skipped, so the duplicate is free on the happy path.
var recoveryBackoff = netutil.Backoff{Base: 2 * time.Second, Cap: 2 * time.Second}

// RecoveryDirectives returns the messages a restarted replica sends to
// fetch the slots ordered during its downtime. The host injects them
// once the replica is back on the network (the replica itself is
// constructed outside any message flow). Each request is issued twice —
// immediately and after one recoveryBackoff interval — so a lost first
// round cannot strand the replica behind until the next live delivery.
func (r *SMRReplica) RecoveryDirectives() []msg.Directive {
	if r.volatile {
		return nil
	}
	outs := r.requestCatchup()
	for _, o := range r.requestCatchup() {
		o.Delay = recoveryBackoff.Delay(0, 0)
		outs = append(outs, o)
	}
	return outs
}

// BootDirectives is what the replica emits once at start: its lease
// tick and, unless it is a fresh joiner (it waits for the bootstrap
// push), the request for anything ordered while it was down.
func (r *SMRReplica) BootDirectives() []msg.Directive {
	boot := r.LeaseDirectives()
	if r.active {
		boot = append(boot, r.RecoveryDirectives()...)
	}
	return boot
}

// SetGroupCommit coalesces the journal fsyncs of the slots a replica has
// in hand: client acks are parked until a covering Sync, which runs when
// the inbox has drained (the HdrSyncTick self-send, see groupCommit) or
// inline once every ack-bearing slots share the window. The write-ahead
// contract is preserved exactly — an acknowledged transaction is always
// covered by an fsync — while a backlog of slots costs one fsync instead
// of one per slot. Catch-up traffic and snapshot pushes are not promises
// of durability and pass immediately.
//
// The second argument is ignored: there is no group-commit delay any
// more. It stays until benchmark/ may be edited (ROADMAP item 1(b)).
func (r *SMRReplica) SetGroupCommit(every int, _ time.Duration) {
	r.gcEvery = max(every, 1)
}

// applySlot executes the next slot, journaled write-ahead as rec, and
// compacts when due. quiet drops the client replies — used for catch-up
// application, where the transactions were already answered by live
// replicas.
func (r *SMRReplica) applySlot(d broadcast.Deliver, rec []byte, quiet bool) []msg.Directive {
	must(r.exec.st.Append(rec))
	mSMRAppends.Inc()
	r.lastSlot = d.Slot
	outs := r.applyBatch(d)
	if quiet {
		var dropped []msg.Directive
		outs, dropped = takeAcks(outs, nil)
		if r.lease != nil && len(dropped) > 0 {
			// Quiet catch-up swallowed client replies; the re-ack path
			// must still cover them once this replica holds a valid
			// lease (they may include writes nobody else acknowledged).
			r.ackGap = true
		}
	}
	snapped := r.exec.compactIfDue()
	if r.gcEvery > 1 {
		outs = r.groupCommit(outs, snapped)
	}
	return outs
}

// groupCommit parks the client acks of a freshly journaled slot until
// a covering fsync. snapped means a snapshot was just saved — its own
// fsync already covers everything, so parked acks release for free.
// Only ack-bearing slots demand a covering sync at all: a slot whose
// apply produced no client replies (lease renewals, suppressed acks,
// quiet catch-up) promises nothing, so its journal append simply rides
// until the next ack-bearing window — Sync flushes the whole appended
// tail, so the deferred slots are covered by that later fsync.
//
// The window waits for work, not for a clock: its first ack-bearing slot
// sends the replica a zero-delay HdrSyncTick. Every inbox is FIFO, so
// the tick queues behind the deliveries already received; they are
// journaled and applied first and the tick's one Sync covers them all.
// An idle replica's window is one slot and no wait. Arming on 0 → 1
// (not on a remembered "tick in flight") means a tick the transport
// dropped strands nothing past the next window.
func (r *SMRReplica) groupCommit(outs []msg.Directive, snapped bool) []msg.Directive {
	parked0 := len(r.parked)
	outs, r.parked = takeAcks(outs, r.parked)
	if snapped {
		r.unsyncedSlots = 0
		if len(r.parked) > 0 {
			return append(outs, r.releaseParked(true)...)
		}
		return outs
	}
	if len(r.parked) == parked0 {
		return outs // ack-free slot: nothing promised, no sync owed
	}
	r.unsyncedSlots++
	if r.unsyncedSlots >= r.gcEvery {
		return append(outs, r.releaseParked(false)...)
	}
	if r.unsyncedSlots == 1 {
		outs = append(outs, msg.Send(r.slf, msg.M(HdrSyncTick, nil)))
	}
	return outs
}

// releaseParked runs the covering fsync (unless one is already implied
// by a snapshot save) and returns the parked acks.
func (r *SMRReplica) releaseParked(covered bool) []msg.Directive {
	if !covered {
		must(r.exec.st.Sync())
	}
	mGroupSyncs.Inc()
	r.unsyncedSlots = 0
	outs := r.parked
	r.parked = nil
	return outs
}

// onSyncTick closes the group-commit window: whatever acks are parked
// when it arrives are released under one covering fsync. Nothing parked
// (the count or a snapshot's fsync released them first) means nothing is
// owed.
func (r *SMRReplica) onSyncTick() []msg.Directive {
	if len(r.parked) == 0 {
		return nil
	}
	return r.releaseParked(false)
}

// drainParked applies the parked deliveries contiguous with the slot
// frontier.
func (r *SMRReplica) drainParked() []msg.Directive {
	var outs []msg.Directive
	for {
		d, ok := r.park.next(int64(r.lastSlot))
		if !ok {
			return outs
		}
		r.gap = 0
		outs = append(outs, r.applySlot(d, r.exec.encodeRecord(d), false)...)
	}
}

// requestCatchup asks every peer for the slots after the local
// frontier. Peers answer idempotently, so overlapping replies are safe.
func (r *SMRReplica) requestCatchup() []msg.Directive {
	var outs []msg.Directive
	for _, p := range r.peers {
		outs = append(outs, msg.Send(p, msg.M(HdrCatchupReq, CatchupReq{From: r.slf, After: int64(r.lastSlot)})))
	}
	return outs
}

// onCatchupReq serves a peer's delta request from the local journal,
// or pushes a full state transfer when the journal cannot.
func (r *SMRReplica) onCatchupReq(q CatchupReq) []msg.Directive {
	if !r.active || q.From == r.slf {
		return nil
	}
	if outs, ok := r.exec.serveCatchup(q.From, 0, q.After, slotOf); ok {
		return outs
	}
	// Under dynamic membership only the deterministic proposer pushes
	// it — the requester asks every peer, and concurrent transfers would
	// interleave their batches at the receiver. The other peers stay
	// silent; the requester's delayed retry covers a lost push.
	if r.view != nil && r.slf != member.Proposer(r.view.Current(), q.From) {
		return nil
	}
	return r.transferTo(q.From)
}

// onCatchup applies a peer's journal records: the next slot is
// journaled verbatim and executed (quietly — the live replicas already
// answered these clients), a later one is parked, and a record that
// does not decode ends the run.
func (r *SMRReplica) onCatchup(c Catchup) []msg.Directive {
	if !r.active {
		return nil
	}
	var outs []msg.Directive
	for _, rec := range c.Records { // in slot order, as journaled
		d, err := msg.DecodeBody[broadcast.Deliver](rec)
		if err != nil {
			break
		}
		if d.Slot == r.lastSlot+1 {
			outs = append(outs, r.applySlot(d, rec, true)...)
		} else if d.Slot > r.lastSlot {
			r.park[int64(d.Slot)] = d
		}
	}
	return append(outs, r.drainParked()...)
}

// takeAcks moves the client replies out of a directive list (filtered
// in place) onto the end of acks.
func takeAcks(outs, acks []msg.Directive) (rest, taken []msg.Directive) {
	rest = outs[:0]
	for _, o := range outs {
		if o.M.Hdr == HdrTxResult {
			acks = append(acks, o)
		} else {
			rest = append(rest, o)
		}
	}
	return rest, acks
}
