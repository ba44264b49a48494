package core

import (
	"fmt"
	"sort"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/netutil"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// SMR durability. A durable SMR replica journals every delivered slot
// (the decided batch, verbatim) before executing it, and compacts the
// journal into a full database snapshot whenever the journal has
// outgrown it (store.Journal's rule, at least smrSnapEvery slots). After
// a crash, a new incarnation over the same store recovers by restoring
// the snapshot and deterministically re-executing the journal tail —
// then asks a peer only for the slots ordered during its downtime
// (SMRCatchupReq/SMRCatchup), instead of pulling the whole database
// over the network. The peer serves the delta from its own journal, or
// falls back to a full state transfer when compaction has discarded the
// requested range.

// walDeliver journals one delivered slot.
type walDeliver struct {
	Slot int
	Msgs []broadcast.Bcast
}

// smrSnapshot is the header of the compacted journal (the database
// image follows it, see encodeSnapshot): the slot frontier the image
// reflects, the executor's dedup horizon and recent results, and the
// membership epoch schedule in force at the frontier. The schedule must
// be here: a membership command compacted into the snapshot is never
// replayed, so without it a restarted replica would recover the rows of
// epoch N while believing itself in epoch 0 — and, with leases on,
// grant renewals from a deposed holder that every live replica refuses.
type smrSnapshot struct {
	Slot     int
	Executed int64
	LastSeq  map[string]int64
	Recent   []TxResult
	Epochs   []member.Config
	Joined   map[msg.Loc]int
}

// smrSnapEvery is the floor of the compaction rule (store.Journal): the
// fewest journaled slots between two compactions.
const smrSnapEvery = 64

// NewDurableSMRReplica creates an SMR replica that journals to st and
// recovers any durable state the store already holds. peers are the
// other replicas of the group (catch-up targets). When the store is
// fresh, the database must already hold the initial schema and
// population: the baseline snapshot written here is the only durable
// copy of rows that never travel through the broadcast.
func NewDurableSMRReplica(slf msg.Loc, db *sqldb.DB, reg Registry, st store.Stable, peers []msg.Loc) (*SMRReplica, error) {
	r := NewSMRReplica(slf, db, reg)
	r.stable = store.NewJournal(st, smrSnapEvery)
	r.snapSlot = -1
	r.pending = make(map[int]broadcast.Deliver)
	for _, p := range peers {
		if p != slf {
			r.peers = append(r.peers, p)
		}
	}
	restored, err := r.recoverLocal()
	if err != nil {
		return nil, err
	}
	if !restored {
		if err := r.saveSMRSnapshot(); err != nil {
			return nil, fmt.Errorf("core: seed baseline snapshot: %w", err)
		}
	}
	return r, nil
}

// NewJoiningDurableSMRReplica creates a durable replica that joins an
// existing group: it stays inactive — parking deliveries by slot —
// until the ordered add-replica command makes the configured proposer
// push a bootstrap snapshot (onSnapEnd installs it, persists it as the
// journal baseline, and drains the parked tail). The database starts
// empty: schema and rows arrive with the transfer. A restarted joiner
// that already bootstrapped once recovers like an established durable
// replica.
func NewJoiningDurableSMRReplica(slf msg.Loc, db *sqldb.DB, reg Registry, st store.Stable, peers []msg.Loc) (*SMRReplica, error) {
	r := NewSMRReplica(slf, db, reg)
	r.active = false
	r.stable = store.NewJournal(st, smrSnapEvery)
	r.snapSlot = -1
	r.pending = make(map[int]broadcast.Deliver)
	for _, p := range peers {
		if p != slf {
			r.peers = append(r.peers, p)
		}
	}
	restored, err := r.recoverLocal()
	if err != nil {
		return nil, err
	}
	if restored {
		// The previous incarnation finished (or at least began) its
		// bootstrap: resume as an established durable replica.
		r.active = true
	}
	// No baseline snapshot of the empty database: the bootstrap transfer
	// provides the first durable baseline.
	return r, nil
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
	if r.stable == nil {
		return nil
	}
	outs := r.requestCatchup()
	for _, o := range r.requestCatchup() {
		o.Delay = recoveryBackoff.Delay(0, 0)
		outs = append(outs, o)
	}
	return outs
}

// recoverLocal rebuilds state from the store: snapshot, then journal.
func (r *SMRReplica) recoverLocal() (bool, error) {
	restored := false
	if b, ok, err := r.stable.Snapshot(); err != nil {
		return false, err
	} else if ok {
		var snap smrSnapshot
		if err := restoreSnapshot(b, &snap, r.exec.DB); err != nil {
			return false, fmt.Errorf("core: smr snapshot: %w", err)
		}
		r.exec.InstallSnapshot(snap.Executed)
		for c, s := range snap.LastSeq {
			r.exec.SetLastSeq(c, s)
		}
		r.exec.AdoptRecent(snap.Recent)
		// The epoch schedule folds into the view at SetView time — the
		// view is attached after construction, and recovery runs inside
		// the constructor.
		r.recEpochs, r.recJoined = snap.Epochs, snap.Joined
		r.lastSlot = snap.Slot
		r.snapSlot = snap.Slot
		restored = true
	}
	err := r.stable.Replay(func(rec []byte) error {
		var w walDeliver
		if gobDec(rec, &w) != nil {
			return nil // skip an undecodable record, keep the rest
		}
		if w.Slot != r.lastSlot+1 {
			return nil // pre-snapshot straggler or duplicate
		}
		r.lastSlot = w.Slot
		// Re-execute; nothing is listening yet, so the replies (already
		// sent by the pre-crash incarnation) are discarded.
		_ = r.applyBatch(broadcast.Deliver{Slot: w.Slot, Msgs: w.Msgs})
		restored = true
		return nil
	})
	r.recoveredLocal = restored
	if restored {
		lg.WithNode(r.slf).Infof("smr local recovery: snapshot slot %d, replayed to slot %d", r.snapSlot, r.lastSlot)
	}
	return restored, err
}

// durableDeliver handles a live delivery on the durable path. A gap —
// slots the replica missed while down — parks the delivery and asks a
// peer for the missing range; contiguous slots are journaled
// write-ahead of execution.
func (r *SMRReplica) durableDeliver(d broadcast.Deliver) []msg.Directive {
	if d.Slot > r.lastSlot+1 {
		r.pending[d.Slot] = d
		lg.WithNode(r.slf).Infof("smr gap: got slot %d with frontier %d, requesting catch-up", d.Slot, r.lastSlot)
		return r.requestCatchup()
	}
	outs := r.journalAndApply(d, false)
	return append(outs, r.drainPending()...)
}

// SetGroupCommit coalesces the journal fsyncs of up to every slots:
// client acks are parked until a covering Sync, released when the
// window fills or after delay at the latest (the HdrSyncTick timer).
// The write-ahead contract is preserved exactly — an acknowledged
// transaction is always covered by an fsync — while a full pipeline
// window costs one fsync instead of one per slot. Catch-up traffic and
// snapshot pushes are not promises of durability and pass immediately.
func (r *SMRReplica) SetGroupCommit(every int, delay time.Duration) {
	if every < 1 {
		every = 1
	}
	if delay <= 0 {
		delay = 2 * time.Millisecond
	}
	r.gcEvery, r.gcDelay = every, delay
}

// journalAndApply persists the slot, executes it, and compacts when
// due. quiet drops the client replies — used for catch-up application,
// where the transactions were already answered by live replicas.
func (r *SMRReplica) journalAndApply(d broadcast.Deliver, quiet bool) []msg.Directive {
	if err := r.stable.Append(gobEnc(walDeliver{Slot: d.Slot, Msgs: d.Msgs})); err != nil {
		panic(fmt.Sprintf("core: smr journal: %v", err))
	}
	mSMRAppends.Inc()
	r.lastSlot = d.Slot
	outs := r.applyBatch(d)
	if quiet {
		trimmed := dropTxResults(outs)
		if r.lease != nil && len(trimmed) < len(outs) {
			// Quiet catch-up swallowed client replies; the re-ack path
			// must still cover them once this replica holds a valid
			// lease (they may include writes nobody else acknowledged).
			r.ackGap = true
		}
		outs = trimmed
	}
	snapped := false
	if r.stable.Due() {
		if err := r.saveSMRSnapshot(); err != nil {
			panic(fmt.Sprintf("core: smr snapshot: %v", err))
		}
		snapped = true
	}
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
func (r *SMRReplica) groupCommit(outs []msg.Directive, snapped bool) []msg.Directive {
	kept := outs[:0]
	parked0 := len(r.parked)
	for _, o := range outs {
		if o.M.Hdr == HdrTxResult {
			r.parked = append(r.parked, o)
		} else {
			kept = append(kept, o)
		}
	}
	outs = kept
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
	if !r.syncTimer {
		r.syncTimer = true
		outs = append(outs, msg.SendAfter(r.gcDelay, r.slf, msg.M(HdrSyncTick, SyncTick{})))
	}
	return outs
}

// releaseParked runs the covering fsync (unless one is already implied
// by a snapshot save) and returns the parked acks.
func (r *SMRReplica) releaseParked(covered bool) []msg.Directive {
	if !covered {
		if err := r.stable.Sync(); err != nil {
			panic(fmt.Sprintf("core: smr group-commit sync: %v", err))
		}
	}
	mGroupSyncs.Inc()
	r.unsyncedSlots = 0
	outs := r.parked
	r.parked = nil
	return outs
}

// onSyncTick is the group-commit deadline: whatever acks are parked
// when it fires are released under one covering fsync. Nothing parked
// (a snapshot's fsync released them first) means nothing is owed.
func (r *SMRReplica) onSyncTick() []msg.Directive {
	r.syncTimer = false
	if len(r.parked) == 0 {
		return nil
	}
	return r.releaseParked(false)
}

// drainPending applies parked deliveries that became contiguous.
func (r *SMRReplica) drainPending() []msg.Directive {
	var outs []msg.Directive
	for {
		d, ok := r.pending[r.lastSlot+1]
		if !ok {
			return outs
		}
		delete(r.pending, d.Slot)
		outs = append(outs, r.journalAndApply(d, false)...)
	}
}

// saveSMRSnapshot compacts the journal into a database snapshot.
func (r *SMRReplica) saveSMRSnapshot() error {
	snap := smrSnapshot{
		Slot:     r.lastSlot,
		Executed: r.exec.Executed,
		LastSeq:  r.exec.LastSeqs(),
		Recent:   r.exec.RecentResults(),
	}
	if r.view != nil {
		snap.Epochs = r.view.Epochs()
		snap.Joined = r.view.Joined()
	}
	if err := r.stable.SaveSnapshot(encodeSnapshot(snap, r.exec.DB)); err != nil {
		return err
	}
	r.snapSlot = r.lastSlot
	return nil
}

// requestCatchup asks every peer for the slots after the local
// frontier. Peers answer idempotently, so overlapping replies are safe.
func (r *SMRReplica) requestCatchup() []msg.Directive {
	var outs []msg.Directive
	for _, p := range r.peers {
		outs = append(outs, msg.Send(p, msg.M(HdrSMRCatchupReq, SMRCatchupReq{From: r.slf, After: r.lastSlot})))
	}
	return outs
}

// catchupChunk bounds the journal bytes one SMRCatchup message carries.
// The journal grows with the database (store.Journal's rule), so a
// delta can be many megabytes; the requester applies the chunks as they
// arrive, in slot order.
const catchupChunk = 1 << 20

// onSMRCatchupReq serves a peer's delta request from the local journal,
// or pushes a full state transfer when compaction discarded the range.
func (r *SMRReplica) onSMRCatchupReq(q SMRCatchupReq) []msg.Directive {
	if !r.active || q.From == r.slf {
		return nil
	}
	if r.stable != nil && q.After >= r.snapSlot {
		var outs []msg.Directive
		var ds []broadcast.Deliver
		size := 0
		flush := func() {
			outs = append(outs, msg.Send(q.From, msg.M(HdrSMRCatchup, SMRCatchup{Delivers: ds})))
			ds, size = nil, 0
		}
		err := r.stable.Replay(func(rec []byte) error {
			var w walDeliver
			if gobDec(rec, &w) == nil && w.Slot > q.After {
				if size > 0 && size+len(rec) > catchupChunk {
					flush()
				}
				ds = append(ds, broadcast.Deliver{Slot: w.Slot, Msgs: w.Msgs})
				size += len(rec)
			}
			return nil
		})
		if err == nil {
			flush()
			return outs
		}
	}
	// The journal no longer reaches back to After (or this replica is
	// volatile): a full state transfer is needed. Under dynamic
	// membership only the deterministic proposer pushes it — the
	// requester asks every peer, and concurrent transfers from several
	// of them would interleave their batches at the receiver. The other
	// peers stay silent; the requester's delayed retry covers a lost
	// push.
	if r.view != nil && r.slf != member.Proposer(r.view.Current(), q.From) {
		return nil
	}
	return r.pushSnapshot(q.From)
}

// onSMRCatchup applies a peer-served delta: contiguous slots are
// journaled and executed (quietly — the live replicas already answered
// these clients), out-of-order ones are parked.
func (r *SMRReplica) onSMRCatchup(c SMRCatchup) []msg.Directive {
	if r.stable == nil || !r.active {
		return nil
	}
	ds := append([]broadcast.Deliver(nil), c.Delivers...)
	sort.Slice(ds, func(i, j int) bool { return ds[i].Slot < ds[j].Slot })
	var outs []msg.Directive
	for _, d := range ds {
		switch {
		case d.Slot <= r.lastSlot:
			// already applied
		case d.Slot == r.lastSlot+1:
			outs = append(outs, r.journalAndApply(d, true)...)
		default:
			r.pending[d.Slot] = d
		}
	}
	return append(outs, r.drainPending()...)
}

// dropTxResults filters the client replies out of a directive list.
func dropTxResults(outs []msg.Directive) []msg.Directive {
	kept := outs[:0]
	for _, o := range outs {
		if o.M.Hdr != HdrTxResult {
			kept = append(kept, o)
		}
	}
	return kept
}
