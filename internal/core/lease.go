package core

import (
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// Leader leases over the ordered configuration machinery (DESIGN.md
// §13). The natural lease holder of an epoch is Replicas[0] of its
// config. The holder proposes a renewal through the total order
// broadcast every Dur/3; every replica grants the renewal at apply
// time iff the epoch config in force AT THE RENEWAL'S SLOT still names
// the sender as its first replica. Because the grant rides the same
// total order as writes and membership commands, all replicas agree on
// the (holder, epoch, issue) history, and a lease is structurally
// invalid across an epoch boundary: a renewal proposed under epoch e
// but ordered after the command that began epoch e+1 is refused by
// every replica, including its own proposer.
//
// Soundness of the local read modes:
//
//   - Lease reads (linearizable). The holder serves a read locally only
//     while now < issue + Dur of its own last granted renewal, where
//     issue is the timestamp the holder itself carried in the renewal
//     payload — ordered data, identical at every replica, immune to a
//     stale local view. A new holder (epoch change) additionally waits
//     out the previous holder's full lease window (notBefore =
//     prevIssue + Dur) before serving or acknowledging writes, so at
//     most one replica ever serves lease reads at a time. Combined with
//     ack gating (in lease mode only the valid holder emits TxResult),
//     every acknowledged write is in the holder's applied prefix, so a
//     local read at the holder is linearizable.
//
//   - Follower reads (bounded staleness). Renewals double as ordered
//     clock beacons: a replica whose last applied renewal was issued at
//     time I has applied every write acknowledged before I, because the
//     sequencer assigns slots in propose order (propSlot is monotone)
//     and an ack at time t implies the write's slot precedes any
//     renewal proposed at I >= t. A follower therefore serves a read at
//     time now iff now - I <= MaxStale, and stamps the answer with
//     (slot frontier, I) so the checker can audit the bound.
//
// Lease state is deliberately volatile: it is never journaled and
// never reconstructed from a WAL replay, so a restarted holder cannot
// resume serving from recovered state — it must wait for a fresh
// renewal of its own to be ordered and applied under the current epoch
// (TestLeaseAcrossRestart exercises this).

// LeaseConfig enables lease-based local reads on an SMR replica.
type LeaseConfig struct {
	// Dur is the lease duration; renewals are proposed every Dur/3.
	Dur time.Duration
	// MaxStale is the staleness bound for follower reads.
	MaxStale time.Duration
	// Bcast is the broadcast service node renewals are proposed through.
	Bcast msg.Loc
	// Now is the clock (virtual in simulation, wall live). Required.
	Now func() time.Duration
}

// leaseState is a replica's view of the current lease, derived
// entirely from renewals applied in slot order.
type leaseState struct {
	cfg    LeaseConfig
	holder msg.Loc
	epoch  int
	// issue is the carried issue timestamp of the last granted renewal.
	issue time.Duration
	// notBefore bars a new holder from serving until the previous
	// holder's lease window has fully elapsed.
	notBefore time.Duration
	// seq numbers this replica's own renewal proposals.
	seq int64
}

// LeaseRenewal is the ordered renewal payload.
type LeaseRenewal struct {
	Epoch  int
	Holder msg.Loc
	// Issue is the holder's clock when it proposed the renewal.
	Issue time.Duration
	Seq   int64
}

// EncodeLease serializes a renewal as a broadcast payload.
func EncodeLease(r LeaseRenewal) []byte {
	b, _ := msg.AppendBody(nil, r) // a renewal is integers and a Loc, which always encode
	return b
}

// ReadProc is a read-only procedure that fills a reusable result in
// place. It must not mutate the database, and to keep the serve loop
// allocation-free it should write through res.Vals (reused backing
// array) rather than allocating rows.
type ReadProc func(db *sqldb.DB, args []any, res *ReadResult) error

// ReadRegistry maps read types to procedures. Like Registry, all
// replicas of a group must share one.
type ReadRegistry map[string]ReadProc

// EnableLease turns on lease-based local reads. SetView must have been
// called first: lease validity is defined against the epoch schedule.
func (r *SMRReplica) EnableLease(cfg LeaseConfig, reads ReadRegistry) {
	if r.view == nil {
		panic("core: EnableLease requires SetView")
	}
	if cfg.Now == nil {
		panic("core: EnableLease requires a clock")
	}
	if cfg.Dur <= 0 {
		cfg.Dur = 2 * time.Second
	}
	if cfg.MaxStale <= 0 {
		cfg.MaxStale = cfg.Dur
	}
	r.lease = &leaseState{cfg: cfg}
	r.readReg = reads
	if r.recoveredLocal {
		// A restarted replica cannot know which of its recovered writes
		// were acknowledged before the crash — the pre-crash incarnation
		// may have died with acks parked for an fsync that never came.
		// Arm the gap so the first valid grant re-emits the newest cached
		// result per client; clients drop sequence numbers they have
		// moved past, so the re-emission is free when nothing was lost.
		r.ackGap = true
	}
}

// LeaseDirectives returns the initial renewal-timer tick. The host
// injects it after construction (the replica is built outside any
// message flow), mirroring RecoveryDirectives.
func (r *SMRReplica) LeaseDirectives() []msg.Directive {
	if r.lease == nil {
		return nil
	}
	return []msg.Directive{msg.SendAfter(0, r.slf, msg.M(HdrLeaseTick, nil))}
}

// onLeaseTick re-arms the renewal timer and, when this replica is the
// natural holder of the current epoch, proposes a renewal through the
// total order.
func (r *SMRReplica) onLeaseTick() []msg.Directive {
	ls := r.lease
	if ls == nil {
		return nil
	}
	outs := []msg.Directive{msg.SendAfter(ls.cfg.Dur/3, r.slf, msg.M(HdrLeaseTick, nil))}
	cur := r.view.Current()
	if !r.active || len(cur.Replicas) == 0 || cur.Replicas[0] != r.slf {
		return outs
	}
	ls.seq++
	mLeaseRenewals.Inc()
	payload := EncodeLease(LeaseRenewal{Epoch: cur.Epoch, Holder: r.slf, Issue: ls.cfg.Now(), Seq: ls.seq})
	b := broadcast.Bcast{From: r.slf, Seq: ls.seq, Payload: payload}
	return append(outs, msg.Send(ls.cfg.Bcast, msg.M(broadcast.HdrBcast, b)))
}

// onLeaseGrant folds an ordered renewal into the lease state. slot is
// the renewal's position in the total order; the grant is valid only
// if the epoch config in force at that slot still names the sender as
// its natural holder — a renewal from a deposed holder is refused
// identically by every replica.
func (r *SMRReplica) onLeaseGrant(ren LeaseRenewal, slot int) {
	ls := r.lease
	if ls == nil || r.view == nil {
		return
	}
	cfg := r.view.At(slot)
	if cfg.Epoch != ren.Epoch || len(cfg.Replicas) == 0 || cfg.Replicas[0] != ren.Holder {
		mLeaseRefused.Inc()
		return
	}
	if ls.holder != ren.Holder {
		if ls.holder != "" {
			// Holder change: the incoming holder waits out the previous
			// holder's full window before serving or acking.
			ls.notBefore = ls.issue + ls.cfg.Dur
		}
		ls.holder = ren.Holder
	}
	ls.epoch = ren.Epoch
	if ren.Issue > ls.issue {
		ls.issue = ren.Issue
	}
	mLeaseGrants.Inc()
}

// reAck re-emits the newest cached result of every client. It runs
// when a replica with a pending ack gap becomes the valid holder: a
// write applied while no valid holder existed (startup race, holder
// handover barrier, restart) was acknowledged by nobody, and because
// the broadcast sequencer dedups client retries by (From, Seq) the
// retry is never redelivered — without this path the ack is lost
// forever and the client spins. Re-emission is safe: results are
// deterministic across replicas and clients drop sequence numbers
// they have moved past. The emitted directives ride the normal apply
// output, so group commit parks them until a covering fsync exactly
// like first-time acks.
func (r *SMRReplica) reAck(outs []msg.Directive) []msg.Directive {
	for _, res := range r.exec.RecentResults() {
		mLeaseReacks.Inc()
		outs = append(outs, msg.Send(res.Client, msg.M(HdrTxResult, res)))
	}
	return outs
}

// leaseValid reports whether this replica currently holds a valid
// lease: it is the granted holder, the grant's epoch is still current,
// the lease window (measured from the carried issue time) has not
// elapsed, and any holder-change barrier has passed.
func (r *SMRReplica) leaseValid() bool {
	ls := r.lease
	if ls == nil || r.view == nil || !r.active {
		return false
	}
	cur := r.view.Current()
	if len(cur.Replicas) == 0 || cur.Replicas[0] != r.slf {
		return false
	}
	now := ls.cfg.Now()
	return ls.holder == r.slf && ls.epoch == cur.Epoch &&
		now < ls.issue+ls.cfg.Dur && now >= ls.notBefore
}

// onRead serves a local read in the requested mode, or rejects it when
// the mode's proof obligation cannot be met right now. The reply body
// is a pooled pointer and the directive buffer is reused, so the
// steady-state serve loop performs no allocations (readpath_bench_test
// pins this).
func (r *SMRReplica) onRead(q ReadRequest) []msg.Directive {
	res := AcquireReadResult()
	res.Client, res.Seq, res.Mode = q.Client, q.Seq, q.Mode
	res.Slot = r.lastSlot
	ls := r.lease
	serve := false
	switch {
	case ls == nil:
		res.Rejected = true
	case q.Mode == ReadLease:
		serve = r.leaseValid()
		res.Rejected = !serve
	case q.Mode == ReadFollower:
		// The last applied renewal's issue time bounds how far behind
		// the acknowledged frontier this replica's state can be.
		serve = r.active && ls.issue > 0 && ls.cfg.Now()-ls.issue <= ls.cfg.MaxStale
		res.Rejected = !serve
	default:
		res.Err = "unknown read mode"
	}
	if serve {
		res.Issue = int64(ls.issue)
		if proc, ok := r.readReg[q.Type]; !ok {
			res.Err = "unknown read type " + q.Type
		} else if err := proc(r.exec.DB, q.Args, res); err != nil {
			res.Err = err.Error()
		} else if err := msg.CheckValues(res.Vals); err != nil {
			// A value the codec cannot write is answered as an error,
			// not lost at send.
			res.Err, res.Vals = err.Error(), res.Vals[:0]
		}
		mSMRReads.Inc()
	} else if res.Rejected {
		mSMRReadsRejected.Inc()
	}
	r.readOuts = r.readOuts[:0]
	r.readOuts = append(r.readOuts, msg.Send(q.Client, msg.M(HdrReadResult, res)))
	return r.readOuts
}
