package core

import (
	"fmt"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/gpm"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// SMR: state machine replication (Section III-B of the paper). Clients
// broadcast transactions through the total order broadcast service; every
// replica executes every delivered transaction in slot order and answers
// the client, who takes the first answer. A replica crash is transparent
// as long as one replica survives.
//
// Reconfiguration: membership commands ride the same total order
// (member.Command); for a join the deterministic proposer pushes its
// snapshot to the incoming replica, which parks deliveries made in the
// meantime (see onMemberCmd).

// SMRReplica is one state machine replica. It implements gpm.Process.
type SMRReplica struct {
	slf      msg.Loc
	exec     *Executor
	lastSlot int
	// active is false for a joining replica until its snapshot arrives.
	active bool
	// park holds deliveries made while inactive, and those that arrived
	// past a gap while the slot catch-up fills it; gap paces the
	// catch-up requests the latter trigger.
	park reorder[broadcast.Deliver]
	gap  gapPacer
	// stepCost is the virtual CPU of the last step.
	stepCost time.Duration
	// peers are who a replica behind the order asks for its delta;
	// recoveredLocal reports a restore from the store happened, and
	// volatile that the replica journals into a private store, so at
	// boot it has nothing to ask its peers about (smr_durable.go).
	peers          []msg.Loc
	recoveredLocal bool
	volatile       bool
	// view, when set, is the shared membership epoch schedule: ordered
	// member commands refresh the catch-up peer set and trigger the
	// bootstrap snapshot push for replica joins (see onMemberCmd).
	view *member.View
	// What recovery, which runs before SetView can attach the view,
	// stashes for SetView to fold in: the restored epoch schedule and the
	// member commands replayed from the journal tail.
	recEpochs []member.Config
	recJoined map[msg.Loc]int
	recCmds   []recMemberCmd
	// Lease-based local reads (lease.go). lease is nil unless
	// EnableLease ran; readReg holds the read-only procedures; readOuts
	// is the reusable serve-path directive buffer (safe because the
	// single-threaded runtime consumes directives before the next Step).
	lease    *leaseState
	readReg  ReadRegistry
	readOuts []msg.Directive
	// ackGap is set when ack gating suppressed a client reply (or quiet
	// catch-up dropped one). The broadcast layer dedups client retries,
	// so a suppressed ack can never be re-elicited by the client; the
	// next time this replica holds a valid lease it re-emits the newest
	// cached result per client instead (see reAck).
	ackGap bool
	// Group commit (smr_durable.go): with gcEvery > 1 client acks are
	// parked until a covering fsync — one fsync per window instead of
	// one per slot — released when the HdrSyncTick self-send arrives
	// behind the inbox's backlog, or by count. unsyncedSlots counts the
	// ack-bearing slots of the open window; ack-free slots (renewals,
	// suppressed replies) defer their fsync to the next ack-bearing
	// window.
	gcEvery       int
	parked        []msg.Directive
	unsyncedSlots int
	// Reusable apply-path buffers (applyBatch).
	runBuf []TxRequest
	inRun  map[ckey]bool
	// handlers are the ordered events that are not transactions, by
	// codec tag; ext is the refinement that registered some of them.
	handlers [256]OrderedHandler
	ext      SMRExtension
}

// OrderedHandler applies one ordered payload that is not a transaction
// (a membership command, a lease renewal, a 2PC record) at its position
// in the slot, after the transactions ahead of it, and returns what it
// sends. A payload with its tag that does not decode changes nothing.
type OrderedHandler func(payload []byte, slot int) []msg.Directive

// SMRExtension refines an SMR replica with ordered events of its own
// (DESIGN.md §9) — the shard layer's 2PC participant — whose state rides
// the replica's snapshots and state transfers.
type SMRExtension interface {
	// Bind attaches the extension to the replica self and its executor,
	// before recovery, and returns its handlers by the codec tag of the
	// payload each applies (msg.TagOf).
	Bind(self msg.Loc, exec *Executor) map[byte]OrderedHandler
	// Snapshot encodes the whole state; Restore replaces it with what
	// Snapshot encoded (empty: the initial state) or fails untouched.
	Snapshot() []byte
	Restore(b []byte) error
}

// SMRConfig is what OpenSMRReplica builds a replica from.
type SMRConfig struct {
	Self     msg.Loc
	DB       *sqldb.DB
	Registry Registry
	// Store journals the replica (nil: a private journal that dies with
	// it). A fresh store's baseline snapshot is the only durable copy of
	// the initial rows.
	Store store.Stable
	// Peers are whom a replica behind the order asks for its delta (Self
	// is skipped); under dynamic membership SetView sets them instead.
	Peers []msg.Loc
	// Joiner starts the replica empty and passive, parking deliveries,
	// until the bootstrap transfer arrives — unless its store recovers.
	Joiner bool
	// Ext, when set, adds the extension's ordered events and state.
	Ext SMRExtension
}

// ckey identifies a client request without string formatting.
type ckey struct {
	c msg.Loc
	s int64
}

// recMemberCmd is a membership command replayed from the journal before
// the view was attached (see SetView).
type recMemberCmd struct {
	cmd  member.Command
	slot int
}

var _ gpm.Process = (*SMRReplica)(nil)

// OpenSMRReplica is the one way to build an SMR replica: it registers
// the ordered-event handlers — membership and lease here, then the
// extension's — and recovers whatever state its store holds (snapshot,
// then journal, replayed through those handlers) or saves a fresh
// store's baseline.
func OpenSMRReplica(cfg SMRConfig) (*SMRReplica, error) {
	r := &SMRReplica{slf: cfg.Self, exec: NewExecutor(cfg.DB, cfg.Registry), lastSlot: -1, park: make(reorder[broadcast.Deliver]), ext: cfg.Ext,
		volatile: cfg.Store == nil}
	r.exec.frontier, r.exec.adopt = r.frontier, r.adopt
	r.handlers[memberTag] = func(p []byte, slot int) []msg.Directive {
		if cmd, ok := member.DecodeCommand(p); ok {
			return r.onMemberCmd(cmd, slot)
		}
		return nil
	}
	r.handlers[leaseTag] = func(p []byte, slot int) []msg.Directive {
		if ren, err := msg.DecodeBody[LeaseRenewal](p); err == nil {
			r.onLeaseGrant(ren, slot)
		}
		return nil
	}
	if cfg.Ext != nil {
		for tag, h := range cfg.Ext.Bind(cfg.Self, r.exec) {
			if r.handlers[tag] != nil || tag == txTag {
				return nil, fmt.Errorf("core: extension payload tag %#02x is taken", tag)
			}
			r.handlers[tag] = h
		}
	}
	r.setPeers(cfg.Peers)
	r.exec.journal("smr-"+string(cfg.Self), cfg.Store, DefaultSnapEvery)
	var err error
	if r.recoveredLocal, err = r.exec.Recover(r.replaySlot); err != nil {
		return nil, err
	}
	if r.recoveredLocal {
		lg.WithNode(r.slf).Infof("smr local recovery: snapshot slot %d, replayed to slot %d", r.exec.snapAt, r.lastSlot)
	} else if !cfg.Joiner {
		if err := r.exec.Compact(); err != nil {
			return nil, fmt.Errorf("core: seed baseline snapshot: %w", err)
		}
	}
	r.active = !cfg.Joiner || r.recoveredLocal
	return r, nil
}

// frontier is SMR's share of a snapshot header: the slot frontier, the
// membership epoch schedule in force there, and the extension's state.
func (r *SMRReplica) frontier(h *snapHeader) {
	h.Slot = r.lastSlot
	if r.view != nil {
		h.Epochs, h.Joined = r.view.Epochs(), r.view.Joined()
	}
	if r.ext != nil {
		h.Ext = r.ext.Snapshot()
	}
}

// adopt is frontier's inverse, for a header restored from the store —
// in the constructor, before SetView: the schedule is stashed for it —
// or installed from a state transfer.
func (r *SMRReplica) adopt(h snapHeader) error {
	if r.ext != nil {
		if err := r.ext.Restore(h.Ext); err != nil {
			return fmt.Errorf("core: extension state: %w", err)
		}
	}
	r.lastSlot = h.Slot
	if r.view == nil {
		r.recEpochs, r.recJoined = h.Epochs, h.Joined
	} else {
		r.view.Adopt(h.Epochs, h.Joined)
		r.setPeers(r.view.Current().Replicas)
	}
	return nil
}

// Extension returns the replica's extension (nil when it has none).
func (r *SMRReplica) Extension() SMRExtension { return r.ext }

// OrderedTags lists the codec tags of the payloads the replica
// dispatches to a handler rather than decoding as a transaction, in
// ascending order.
func (r *SMRReplica) OrderedTags() []byte {
	var tags []byte
	for tag, h := range r.handlers {
		if h != nil {
			tags = append(tags, byte(tag))
		}
	}
	return tags
}

// SetView attaches the shared membership epoch view. Ordered member
// commands then keep the replica's catch-up peer set in sync with the
// epoch schedule, and a replica join makes the deterministic proposer
// push the bootstrap snapshot. A freshly constructed view is first
// brought up to the replica's recovered frontier: the epoch schedule
// restored from the durable snapshot is adopted, then the member
// commands replayed from the journal tail are re-applied in order.
// Without this a restarted replica would execute epoch-N state under an
// epoch-0 view — wrong catch-up peers, wrong snapshot proposer, and
// (with leases) grants accepted from a deposed holder.
func (r *SMRReplica) SetView(v *member.View) {
	r.view = v
	if v == nil {
		return
	}
	v.Adopt(r.recEpochs, r.recJoined)
	r.recEpochs, r.recJoined = nil, nil
	for _, rc := range r.recCmds {
		v.Apply(rc.cmd, rc.slot)
	}
	r.recCmds = nil
	r.setPeers(v.Current().Replicas)
}

// setPeers makes the other replicas of the group the catch-up peers.
func (r *SMRReplica) setPeers(replicas []msg.Loc) {
	r.peers = make([]msg.Loc, 0, len(replicas))
	for _, l := range replicas {
		if l != r.slf {
			r.peers = append(r.peers, l)
		}
	}
}

// Executor exposes the replica's executor.
func (r *SMRReplica) Executor() *Executor { return r.exec }

// Active reports whether the replica executes deliveries.
func (r *SMRReplica) Active() bool { return r.active }

// LastCost returns the virtual CPU cost of the most recent Step.
func (r *SMRReplica) LastCost() time.Duration { return r.stepCost }

// Halted implements gpm.Process.
func (r *SMRReplica) Halted() bool { return false }

// Step implements gpm.Process.
func (r *SMRReplica) Step(in msg.Msg) (gpm.Process, []msg.Directive) {
	r.stepCost = 0
	before := r.exec.DB.Stats()
	var outs []msg.Directive
	switch in.Hdr {
	case broadcast.HdrDeliver:
		outs = r.onDeliver(in.Body.(broadcast.Deliver), in.Body)
	case HdrSnapPart:
		outs = r.onSnapPart(in.Body.(SnapPart))
	case HdrCatchupReq:
		outs = r.onCatchupReq(in.Body.(CatchupReq))
	case HdrCatchup:
		outs = r.onCatchup(in.Body.(Catchup))
	case HdrRead:
		outs = r.onRead(in.Body.(ReadRequest))
	case HdrLeaseTick:
		outs = r.onLeaseTick()
	case HdrSyncTick:
		outs = r.onSyncTick()
	}
	r.stepCost += r.exec.DB.Engine().CostOf(r.exec.DB.Stats().Sub(before))
	return r, outs
}

// onDeliver applies a live delivery when it is the next slot, journaled
// from body, the delivery as the message carried it. Anything else is
// parked by slot: a joiner's deliveries until the bootstrap snapshot
// lands, and a delivery past a gap — slots the replica missed while
// down or partitioned — until a peer has served the missing range.
func (r *SMRReplica) onDeliver(d broadcast.Deliver, body any) []msg.Directive {
	if d.Slot <= r.lastSlot {
		return nil // duplicate notification from another service node
	}
	if !r.active {
		r.park[int64(d.Slot)] = d
		return nil
	}
	if d.Slot > r.lastSlot+1 {
		r.park[int64(d.Slot)] = d
		if !r.gap.ask() {
			return nil
		}
		lg.WithNode(r.slf).Infof("smr gap: got slot %d with frontier %d, requesting catch-up", d.Slot, r.lastSlot)
		return r.requestCatchup()
	}
	return append(r.applySlot(d, r.exec.encodeRecord(body), false), r.drainParked()...)
}

func (r *SMRReplica) applyBatch(d broadcast.Deliver) []msg.Directive {
	var outs []msg.Directive
	// ackOK gates client acks: with leases enabled only the valid
	// holder answers, so every acknowledged write is in the holder's
	// applied prefix and a local lease read is linearizable. Evaluated
	// per flush because a membership command mid-slot can change it.
	ackOK := func() bool {
		if r.lease == nil {
			return true
		}
		if !r.leaseValid() {
			mAcksSuppressed.Inc()
			r.ackGap = true
			return false
		}
		return true
	}
	// Contiguous runs of plain transactions within the slot's batch are
	// group-committed: one SQL-engine critical section for the whole run
	// instead of a BEGIN..COMMIT per transaction. Reconfigurations ride
	// the same total order but cut the run (they must observe the state
	// up to their own position). The run buffer and membership set are
	// reused across slots to keep the steady-state apply loop quiet.
	run := r.runBuf[:0]
	if r.inRun == nil {
		r.inRun = make(map[ckey]bool)
	}
	clear(r.inRun)
	flush := func() {
		if len(run) == 0 {
			return
		}
		t0 := obs.Default.Now()
		ack := ackOK()
		for _, res := range r.exec.ApplyBatch(run) {
			mSMRCommits.Inc()
			if ack {
				outs = append(outs, msg.Send(res.Client, msg.M(HdrTxResult, res)))
			}
		}
		mSMRApplyNS.Observe(obs.Default.Now() - t0)
		gExecuted.Set(r.exec.Executed)
		run = run[:0]
		clear(r.inRun)
	}
	for _, b := range d.Msgs {
		// An ordered event observes the prefix before its own position
		// (earlier transactions of the slot flush first), and later ones
		// run after it — acked, say, under a lease grant it made.
		if h := r.handlers[msg.PayloadTag(b.Payload)]; h != nil {
			flush()
			outs = append(outs, h(b.Payload, d.Slot)...)
			continue
		}
		req, err := msg.DecodeBody[TxRequest](b.Payload)
		if err != nil {
			continue
		}
		k := ckey{req.Client, req.Seq}
		if r.inRun[k] {
			// A duplicate of a request already queued in this run: apply
			// the run so the dedup table answers it, as one-by-one
			// application would.
			flush()
		}
		if res, dup := r.exec.Duplicate(req); dup {
			if ackOK() {
				outs = append(outs, msg.Send(req.Client, msg.M(HdrTxResult, res)))
			}
			continue
		}
		run = append(run, req)
		r.inRun[k] = true
	}
	flush()
	r.runBuf = run[:0]
	if r.ackGap && r.leaseValid() {
		r.ackGap = false
		outs = r.reAck(outs)
	}
	return outs
}

// onMemberCmd folds an ordered membership command into the shared
// epoch view. Every replica applies the command at the same slot, so
// they all refresh their catch-up peer sets identically, and for a
// replica join exactly one of them — the deterministic proposer, the
// first replica of the pre-join epoch — pushes the bootstrap snapshot
// (reflecting every transaction up to and including this slot) to the
// joiner. A removed replica simply stops being a fan-out target at the
// next slot: it drains by running out of deliveries, no teardown
// message needed. Apply is idempotent per slot, so a co-located
// sequencer sharing the view may have folded the command first; the
// proposer choice does not depend on who won that race.
func (r *SMRReplica) onMemberCmd(cmd member.Command, slot int) []msg.Directive {
	if r.view == nil {
		// Journal replay runs before SetView attaches the view; stash the
		// command so SetView can fold it in order.
		r.recCmds = append(r.recCmds, recMemberCmd{cmd, slot})
		return nil
	}
	prev := r.view.Current()
	cfg, _ := r.view.Apply(cmd, slot)
	r.setPeers(cfg.Replicas)
	if cmd.Op == member.AddReplica && cfg.HasReplica(cmd.Node) && cmd.Node != r.slf &&
		r.slf == member.Proposer(prev, cmd.Node) {
		mSMRSnapshotsSent.Inc()
		return r.transferTo(cmd.Node)
	}
	return nil
}

// transferTo streams this replica's full state to a peer, numbered by
// the slot frontier it reflects: the state after a slot is the same at
// every replica, so equal numbers mean equal batches whoever sent them,
// and a later state outnumbers an earlier one (see SnapPart).
func (r *SMRReplica) transferTo(to msg.Loc) []msg.Directive {
	outs, cost := r.exec.SnapshotDirectives(to, 0, int64(r.lastSlot)+1)
	r.stepCost += cost
	return outs
}

// onSnapPart takes one part of a state transfer; once it is assembled,
// the replica installs it (its header's Slot is the last slot it
// covers), activates a joiner, and applies the deliveries parked past
// the covered slot.
func (r *SMRReplica) onSnapPart(p SnapPart) []msg.Directive {
	_, snap := r.exec.snapPart(p)
	if snap == nil {
		return nil
	}
	h, img, err := splitSnapshot(snap)
	if err != nil || r.active && h.Slot <= r.lastSlot {
		// Refused, or a stale transfer — e.g. the answer to a catch-up
		// request this replica has since outrun through live deliveries —
		// which must not roll an active replica back: every slot it
		// covers is already applied locally.
		return nil
	}
	cost, err := r.exec.install(h, img)
	r.stepCost += cost
	if err != nil {
		return nil
	}
	if r.lease != nil && len(h.Recent) > 0 {
		// The transfer may cover writes whose acks were suppressed
		// everywhere (no valid holder while they applied); re-emit the
		// adopted results at the next valid grant.
		r.ackGap = true
	}
	r.active = true
	r.park.settle(int64(r.lastSlot))
	return r.drainParked()
}

// ------------------------------------------------------------- payloads --

// EncodeTx serializes a transaction request for a broadcast payload: the
// request as a body of the wire codec. An argument of a kind the codec
// lacks is an error naming it.
func EncodeTx(req TxRequest) ([]byte, error) {
	b, err := msg.AppendBody(make([]byte, 0, 64), req)
	if err != nil {
		return nil, fmt.Errorf("core: encode tx: %w", err)
	}
	return b, nil
}
