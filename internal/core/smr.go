package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
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
// Reconfiguration: a replica that suspects another broadcasts a
// reconfiguration request carrying the sequence number of the last
// ordered transaction (but not the snapshot); the incoming replica
// fetches the snapshot from the proposer and buffers deliveries made in
// the meantime.

// SMRAddReplica is the reconfiguration request, ordered through the
// broadcast service.
type SMRAddReplica struct {
	// New is the joining replica, Remove the suspected one (may be
	// empty), Proposer the replica that will push the snapshot.
	New      msg.Loc
	Remove   msg.Loc
	Proposer msg.Loc
}

// SMRReplica is one state machine replica. It implements gpm.Process.
type SMRReplica struct {
	slf      msg.Loc
	exec     *Executor
	lastSlot int
	// active is false for a joining replica until its snapshot arrives.
	active bool
	// buffer holds deliveries made while inactive.
	buffer []broadcast.Deliver
	// snap assembles an incoming state transfer.
	snap *smrSnap
	// stepCost is the virtual CPU of the last step.
	stepCost time.Duration
	// Durability (smr_durable.go). stable journals every applied slot and
	// compacts into a database snapshot; snapSlot is the slot the stored
	// snapshot covers; pending buffers out-of-order deliveries while the
	// slot catch-up fills the gap; peers are who a restarted replica asks
	// for its delta; recoveredLocal reports a restore happened.
	stable         *store.Journal
	snapSlot       int
	pending        map[int]broadcast.Deliver
	peers          []msg.Loc
	recoveredLocal bool
	// view, when set, is the shared membership epoch schedule: ordered
	// member commands refresh the catch-up peer set and trigger the
	// bootstrap snapshot push for replica joins (see onMemberCmd).
	view *member.View
	// Recovery runs in the constructor, before SetView can attach the
	// view, so the epoch schedule restored from the durable snapshot
	// (recEpochs/recJoined) and any member commands replayed from the
	// journal tail (recCmds) are stashed here and folded in by SetView.
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
	// one per slot — released by count or by the HdrSyncTick timer.
	// unsyncedSlots counts the ack-bearing slots of the open window;
	// ack-free slots (renewals, suppressed replies) defer their fsync
	// to the next ack-bearing window.
	gcEvery       int
	gcDelay       time.Duration
	parked        []msg.Directive
	unsyncedSlots int
	syncTimer     bool
	// Reusable apply-path buffers (applyBatch).
	runBuf []TxRequest
	inRun  map[ckey]bool
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

// NewSMRReplica creates an active replica.
func NewSMRReplica(slf msg.Loc, db *sqldb.DB, reg Registry) *SMRReplica {
	return &SMRReplica{slf: slf, exec: NewExecutor(db, reg), lastSlot: -1, active: true}
}

// NewJoiningSMRReplica creates a replica that waits for a state transfer
// before executing.
func NewJoiningSMRReplica(slf msg.Loc, db *sqldb.DB, reg Registry) *SMRReplica {
	r := NewSMRReplica(slf, db, reg)
	r.active = false
	return r
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
	if len(r.recEpochs) > 0 || len(r.recJoined) > 0 {
		v.Adopt(r.recEpochs, r.recJoined)
		r.recEpochs, r.recJoined = nil, nil
	}
	for _, rc := range r.recCmds {
		v.Apply(rc.cmd, rc.slot)
	}
	r.recCmds = nil
	r.refreshPeers(v.Current())
}

// refreshPeers derives the catch-up peer set from an epoch config.
func (r *SMRReplica) refreshPeers(cfg member.Config) {
	peers := make([]msg.Loc, 0, len(cfg.Replicas))
	for _, l := range cfg.Replicas {
		if l != r.slf {
			peers = append(peers, l)
		}
	}
	r.peers = peers
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
		outs = r.onDeliver(in.Body.(broadcast.Deliver))
	case HdrSnapBegin:
		outs = r.onSnapBegin(in.Body.(SnapBegin))
	case HdrSnapBatch:
		outs = r.onSnapBatch(in.Body.(SnapBatch))
	case HdrSnapEnd:
		outs = r.onSnapEnd(in.Body.(SnapEnd))
	case HdrSMRCatchupReq:
		outs = r.onSMRCatchupReq(in.Body.(SMRCatchupReq))
	case HdrSMRCatchup:
		outs = r.onSMRCatchup(in.Body.(SMRCatchup))
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

func (r *SMRReplica) onDeliver(d broadcast.Deliver) []msg.Directive {
	if d.Slot <= r.lastSlot {
		return nil // duplicate notification from another service node
	}
	if !r.active && r.stable != nil {
		// A durable joiner parks live deliveries by slot until the
		// bootstrap snapshot lands; onSnapEnd then journals and applies
		// them contiguously from the covered slot. (The volatile buffer
		// below keeps arrival order, which can skip a slot when several
		// service nodes fan out concurrently — tolerable without a
		// journal, not with one.)
		if r.pending == nil {
			r.pending = make(map[int]broadcast.Deliver)
		}
		r.pending[d.Slot] = d
		return nil
	}
	if r.active && r.stable != nil {
		return r.durableDeliver(d)
	}
	r.lastSlot = d.Slot
	if !r.active {
		r.buffer = append(r.buffer, d)
		return nil
	}
	return r.applyBatch(d)
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
		// Dispatch on the payload tag without splitting: the non-tx tags
		// are all 4 bytes ("add|", "mbr|", "lse|"), and comparing against
		// a constant does not allocate.
		if len(b.Payload) >= 4 && b.Payload[3] == '|' {
			switch string(b.Payload[:4]) {
			case "add|":
				if add, ok := DecodeSMRAdd(b.Payload); ok {
					flush()
					outs = append(outs, r.onAdd(add)...)
					continue
				}
			case "mbr|":
				if cmd, ok := member.DecodeCommand(b.Payload); ok {
					flush()
					outs = append(outs, r.onMemberCmd(cmd, d.Slot)...)
					continue
				}
			case "lse|":
				if ren, ok := DecodeLease(b.Payload); ok {
					// The renewal must observe the prefix before its own
					// slot position (earlier txs in this slot flush
					// first), and later txs in the slot are acked under
					// the new grant.
					flush()
					r.onLeaseGrant(ren, d.Slot)
					continue
				}
			}
		}
		req, err := DecodeTx(b.Payload)
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

// onAdd handles an ordered reconfiguration: the proposer pushes its
// snapshot (reflecting every transaction up to and including this slot)
// to the new replica.
func (r *SMRReplica) onAdd(add SMRAddReplica) []msg.Directive {
	if r.slf != add.Proposer {
		return nil
	}
	return r.pushSnapshot(add.New)
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
	r.refreshPeers(cfg)
	if cmd.Op == member.AddReplica && cfg.HasReplica(cmd.Node) && cmd.Node != r.slf &&
		r.slf == member.Proposer(prev, cmd.Node) {
		mSMRSnapshotsSent.Inc()
		return r.pushSnapshot(cmd.Node)
	}
	return nil
}

// pushSnapshot streams this replica's full state to a peer.
func (r *SMRReplica) pushSnapshot(to msg.Loc) []msg.Directive {
	dumps := r.exec.DB.Snapshot()
	eng := r.exec.DB.Engine()
	schemas := make([]sqldb.CreateTable, len(dumps))
	for i, d := range dumps {
		schemas[i] = d.Schema
	}
	outs := []msg.Directive{msg.Send(to, msg.M(HdrSnapBegin, SnapBegin{
		Schemas: schemas, Order: int64(r.lastSlot),
	}))}
	n := 0
	for _, d := range dumps {
		cols := len(d.Schema.Cols)
		for _, batch := range sqldb.SplitBatches(d, 0) {
			outs = append(outs, msg.Send(to, msg.M(HdrSnapBatch, SnapBatch{
				Table: batch.Table, Rows: batch.Rows, N: n,
			})))
			n++
			r.stepCost += time.Duration(len(batch.Rows)*cols) * eng.PerColSerialize
		}
	}
	end := SnapEnd{
		Order: int64(r.lastSlot), Batches: n,
		Executed: r.exec.Executed, LastSeq: r.exec.LastSeqs(),
		Recent: r.exec.RecentResults(),
	}
	if r.view != nil {
		end.Epochs = r.view.Epochs()
		end.Joined = r.view.Joined()
	}
	outs = append(outs, msg.Send(to, msg.M(HdrSnapEnd, end)))
	return outs
}

// Snapshot reception at the joining replica. The snapshot's Order field
// carries the last SLOT it covers.

var errStray = fmt.Errorf("core: stray snapshot message")

type smrSnap struct {
	schemas  []sqldb.CreateTable
	rows     map[string][][]sqldb.Value
	received int
	// seen dedups batches by index: the transport may duplicate a
	// SnapBatch, and counting it twice would both double its rows and
	// let the assembly "complete" with another batch still missing.
	seen map[int]bool
	end  *SnapEnd
}

// The joining replica reuses snapState via a minimal local assembly.
func (r *SMRReplica) onSnapBegin(s SnapBegin) []msg.Directive {
	r.snap = &smrSnap{schemas: s.Schemas, rows: make(map[string][][]sqldb.Value), seen: make(map[int]bool)}
	return nil
}

func (r *SMRReplica) onSnapBatch(b SnapBatch) []msg.Directive {
	if r.snap == nil {
		return nil
	}
	if r.snap.seen[b.N] {
		return nil // duplicate batch
	}
	r.snap.seen[b.N] = true
	r.snap.rows[b.Table] = append(r.snap.rows[b.Table], b.Rows...)
	r.snap.received++
	r.stepCost += batchRestoreCost(r.exec.DB.Engine(), b.Rows)
	if end := r.snap.end; end != nil && r.snap.received >= end.Batches {
		return r.onSnapEnd(*end)
	}
	return nil
}

func (r *SMRReplica) onSnapEnd(s SnapEnd) []msg.Directive {
	if r.snap == nil {
		return nil
	}
	if r.snap.received < s.Batches {
		end := s
		r.snap.end = &end
		return nil
	}
	if r.active && int(s.Order) <= r.lastSlot {
		// A stale transfer — e.g. the answer to a catch-up request this
		// replica has since outrun through live deliveries — must not
		// roll an active replica back: every slot it covers is already
		// applied locally.
		r.snap = nil
		return nil
	}
	dumps := make([]sqldb.TableDump, len(r.snap.schemas))
	for i, sc := range r.snap.schemas {
		dumps[i] = sqldb.TableDump{Schema: sc, Rows: r.snap.rows[sc.Name]}
	}
	if err := r.exec.DB.Restore(dumps); err != nil {
		r.snap = nil
		return nil
	}
	r.snap = nil
	// Adopt the sender's dedup horizon along with its state: retries of
	// transactions already reflected in the transferred rows must be
	// deduplicated here exactly as the established replicas do.
	r.exec.InstallSnapshot(s.Executed)
	for c, seq := range s.LastSeq {
		r.exec.SetLastSeq(c, seq)
	}
	r.exec.AdoptRecent(s.Recent)
	if r.view != nil && (len(s.Epochs) > 0 || len(s.Joined) > 0) {
		r.view.Adopt(s.Epochs, s.Joined)
		r.refreshPeers(r.view.Current())
	}
	if r.lease != nil && len(s.Recent) > 0 {
		// The transfer may cover writes whose acks were suppressed
		// everywhere (no valid holder while they applied); re-emit the
		// adopted results at the next valid grant.
		r.ackGap = true
	}
	r.active = true
	coveredSlot := int(s.Order)
	var outs []msg.Directive
	for _, d := range r.buffer {
		if d.Slot <= coveredSlot {
			continue
		}
		outs = append(outs, r.applyBatch(d)...)
	}
	r.buffer = nil
	if r.stable != nil {
		// A full transfer supersedes the local journal: advance the
		// frontier to the covered slot, persist the transferred state as
		// the new baseline, and drain any out-of-order deliveries that
		// were parked while the transfer ran.
		if coveredSlot > r.lastSlot {
			r.lastSlot = coveredSlot
		}
		if err := r.saveSMRSnapshot(); err != nil {
			panic(fmt.Sprintf("core: smr baseline after transfer: %v", err))
		}
		for slot := range r.pending {
			if slot <= r.lastSlot {
				delete(r.pending, slot)
			}
		}
		outs = append(outs, r.drainPending()...)
	}
	return outs
}

// ------------------------------------------------------------- payloads --

// gobBasics registers the basic types that travel inside TxRequest.Args
// (interface-typed fields need explicit registration).
var gobBasics = sync.OnceFunc(func() {
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(int(0))
	gob.Register(true)
})

// EncodeTx serializes a transaction request for a broadcast payload.
func EncodeTx(req TxRequest) ([]byte, error) {
	gobBasics()
	var buf bytes.Buffer
	buf.WriteString("tx|")
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return nil, fmt.Errorf("core: encode tx: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeTx reverses EncodeTx.
func DecodeTx(b []byte) (TxRequest, error) {
	gobBasics()
	if len(b) < 3 || string(b[:3]) != "tx|" {
		return TxRequest{}, errStray
	}
	var req TxRequest
	if err := gob.NewDecoder(bytes.NewReader(b[3:])).Decode(&req); err != nil {
		return TxRequest{}, fmt.Errorf("core: decode tx: %w", err)
	}
	return req, nil
}

// EncodeSMRAdd serializes a reconfiguration request.
func EncodeSMRAdd(a SMRAddReplica) []byte {
	return []byte(fmt.Sprintf("add|%s|%s|%s", a.New, a.Remove, a.Proposer))
}

// DecodeSMRAdd recognizes a reconfiguration payload.
func DecodeSMRAdd(b []byte) (SMRAddReplica, bool) {
	parts := splitBytes(b, '|')
	if len(parts) != 4 || parts[0] != "add" {
		return SMRAddReplica{}, false
	}
	return SMRAddReplica{
		New: msg.Loc(parts[1]), Remove: msg.Loc(parts[2]), Proposer: msg.Loc(parts[3]),
	}, true
}
