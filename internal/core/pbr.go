package core

import (
	"sort"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/sqldb"
)

// PBR: primary-backup replication (Section III-A of the paper).
//
// Normal case: the client sends T to the primary; the primary executes
// and commits T, forwards it to the backups; each backup executes,
// commits and acknowledges; the primary answers the client once every
// active backup has acknowledged. Execution is sequential at every
// replica.
//
// Recovery: replicas monitor each other with heartbeats. A replica that
// suspects a crash stops the configuration and proposes a successor
// configuration through the total order broadcast service, tagged with
// the current configuration's sequence number so only the first proposal
// per configuration wins. Members of the new configuration exchange
// (seq+1, executedSeq); the member with the highest executed sequence
// number (ties to the smallest identifier) becomes primary, brings the
// others up to date with its journal tail or a full state transfer,
// and resumes once the required acknowledgments arrive. With three or
// more members the primary resumes as soon as one backup is up to date
// and overlaps the remaining snapshots with normal processing (the
// paper's state-transfer overlap optimization).

// PBRDeployment is the static description of a PBR group.
type PBRDeployment struct {
	// Pool is every replica location, in spare-preference order. The
	// initial configuration uses the first InitialMembers of them.
	Pool []msg.Loc
	// InitialMembers is the initial group size (primary + backups).
	InitialMembers int
	// BcastNodes are the total order broadcast service locations used for
	// recovery proposals.
	BcastNodes []msg.Loc
	// Timing holds the failure-detector knobs.
	Timing Timing
}

// InitialConfig returns configuration 0.
func (d PBRDeployment) InitialConfig() Config {
	n := d.InitialMembers
	if n <= 0 || n > len(d.Pool) {
		n = len(d.Pool)
	}
	return Config{Seq: 0, Members: append([]msg.Loc(nil), d.Pool[:n]...)}
}

// PBRReplica is one replica of a primary-backup group. It implements
// gpm.Process; all state is single-owner.
type PBRReplica struct {
	slf  msg.Loc
	dep  PBRDeployment
	exec *Executor
	cfg  Config

	// stopped marks the configuration halted for recovery.
	stopped bool
	// buffered client requests while stopped (primary side).
	heldReqs []TxRequest

	// failure detector
	missed    map[msg.Loc]int
	suspected map[msg.Loc]bool
	hbStarted bool

	// primary state
	pending map[int64]*ackWait
	// syncing marks backups still receiving a snapshot (overlap mode).
	syncing map[msg.Loc]bool
	// recovered marks backups that confirmed they are in sync.
	recovered map[msg.Loc]bool

	// backup state: forwards that arrived ahead of Executed+1, or while
	// a state transfer is being assembled.
	park reorder[Repl]
	// gap paces the catch-up requests to the primary that forwards
	// buffered behind a replication gap trigger.
	gap gapPacer
	// stuckTicks counts heartbeat periods spent stopped without any
	// transfer traffic; every few of them the catch-up request escalates
	// to a forced resync (the in-flight transfer was lost).
	stuckTicks int
	// snapXfer numbers outgoing state transfers (primary side).
	snapXfer int64

	// election state
	electing bool
	votes    map[msg.Loc]Elect

	// broadcast interaction
	bseq     int64
	lastSlot int

	// cost accounting for the simulator (virtual CPU of the last step)
	stepCost time.Duration

	// recoverAt stamps when this replica entered recovery (observability
	// only; never read by the protocol).
	recoverAt int64

	// DeliveredConfigs counts adopted configurations (observability).
	DeliveredConfigs int
}

var _ gpm.Process = (*PBRReplica)(nil)

type ackWait struct {
	req    TxRequest
	res    TxResult
	needed map[msg.Loc]bool
	at     int64 // submit timestamp (observability only)
}

// NewPBRReplica creates a replica. The database starts empty; initial
// schema/population is installed by the deployment before traffic starts
// (replicas of a configuration start in the same state). It journals
// into a private in-memory store that dies with it (NewDurablePBRReplica
// gives it a durable one): catch-up is served from the journal tail.
func NewPBRReplica(slf msg.Loc, db *sqldb.DB, reg Registry, dep PBRDeployment) *PBRReplica {
	if dep.Timing == (Timing{}) {
		dep.Timing = DefaultTiming()
	}
	exec := NewExecutor(db, reg)
	exec.journal("pbr-"+string(slf), nil, DefaultSnapEvery)
	return &PBRReplica{
		slf:       slf,
		dep:       dep,
		exec:      exec,
		cfg:       dep.InitialConfig(),
		missed:    make(map[msg.Loc]int),
		suspected: make(map[msg.Loc]bool),
		pending:   make(map[int64]*ackWait),
		syncing:   make(map[msg.Loc]bool),
		recovered: make(map[msg.Loc]bool),
		park:      make(reorder[Repl]),
		votes:     make(map[msg.Loc]Elect),
		lastSlot:  -1,
	}
}

// Executor exposes the replica's executor (tests and validators).
func (r *PBRReplica) Executor() *Executor { return r.exec }

// ConfigNow returns the replica's current configuration.
func (r *PBRReplica) ConfigNow() Config { return r.cfg }

// IsPrimary reports whether this replica is the current primary.
func (r *PBRReplica) IsPrimary() bool { return r.cfg.Primary() == r.slf }

// Stopped reports whether the configuration is halted for recovery.
func (r *PBRReplica) Stopped() bool { return r.stopped }

// LastCost returns the virtual CPU cost of the most recent Step, for the
// simulator's service-time accounting.
func (r *PBRReplica) LastCost() time.Duration { return r.stepCost }

// Halted implements gpm.Process.
func (r *PBRReplica) Halted() bool { return false }

// Step implements gpm.Process.
func (r *PBRReplica) Step(in msg.Msg) (gpm.Process, []msg.Directive) {
	r.stepCost = 0
	statsBefore := r.exec.DB.Stats()
	var outs []msg.Directive
	switch in.Hdr {
	case HdrTx:
		outs = r.onTx(in.Body.(TxRequest))
	case HdrRepl:
		outs = r.onRepl(in.Body.(Repl))
	case HdrReplAck:
		outs = r.onReplAck(in.Body.(ReplAck))
	case HdrHeartbeat:
		outs = r.onHeartbeat(in.Body.(Heartbeat))
	case HdrHBTick:
		outs = r.onHBTick()
	case broadcast.HdrDeliver:
		outs = r.onDeliver(in.Body.(broadcast.Deliver))
	case HdrElect:
		outs = r.onElect(in.Body.(Elect))
	case HdrCatchup:
		outs = r.onCatchup(in.Body.(Catchup))
	case HdrCatchupReq:
		outs = r.onCatchupReq(in.Body.(CatchupReq))
	case HdrSnapPart:
		outs = r.onSnapPart(in.Body.(SnapPart))
	case HdrRecovered:
		outs = r.onRecovered(in.Body.(Recovered))
	}
	r.stepCost += r.exec.DB.Engine().CostOf(r.exec.DB.Stats().Sub(statsBefore))
	return r, outs
}

// Start returns the directives that boot the replica's failure detector.
// The deployment sends the returned messages once at time zero.
func (r *PBRReplica) Start() []msg.Directive {
	if r.hbStarted {
		return nil
	}
	r.hbStarted = true
	return []msg.Directive{msg.SendAfter(r.dep.Timing.HeartbeatEvery, r.slf, msg.M(HdrHBTick, nil))}
}

// ------------------------------------------------------------ normal case --

func (r *PBRReplica) onTx(req TxRequest) []msg.Directive {
	if !r.cfg.Contains(r.slf) || r.cfg.Primary() != r.slf {
		return []msg.Directive{msg.Send(req.Client, msg.M(HdrRedirect, Redirect{
			Primary: r.cfg.Primary(), CfgSeq: r.cfg.Seq,
		}))}
	}
	if r.stopped {
		if len(r.heldReqs) >= maxHeldReqs {
			// Shed rather than grow without bound during a long recovery;
			// the client's retry timer (with backoff) re-submits.
			return nil
		}
		r.heldReqs = append(r.heldReqs, req)
		return nil
	}
	return r.execAsPrimary(req)
}

// maxHeldReqs bounds the requests a stopped primary buffers for replay at
// resume. Beyond it, requests are dropped and covered by client retry.
const maxHeldReqs = 4096

func (r *PBRReplica) execAsPrimary(req TxRequest) []msg.Directive {
	if res, dup := r.exec.Duplicate(req); dup {
		return []msg.Directive{msg.Send(req.Client, msg.M(HdrTxResult, res))}
	}
	mPBRTxs.Inc()
	t0 := obs.Default.Now()
	order := r.exec.Executed + 1
	res, err := r.exec.Apply(order, req)
	if err != nil {
		res = TxResult{Client: req.Client, Seq: req.Seq, Err: err.Error()}
		return []msg.Directive{msg.Send(req.Client, msg.M(HdrTxResult, res))}
	}
	repl := Repl{CfgSeq: r.cfg.Seq, Order: order, Req: req}
	r.applied(repl)
	gExecuted.Set(r.exec.Executed)
	needed := make(map[msg.Loc]bool)
	var outs []msg.Directive
	for _, b := range r.cfg.Backups() {
		outs = append(outs, msg.Send(b, msg.M(HdrRepl, repl)))
		if !r.syncing[b] {
			needed[b] = true
		}
	}
	if len(needed) == 0 {
		mPBRCommits.Inc()
		mPBRNS.Observe(obs.Default.Now() - t0)
		return append(outs, msg.Send(req.Client, msg.M(HdrTxResult, res)))
	}
	r.pending[order] = &ackWait{req: req, res: res, needed: needed, at: t0}
	return outs
}

func (r *PBRReplica) onRepl(rep Repl) []msg.Directive {
	if rep.CfgSeq != r.cfg.Seq {
		return nil // backups only accept matching configuration tags
	}
	if r.exec.receiving() {
		// Receiving a snapshot: park and apply afterwards.
		r.park[rep.Order] = rep
		return nil
	}
	if rep.Order <= r.exec.Executed {
		return []msg.Directive{r.ack(rep.Order)}
	}
	r.park[rep.Order] = rep
	outs := r.drainRepl()
	if len(r.park) > 0 {
		// Forwards are piling up behind a hole the primary will never
		// retransmit on its own (a Repl lost to the network). Ask for the
		// missing range explicitly, pacing requests so a burst of buffered
		// forwards costs one round trip — but re-asking while stuck, in
		// case the request or its answer is lost too.
		if r.gap.ask() {
			outs = append(outs, msg.Send(r.cfg.Primary(), msg.M(HdrCatchupReq, CatchupReq{
				CfgSeq: r.cfg.Seq, From: r.slf, After: r.exec.Executed,
			})))
		}
	}
	return outs
}

// drainRepl applies the parked forwards contiguous with Executed.
func (r *PBRReplica) drainRepl() []msg.Directive {
	var outs []msg.Directive
	for {
		rep, ok := r.park.next(r.exec.Executed)
		if !ok {
			return outs
		}
		if _, err := r.exec.Apply(rep.Order, rep.Req); err != nil {
			return outs
		}
		r.gap = 0
		r.applied(rep)
		outs = append(outs, r.ack(rep.Order))
	}
}

// ack acknowledges one executed forward to the primary.
func (r *PBRReplica) ack(order int64) msg.Directive {
	return msg.Send(r.cfg.Primary(), msg.M(HdrReplAck, ReplAck{CfgSeq: r.cfg.Seq, Order: order, From: r.slf}))
}

func (r *PBRReplica) onReplAck(ack ReplAck) []msg.Directive {
	if ack.CfgSeq != r.cfg.Seq {
		return nil
	}
	w, ok := r.pending[ack.Order]
	if !ok {
		return nil
	}
	delete(w.needed, ack.From)
	if len(w.needed) > 0 {
		return nil
	}
	delete(r.pending, ack.Order)
	mPBRCommits.Inc()
	mPBRNS.Observe(obs.Default.Now() - w.at)
	return []msg.Directive{msg.Send(w.req.Client, msg.M(HdrTxResult, w.res))}
}

// --------------------------------------------------------- failure detect --

func (r *PBRReplica) onHBTick() []msg.Directive {
	outs := []msg.Directive{msg.SendAfter(r.dep.Timing.HeartbeatEvery, r.slf, msg.M(HdrHBTick, nil))}
	if !r.cfg.Contains(r.slf) {
		return outs // spares stay passive
	}
	hb := r.heartbeat()
	limit := int(r.dep.Timing.SuspectAfter / r.dep.Timing.HeartbeatEvery)
	for _, m := range r.cfg.Members {
		if m == r.slf {
			continue
		}
		outs = append(outs, msg.Send(m, msg.M(HdrHeartbeat, hb)))
		r.missed[m]++
		if r.missed[m] > limit && !r.suspected[m] && !r.stopped {
			r.suspected[m] = true
			outs = append(outs, r.suspect(m)...)
		}
	}
	if r.electing {
		// An election is only as live as its votes: they are sent once at
		// the configuration delivery, and a member on the wrong side of a
		// partition at that moment never sees ours (suspicion cannot break
		// the tie — every member is stopped during an election). Re-send
		// our vote to members we have not heard from until the tally
		// closes, so the election completes as soon as the network heals.
		vote := Elect{CfgSeq: r.cfg.Seq, From: r.slf, Executed: r.exec.Executed, HasData: r.hasData()}
		for _, m := range r.cfg.Members {
			if m == r.slf {
				continue
			}
			if _, ok := r.votes[m]; !ok {
				outs = append(outs, msg.Send(m, msg.M(HdrElect, vote)))
			}
		}
	}
	return outs
}

// heartbeat is this replica's liveness probe and configuration gossip.
func (r *PBRReplica) heartbeat() Heartbeat {
	return Heartbeat{
		From: r.slf, CfgSeq: r.cfg.Seq,
		Members: append([]msg.Loc(nil), r.cfg.Members...),
		Stopped: r.stopped,
		Elected: !r.electing,
	}
}

// onHeartbeat processes a liveness probe and its piggybacked
// configuration gossip. Beyond resetting the failure detector, it closes
// the recovery holes a faulty network opens: replicas that missed a
// reconfiguration adopt it from gossip, stale non-members are told to
// stand down, healed partitions un-suspect peers (resuming a stop whose
// reconfiguration proposal was lost), and signals dropped on the wire
// (Catchup, Recovered) are re-solicited.
func (r *PBRReplica) onHeartbeat(hb Heartbeat) []msg.Directive {
	switch {
	case hb.CfgSeq > r.cfg.Seq && len(hb.Members) > 0:
		return r.adoptConfig(hb)
	case hb.CfgSeq < r.cfg.Seq:
		if !r.cfg.Contains(hb.From) {
			// A stale non-member (e.g. a restarted old primary still
			// probing its defunct membership) never hears our periodic
			// heartbeats; push it our configuration so it can stand down.
			return []msg.Directive{msg.Send(hb.From, msg.M(HdrHeartbeat, r.heartbeat()))}
		}
		return nil // member momentarily behind; its own deliver fixes it
	}
	r.missed[hb.From] = 0
	var outs []msg.Directive
	if r.electing && hb.Elected {
		// The tally closed without us — votes crossed a partition — and
		// the sender already runs the elected order. Adopt it; the
		// stopped-backup repair below fetches whatever we missed.
		r.cfg.Members = append([]msg.Loc(nil), hb.Members...)
		r.electing = false
		traceRecovery(r.slf, "pbr.adoptelection", r.cfg.Seq, "from="+string(hb.From))
	}
	if r.suspected[hb.From] {
		// The suspect is provably alive: a partition healed. Clear the
		// suspicion, and if the stop-for-recovery has lost its last reason
		// (no election running, no surviving suspects), resume rather than
		// wait for a reconfiguration that may never have been agreed.
		delete(r.suspected, hb.From)
		traceRecovery(r.slf, "pbr.unsuspect", r.cfg.Seq, "peer="+string(hb.From))
		if r.stopped && !r.electing && !r.exec.receiving() && len(r.suspected) == 0 {
			outs = append(outs, r.resume()...)
		}
	}
	if r.stopped && !r.electing && !r.exec.receiving() &&
		hb.From == r.cfg.Primary() && r.cfg.Primary() != r.slf {
		// Still halted while the primary is up with no transfer arriving:
		// the Catchup or SnapPart that should have released us was lost.
		// Ask again. The primary ignores repeats while a transfer to us is
		// in flight, so after several unanswered asks escalate to a forced
		// resync — that in-flight transfer is not coming.
		r.stuckTicks++
		outs = append(outs, msg.Send(r.cfg.Primary(), msg.M(HdrCatchupReq, CatchupReq{
			CfgSeq: r.cfg.Seq, From: r.slf, After: r.exec.Executed,
			Resync: r.stuckTicks%4 == 0,
		})))
	}
	if hb.Stopped && hb.From == r.cfg.Primary() && !r.stopped && !r.electing &&
		!r.exec.receiving() && r.slf != r.cfg.Primary() {
		// The primary is still waiting out recovery but we are in sync:
		// our Recovered was lost. Repeat it.
		outs = append(outs, r.inSync())
	}
	return outs
}

// adoptConfig installs a configuration learned from gossip — the path
// for replicas that missed the reconfiguration broadcast (restarted, or
// partitioned away while it was agreed).
func (r *PBRReplica) adoptConfig(hb Heartbeat) []msg.Directive {
	traceRecovery(r.slf, "pbr.adopt", hb.CfgSeq, "from="+string(hb.From))
	member := r.enterConfig(hb.CfgSeq, hb.Members)
	outs := r.flushHeld()
	if !member {
		return outs // excluded while away
	}
	// Member of the adopted configuration but behind its history: ask
	// the primary to close the gap. The request is repeated from
	// onHeartbeat while we stay stopped, so losing it is not fatal.
	if r.recoverAt == 0 {
		r.recoverAt = obs.Default.Now()
	}
	return append(outs, msg.Send(r.cfg.Primary(), msg.M(HdrCatchupReq, CatchupReq{
		CfgSeq: r.cfg.Seq, From: r.slf, After: r.exec.Executed,
	})))
}

// enterConfig installs a configuration, clears every piece of
// per-configuration state and halts normal processing until recovery
// (the caller says how) brings this replica in line with its history.
// It reports false when the configuration excludes this replica, which
// falls back to spare duty: its state may have diverged from the
// surviving chain — transactions executed as a primary whose acks never
// committed — and divergent state must not win a later election, so it
// is wiped, to be repopulated by snapshot if the replica is re-added.
func (r *PBRReplica) enterConfig(seq int, members []msg.Loc) bool {
	r.cfg = Config{Seq: seq, Members: append([]msg.Loc(nil), members...)}
	r.electing = false
	r.votes = make(map[msg.Loc]Elect)
	r.pending = make(map[int64]*ackWait)
	r.park = make(reorder[Repl])
	r.syncing = make(map[msg.Loc]bool)
	r.recovered = make(map[msg.Loc]bool)
	r.missed = make(map[msg.Loc]int)
	r.suspected = make(map[msg.Loc]bool)
	r.exec.xfer = nil
	r.gap = 0
	r.stuckTicks = 0
	r.stopped = r.cfg.Contains(r.slf)
	if !r.stopped {
		r.wipeToSpare()
	}
	return r.stopped
}

// wipeToSpare discards the replica's database and execution history,
// returning it to the fresh-spare state (hasData() false) — in the
// store too, or a restart over it would bring the divergent state back.
func (r *PBRReplica) wipeToSpare() {
	_ = r.exec.DB.Restore(nil)
	r.exec.InstallSnapshot(0, nil, nil)
	must(r.exec.Compact())
	traceRecovery(r.slf, "pbr.wipe", r.cfg.Seq, "")
}

// flushHeld redirects requests buffered while this replica was a stopped
// primary to the configuration's (new) primary. The clients resend with
// their original sequence numbers, so exactly-once execution holds.
func (r *PBRReplica) flushHeld() []msg.Directive {
	if len(r.heldReqs) == 0 {
		return nil
	}
	held := r.heldReqs
	r.heldReqs = nil
	outs := make([]msg.Directive, 0, len(held))
	for _, req := range held {
		outs = append(outs, msg.Send(req.Client, msg.M(HdrRedirect, Redirect{
			Primary: r.cfg.Primary(), CfgSeq: r.cfg.Seq,
		})))
	}
	return outs
}

// suspect stops the configuration and proposes a successor through the
// total order broadcast service.
func (r *PBRReplica) suspect(dead msg.Loc) []msg.Directive {
	r.stopped = true
	mSuspects.Inc()
	r.recoverAt = obs.Default.Now()
	traceRecovery(r.slf, "pbr.suspect", r.cfg.Seq, "dead="+string(dead))
	var members []msg.Loc
	for _, m := range r.cfg.Members {
		if m != dead && !r.suspected[m] {
			members = append(members, m)
		}
	}
	// Refill from spares, preserving pool order.
	want := len(r.cfg.Members)
	for _, p := range r.dep.Pool {
		if len(members) >= want {
			break
		}
		if !r.cfg.Contains(p) && !r.suspected[p] {
			members = append(members, p)
		}
	}
	// A proposal is locations and integers, which always encode.
	payload, _ := msg.AppendBody(nil, NewConfig{OldSeq: r.cfg.Seq, Members: members, Proposer: r.slf})
	r.bseq++
	b := broadcast.Bcast{From: r.slf, Seq: r.bseq, Payload: payload}
	var outs []msg.Directive
	for _, n := range r.dep.BcastNodes {
		outs = append(outs, msg.Send(n, msg.M(broadcast.HdrBcast, b)))
	}
	return outs
}

// ---------------------------------------------------------------- recovery --

func (r *PBRReplica) onDeliver(d broadcast.Deliver) []msg.Directive {
	if d.Slot <= r.lastSlot {
		return nil // duplicate notification from another service node
	}
	r.lastSlot = d.Slot
	var outs []msg.Directive
	for _, b := range d.Msgs {
		if msg.PayloadTag(b.Payload) != configTag {
			continue
		}
		if prop, err := msg.DecodeBody[NewConfig](b.Payload); err == nil {
			outs = append(outs, r.onNewConfig(prop)...)
		}
	}
	return outs
}

func (r *PBRReplica) onNewConfig(prop NewConfig) []msg.Directive {
	if prop.OldSeq != r.cfg.Seq {
		return nil // only the first proposal per configuration counts
	}
	r.DeliveredConfigs++
	mReconfigs.Inc()
	if r.recoverAt == 0 {
		r.recoverAt = obs.Default.Now()
	}
	traceRecovery(r.slf, "pbr.newconfig", prop.OldSeq+1, "proposer="+string(prop.Proposer))
	if !r.enterConfig(prop.OldSeq+1, prop.Members) {
		return r.flushHeld() // excluded: point held clients at the successor group
	}
	r.electing = true
	vote := Elect{CfgSeq: r.cfg.Seq, From: r.slf, Executed: r.exec.Executed, HasData: r.hasData()}
	outs := make([]msg.Directive, 0, len(r.cfg.Members))
	for _, m := range r.cfg.Members {
		if m == r.slf {
			outs = append(outs, r.recordVote(vote)...)
			continue
		}
		outs = append(outs, msg.Send(m, msg.M(HdrElect, vote)))
	}
	return outs
}

// hasData reports whether the replica holds a database copy (fresh spares
// do not; anything that has executed or restored state does).
func (r *PBRReplica) hasData() bool {
	return r.exec.Executed > 0 || r.exec.DB.NumTables() > 0
}

func (r *PBRReplica) onElect(v Elect) []msg.Directive {
	if v.CfgSeq != r.cfg.Seq || !r.electing {
		return nil
	}
	return r.recordVote(v)
}

func (r *PBRReplica) recordVote(v Elect) []msg.Directive {
	r.votes[v.From] = v
	if len(r.votes) < len(r.cfg.Members) {
		return nil
	}
	// Every member heard from: elect the candidate with the highest
	// executed sequence number; ties go to the smallest identifier. Only
	// replicas holding a full database copy are candidates.
	members := append([]msg.Loc(nil), r.cfg.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	var primary msg.Loc
	best := int64(-1)
	for _, m := range members {
		v := r.votes[m]
		if !v.HasData {
			continue
		}
		if v.Executed > best {
			best, primary = v.Executed, m
		}
	}
	if primary == "" {
		// No member has data (cannot happen with a sane pool); keep
		// waiting for another configuration.
		return nil
	}
	ordered := []msg.Loc{primary}
	for _, m := range r.cfg.Members {
		if m != primary {
			ordered = append(ordered, m)
		}
	}
	r.cfg.Members = ordered
	r.electing = false
	mElections.Inc()
	traceRecovery(r.slf, "pbr.elected", r.cfg.Seq, "primary="+string(primary))
	if r.slf != primary {
		// Backups wait for catch-up (or resume directly if in sync —
		// the primary tells them via an empty catch-up). A former primary
		// demoted here redirects its held clients to the winner.
		return r.flushHeld()
	}
	return r.primarySync()
}

// primarySync brings every backup up to date: the journal tail where it
// reaches back, a full state transfer otherwise.
func (r *PBRReplica) primarySync() []msg.Directive {
	var outs []msg.Directive
	for _, b := range r.cfg.Backups() {
		outs = append(outs, r.repair(b, r.votes[b].Executed, r.votes[b].HasData)...)
	}
	if len(r.cfg.Backups()) == 0 {
		// Sole survivor: resume alone (the crash of all but one replica
		// can be masked).
		return append(outs, r.resume()...)
	}
	return outs
}

// repair brings one backup up to date from its frontier: the journal
// records after it where the journal reaches back that far and the
// backup holds a database to apply them to, a full state transfer
// otherwise. Each transfer gets a fresh id so the receiver can tell a
// replacement from stragglers of a lost one.
func (r *PBRReplica) repair(b msg.Loc, after int64, hasData bool) []msg.Directive {
	if hasData {
		if outs, ok := r.exec.serveCatchup(b, r.cfg.Seq, after, orderOf); ok {
			return outs
		}
	}
	r.syncing[b] = true
	r.snapXfer++
	outs, cost := r.exec.SnapshotDirectives(b, r.cfg.Seq, r.snapXfer)
	r.stepCost += cost
	return outs
}

// onCatchupReq answers a backup's explicit repair request.
func (r *PBRReplica) onCatchupReq(q CatchupReq) []msg.Directive {
	if q.CfgSeq != r.cfg.Seq || r.cfg.Primary() != r.slf || !r.cfg.Contains(q.From) {
		return nil
	}
	if r.syncing[q.From] && !q.Resync {
		// A state transfer to this backup is already in flight; a repeated
		// request just means it has not landed yet. Re-snapshotting on
		// every ask would stack transfers — each one a full serialization
		// on our CPU and a restart of the backup's assembly.
		return nil
	}
	return r.repair(q.From, q.After, true)
}

// onCatchup applies the primary's journal records: the contiguous run
// from Executed+1 is group-committed in one SQL-engine critical section
// and journaled verbatim. A gap, a record that does not decode or a
// request Apply refuses ends the run (the rest waits for a repair).
func (r *PBRReplica) onCatchup(c Catchup) []msg.Directive {
	if c.CfgSeq != r.cfg.Seq {
		return nil
	}
	r.stuckTicks = 0
	var outs []msg.Directive
	var reqs []TxRequest
	var recs [][]byte
	for _, rec := range c.Records {
		x, err := msg.DecodeBody[Repl](rec)
		if err != nil {
			break
		}
		next := r.exec.Executed + int64(len(reqs)) + 1
		if x.Order < next {
			continue
		}
		if x.Order != next || x.Req.Seq < 0 {
			break
		}
		reqs = append(reqs, x.Req)
		recs = append(recs, rec)
	}
	first := r.exec.Executed + 1
	for i := range r.exec.ApplyBatch(reqs) {
		// Ack each repaired transaction: the primary may hold a pending
		// commit waiting on exactly this order (gap repair during normal
		// processing, not just post-election catch-up).
		must(r.exec.st.Append(recs[i]))
		outs = append(outs, r.ack(first+int64(i)))
	}
	r.exec.compactIfDue()
	// Forwards parked behind the repaired gap may now be contiguous.
	r.park.settle(r.exec.Executed)
	outs = append(outs, r.drainRepl()...)
	wasStopped := r.stopped
	r.stopped = false
	if wasStopped {
		r.closeRecovery("pbr.recovered")
	}
	return append(outs, r.inSync())
}

// orderOf reads a PBR journal record's order number.
func orderOf(rec []byte) (int64, bool) {
	p, err := msg.DecodeBody[Repl](rec)
	return p.Order, err == nil
}

// applied journals a transaction the executor applied, on any path, as
// the Repl that forwards it — after its dedup record, so a compaction
// here snapshots that too, and before the reply or ack.
func (r *PBRReplica) applied(p Repl) {
	must(r.exec.st.Append(r.exec.encodeRecord(p)))
	r.exec.compactIfDue()
}

// replayTx applies a journaled transaction that is the next order
// number; a pre-snapshot straggler or a duplicate is skipped.
func (r *PBRReplica) replayTx(rec []byte) error {
	p, err := msg.DecodeBody[Repl](rec)
	if err != nil || p.Order != r.exec.Executed+1 {
		return err
	}
	_, err = r.exec.Apply(p.Order, p.Req)
	return err
}

// inSync tells the primary this backup is up to date.
func (r *PBRReplica) inSync() msg.Directive {
	return msg.Send(r.cfg.Primary(), msg.M(HdrRecovered, Recovered{CfgSeq: r.cfg.Seq, From: r.slf}))
}

// closeRecovery ends this replica's recovery window (observability);
// kind names how: pbr.recovered for a backup back in sync, pbr.resume
// for a primary re-opening the configuration.
func (r *PBRReplica) closeRecovery(kind string) {
	if r.recoverAt != 0 {
		mRecoverNS.Observe(obs.Default.Now() - r.recoverAt)
		r.recoverAt = 0
	}
	traceRecovery(r.slf, kind, r.cfg.Seq, "")
}

// onSnapPart takes one part of a state transfer of this configuration;
// once it is assembled, the replica installs it, reports in sync, and
// applies the forwards parked meanwhile.
func (r *PBRReplica) onSnapPart(p SnapPart) []msg.Directive {
	if p.CfgSeq != r.cfg.Seq {
		return nil
	}
	took, snap := r.exec.snapPart(p)
	if took {
		r.stuckTicks = 0
	}
	if snap == nil {
		return nil
	}
	h, img, err := splitSnapshot(snap)
	if err != nil {
		return nil
	}
	cost, err := r.exec.install(h, img)
	r.stepCost += cost
	if err != nil {
		return nil
	}
	r.stopped = false
	r.closeRecovery("pbr.recovered")
	outs := []msg.Directive{r.inSync()}
	for _, rep := range r.park.take() {
		outs = append(outs, r.onRepl(rep)...)
	}
	return outs
}

func (r *PBRReplica) onRecovered(rec Recovered) []msg.Directive {
	if rec.CfgSeq != r.cfg.Seq || r.cfg.Primary() != r.slf {
		return nil
	}
	delete(r.syncing, rec.From)
	r.recovered[rec.From] = true
	if !r.stopped {
		return nil // already resumed (overlap mode); the ack set just grew
	}
	// Resume once every backup confirmed, or — the paper's overlap
	// optimization — with three or more members as soon as one backup is
	// up to date, propagating the remaining snapshots in parallel.
	allDone := len(r.recovered) == len(r.cfg.Backups())
	overlap := len(r.cfg.Members) >= 3 && len(r.recovered) >= 1
	if allDone || overlap {
		return r.resume()
	}
	return nil
}

// resume re-opens the configuration for client traffic and replays the
// requests held during recovery.
func (r *PBRReplica) resume() []msg.Directive {
	r.stopped = false
	r.closeRecovery("pbr.resume")
	held := r.heldReqs
	r.heldReqs = nil
	var outs []msg.Directive
	for _, req := range held {
		outs = append(outs, r.execAsPrimary(req)...)
	}
	return outs
}
