package shard

import (
	"errors"
	"fmt"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/flow"
	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/store"
)

// Config parameterizes a Router.
type Config struct {
	// Slf is the router's own location (votes, acks, and timers arrive
	// here; it is also the 2PC coordinator identity in Prepare records).
	Slf msg.Loc
	// Part places keys on shards. Part.N() must equal len(Shards).
	Part Partitioner
	// App supplies key extraction and cross-shard splitting.
	App App
	// Shards lists each shard's broadcast service nodes: Shards[k] are the
	// locations accepting HdrBcast for shard k's total order.
	Shards [][]msg.Loc
	// Retry is the coordinator's retransmission period for 2PC records
	// (0 = 500ms). Retransmissions are idempotent at the replicas, so a
	// tight period trades duplicate ordered records for recovery latency.
	Retry time.Duration
	// Stable, when set, journals the coordinator's write-ahead records
	// (begin before the first prepare, the decision before it is revealed)
	// so a restarted router drives every open transaction to its decided
	// outcome instead of leaving participants half-prepared.
	Stable store.Stable
	// MaxInflight bounds concurrent cross-shard transactions the
	// coordinator holds open (0 = unlimited). An arrival over the bound
	// is answered with an explicit flow.Reject (ReasonOverload) — never
	// silently dropped — and an admitted transaction always runs to its
	// decided outcome, so the bound caps coordinator memory and the
	// blast radius of a 2PC stall without ever abandoning prepared
	// participants. Single-shard forwards are not counted here: they are
	// bounded by the owning shard's own sequencer admission queue.
	MaxInflight int
	// Now is the deployment clock (virtual in simulation, wall live).
	// Required for deadline checks and the retry budget.
	Now func() time.Duration
	// Budget, when set, throttles 2PC re-drive rounds: each retry-timer
	// retransmission spends one token, and an empty bucket skips that
	// round (the timer stays armed — the transaction is never
	// abandoned). This keeps coordinator retransmissions from amplifying
	// the congestion that delayed the votes in the first place.
	Budget *flow.RetryBudget
}

func (c Config) now() time.Duration {
	if c.Now == nil {
		return 0
	}
	return c.Now()
}

func (c Config) retry() time.Duration {
	if c.Retry <= 0 {
		return 500 * time.Millisecond
	}
	return c.Retry
}

// Router fronts the sharded deployment: clients address it like a
// replica (core.HdrTx), single-shard requests are forwarded into the
// owning shard's total order unchanged, and cross-shard requests run
// two-phase commit with the router as coordinator. All coordinator state
// transitions are journaled write-ahead, making the 2PC outcome as
// durable as the router's Stable — and because the records themselves
// are ordered through each participant's broadcast, participants recover
// the outcome from their own WALs even if the router's journal is lost.
type Router struct {
	cfg Config
	// seq numbers the router's own broadcasts. Every (re)transmission
	// takes a fresh value: the broadcast layer dedups on (From, Seq), so
	// reusing one could silently swallow a retransmission whose first
	// copy was ordered but whose vote or ack was lost.
	seq int64
	// txs holds in-flight cross-shard transactions by TxID.
	txs map[string]*txState
	// doneRes answers duplicate submissions of completed cross-shard
	// transactions (the coordinator is their only replier, so it keeps
	// its own dedup table just like an executor does).
	doneRes map[string]core.TxResult
	// fwd rotates the target broadcast node per single-shard request key,
	// so a client retry through the router probes another service node.
	fwd map[string]int
	// q bounds admitted-but-undecided cross-shard transactions (nil when
	// Config.MaxInflight is 0).
	q *flow.Queue
	// j is the coordinator's write-ahead journal (nil without
	// Config.Stable).
	j *store.Journal
	// lg logs coordinator lifecycle under the router's own node id.
	lg *obs.Logger
}

// txState is the coordinator's view of one cross-shard transaction.
type txState struct {
	req  core.TxRequest
	subs map[int]SubTx
	// att counts prepare/decision sends per shard — each send rotates the
	// target service node and burns a fresh broadcast seq.
	att     map[int]int
	votes   map[int]bool
	decided bool
	commit  bool
	acked   map[int]bool
	res     core.TxResult
	// admitted records that this transaction holds a flow.Queue slot
	// (released when it completes). Not journaled: replay re-admits
	// recovered transactions best-effort, and only slots actually taken
	// are released.
	admitted bool
}

var _ gpm.Process = (*Router)(nil)

// journalRec is one record of the coordinator's write-ahead journal.
type journalRec struct {
	// Kind is "begin" (prepares about to go out), "decide" (outcome
	// fixed, about to be revealed), or "done" (all participants acked).
	Kind   string
	TxID   string
	Req    core.TxRequest
	Subs   map[int]SubTx
	Commit bool
	// Seq is the router's broadcast seq high-water at journal time;
	// recovery resumes above it (plus headroom for unjournaled resends).
	Seq int64
}

// A journal record is written with the wire codec's Writer, its fields
// in declaration order and Subs in shard order.
func appendJournalRec(w *msg.Writer, jr journalRec) {
	w.Text(jr.Kind)
	w.Text(jr.TxID)
	core.AppendTxRequest(w, jr.Req)
	w.Uvarint(uint64(len(jr.Subs)))
	for _, k := range msg.SortedKeys(jr.Subs) {
		w.Int(k)
		appendSubTx(w, jr.Subs[k])
	}
	w.Bool(jr.Commit)
	w.Int64(jr.Seq)
}

var errRecordKind = errors.New("shard: unknown router record kind")

// minSub is the fewest bytes a shard index and its SubTx occupy.
const minSub = 4

func readJournalRec(r *msg.Reader) journalRec {
	jr := journalRec{Kind: r.Text(), TxID: r.Text(), Req: core.ReadTxRequest(r)}
	if n := r.Count(minSub); n > 0 {
		jr.Subs = make(map[int]SubTx, n)
		for range n {
			k := r.Int()
			jr.Subs[k] = readSubTx(r)
		}
	}
	jr.Commit, jr.Seq = r.Bool(), r.Int64()
	if jr.Kind != "begin" && jr.Kind != "decide" && jr.Kind != "done" {
		r.Fail(errRecordKind)
	}
	return jr
}

// NewRouter builds a router, replaying cfg.Stable if set.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Part == nil || cfg.App == nil {
		return nil, fmt.Errorf("shard: router needs a Partitioner and an App")
	}
	if cfg.Part.N() != len(cfg.Shards) {
		return nil, fmt.Errorf("shard: partitioner has %d shards but %d broadcast groups are configured",
			cfg.Part.N(), len(cfg.Shards))
	}
	for k, nodes := range cfg.Shards {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no broadcast nodes", k)
		}
	}
	r := &Router{
		cfg:     cfg,
		txs:     make(map[string]*txState),
		doneRes: make(map[string]core.TxResult),
		fwd:     make(map[string]int),
		lg:      obs.L("shard.router").WithNode(cfg.Slf),
	}
	if cfg.MaxInflight > 0 {
		// Only writes are admitted here (cross-shard begins); the nested
		// thresholds still need readCap < writeCap < cap, so the write
		// bound is MaxInflight with one control slot of headroom above it.
		m := cfg.MaxInflight
		if m < 2 {
			m = 2
		}
		rc := m / 2
		if rc < 1 {
			rc = 1
		}
		r.q = flow.NewQueueCaps(m+1, rc, m)
	}
	if cfg.Stable != nil {
		r.j = store.NewJournal("router", cfg.Stable, 0)
		found, err := r.j.Recover(r.restore, func(rec []byte) error {
			var jr journalRec
			if err := msg.Read(rec, func(rd *msg.Reader) { jr = readJournalRec(rd) }); err != nil {
				return err
			}
			return r.apply(jr)
		})
		if err != nil {
			return nil, err
		}
		if found {
			// Resume seqs well above the journaled high-water:
			// retransmissions between journal appends burned seqs the
			// journal never saw.
			r.seq += 1 << 20
		}
		if len(r.txs) > 0 {
			r.lg.Infof("journal replay recovered %d open cross-shard transactions, resume seq %d",
				len(r.txs), r.seq)
		}
	}
	return r, nil
}

var errNotResult = errors.New("shard: a router snapshot's result is not a TxResult")

// restore reads a snapshot (see snapshot) back.
func (r *Router) restore(snap []byte) error {
	return msg.Read(snap, func(rd *msg.Reader) {
		r.seq = rd.Int64()
		for n := rd.Count(2); n > 0; n-- { // an id and a result
			id := rd.Text()
			res, ok := rd.Body().(core.TxResult)
			if !ok {
				rd.Fail(errNotResult)
			}
			r.doneRes[id] = res
		}
		for rd.More() {
			if err := r.apply(readJournalRec(rd)); err != nil {
				rd.Fail(err)
			}
		}
	})
}

// apply rebuilds coordinator state from one journal record: a begin
// without a decide re-enters the voting phase (recovery re-sends its
// prepares); a decide without a done re-enters the ack phase (recovery
// re-sends its decisions); a done clears the transaction into the dedup
// table, after which its stragglers are skipped.
func (r *Router) apply(jr journalRec) error {
	r.seq = max(r.seq, jr.Seq)
	if _, done := r.doneRes[jr.TxID]; done {
		return nil
	}
	switch jr.Kind {
	case "begin":
		// Recovered transactions re-occupy admission slots best-effort:
		// they must be driven to completion even when more were open at
		// the crash than the (possibly reconfigured) bound now allows.
		r.txs[jr.TxID] = &txState{
			req: jr.Req, subs: jr.Subs,
			att:   make(map[int]int),
			votes: make(map[int]bool), acked: make(map[int]bool),
			admitted: r.q != nil && r.q.Admit(flow.ClassWrite) == nil,
		}
	case "decide":
		tx, ok := r.txs[jr.TxID]
		if !ok {
			return fmt.Errorf("shard: journal decides unknown transaction %s", jr.TxID)
		}
		tx.decided, tx.commit = true, jr.Commit
		tx.res = r.result(tx.req, jr.Commit)
	case "done":
		if tx, ok := r.txs[jr.TxID]; ok {
			r.doneRes[jr.TxID] = tx.res
			delete(r.txs, jr.TxID)
		}
	}
	return nil
}

// journal appends one record write-ahead of the sends that reveal it,
// and compacts by the Journal's rule. A storage failure panics: a
// coordinator that cannot journal must not reveal the step.
func (r *Router) journal(jr journalRec) {
	if r.j == nil {
		return
	}
	jr.Seq = r.seq
	rec, err := msg.Append(nil, func(w *msg.Writer) { appendJournalRec(w, jr) })
	if err == nil {
		err = r.j.Append(rec)
	}
	if err == nil {
		_, err = r.j.CompactIfDue(r.snapshot)
	}
	if err != nil {
		panic(fmt.Sprintf("shard: router journal: %v", err))
	}
}

// snapshot is the compacted journal: what replaying the records it
// replaces would have rebuilt — the broadcast seq high-water, the dedup
// table in TxID order, and every open transaction as its begin record,
// followed by its decide record once the outcome is fixed.
func (r *Router) snapshot() []byte {
	b, err := msg.Append(nil, func(w *msg.Writer) {
		w.Int64(r.seq)
		w.Uvarint(uint64(len(r.doneRes)))
		for _, id := range msg.SortedKeys(r.doneRes) {
			w.Text(id)
			w.Body(r.doneRes[id])
		}
		for _, id := range msg.SortedKeys(r.txs) {
			tx := r.txs[id]
			appendJournalRec(w, journalRec{Kind: "begin", TxID: id, Req: tx.req, Subs: tx.subs})
			if tx.decided {
				appendJournalRec(w, journalRec{Kind: "decide", TxID: id, Commit: tx.commit})
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("shard: router snapshot: %v", err))
	}
	return b
}

// InFlight counts open cross-shard transactions (zero after a drain
// means no 2PC is stuck mid-protocol).
func (r *Router) InFlight() int { return len(r.txs) }

// Recovered lists the TxIDs the journal replay left open (tests).
func (r *Router) Recovered() []string { return msg.SortedKeys(r.txs) }

// RecoveryDirectives re-drives every journal-recovered open transaction:
// undecided ones re-send prepares (participants re-vote idempotently),
// decided ones re-send decisions. Call once after NewRouter on restart
// and emit the result.
func (r *Router) RecoveryDirectives() []msg.Directive {
	var outs []msg.Directive
	for _, id := range msg.SortedKeys(r.txs) {
		tx := r.txs[id]
		if tx.decided {
			outs = append(outs, r.sendDecisions(id, tx)...)
		} else {
			outs = append(outs, r.sendPrepares(id, tx)...)
		}
		outs = append(outs, r.armRetry(id))
	}
	return outs
}

// Halted implements gpm.Process.
func (r *Router) Halted() bool { return false }

// Step implements gpm.Process.
func (r *Router) Step(in msg.Msg) (gpm.Process, []msg.Directive) {
	switch in.Hdr {
	case core.HdrTx:
		return r, r.onTx(in.Body.(core.TxRequest))
	case HdrVote:
		return r, r.onVote(in.Body.(Vote))
	case HdrAck:
		return r, r.onAck(in.Body.(Ack))
	case HdrRetry:
		return r, r.onRetry(in.Body.(RetryBody))
	}
	return r, nil
}

// onTx classifies a client request: malformed → answer directly,
// single-shard → forward into the owning shard's order, cross-shard →
// coordinate 2PC.
func (r *Router) onTx(req core.TxRequest) []msg.Directive {
	if r.cfg.Now != nil && flow.Expired(req.Deadline, int64(r.cfg.now())) {
		// Expired on arrival: refuse before any shard does work on it.
		// Terminal for the client — a retry cannot meet the deadline.
		flow.MarkExpired()
		return r.reject(req, flow.ClassWrite, flow.ReasonDeadline, 0, 0)
	}
	keys, err := r.cfg.App.Keys(req)
	if err != nil {
		return []msg.Directive{msg.Send(req.Client, msg.M(core.HdrTxResult, core.TxResult{
			Client: req.Client, Seq: req.Seq, Aborted: true, Err: err.Error(),
		}))}
	}
	shards := make(map[int]bool)
	for _, k := range keys {
		shards[r.cfg.Part.Shard(k)] = true
	}
	if len(shards) == 1 {
		for s := range shards {
			return r.forward(s, req)
		}
	}
	return r.onCrossShard(req)
}

// forward injects a single-shard request into shard s's total order. The
// Bcast keeps the client's own (From, Seq) identity so client retries
// dedup in the broadcast layer exactly as in the unsharded deployment,
// and the shard's replicas answer the client directly.
func (r *Router) forward(s int, req core.TxRequest) []msg.Directive {
	payload, err := core.EncodeTx(req)
	if err != nil {
		return []msg.Directive{msg.Send(req.Client, msg.M(core.HdrTxResult, core.TxResult{
			Client: req.Client, Seq: req.Seq, Aborted: true, Err: err.Error(),
		}))}
	}
	nodes := r.cfg.Shards[s]
	att := r.fwd[req.Key()]
	r.fwd[req.Key()] = att + 1
	mRouterForwards.Inc()
	b := broadcast.Bcast{From: req.Client, Seq: req.Seq, Payload: payload, Deadline: req.Deadline}
	return []msg.Directive{msg.Send(nodes[att%len(nodes)], msg.M(broadcast.HdrBcast, b))}
}

// reject answers a refused request with an explicit flow.Reject so the
// client observes the refusal (and the checker can audit it) instead
// of timing out against silence.
func (r *Router) reject(req core.TxRequest, class flow.Class, reason string, depth, qcap int) []msg.Directive {
	flow.MarkReject()
	mRouterRejects.Inc()
	r.lg.Logf(obs.LevelWarn, req.Key(), "refused client request: %s (depth=%d cap=%d)", reason, depth, qcap)
	return []msg.Directive{msg.Send(req.Client, msg.M(flow.HdrReject, flow.Reject{
		From: r.cfg.Slf, Seq: req.Seq, Class: class, Reason: reason, Depth: depth, Cap: qcap,
	}))}
}

// onCrossShard starts (or re-drives) 2PC for a multi-shard request.
func (r *Router) onCrossShard(req core.TxRequest) []msg.Directive {
	id := req.Key()
	if res, ok := r.doneRes[id]; ok {
		// Completed earlier; answer from the coordinator's dedup table.
		return []msg.Directive{msg.Send(req.Client, msg.M(core.HdrTxResult, res))}
	}
	if tx, ok := r.txs[id]; ok {
		// Client retry of an in-flight transaction: retransmit whatever
		// phase it is in rather than starting over.
		return r.redrive(id, tx)
	}
	subs, err := r.cfg.App.Split(req, r.cfg.Part)
	if err == nil {
		// The journal and the 2PC records carry the arguments: a kind
		// the codec cannot write is refused before any shard sees it.
		err = msg.CheckValues(req.Args)
		for _, s := range subs {
			if err == nil {
				err = msg.CheckValues(s.ApplyArgs)
			}
		}
	}
	if err != nil {
		return []msg.Directive{msg.Send(req.Client, msg.M(core.HdrTxResult, core.TxResult{
			Client: req.Client, Seq: req.Seq, Aborted: true, Err: err.Error(),
		}))}
	}
	// Admission gates only NEW transactions — everything below is
	// pre-prepare, so a refusal here never strands a participant.
	admitted := false
	if r.q != nil {
		if r.q.Admit(flow.ClassWrite) != nil {
			return r.reject(req, flow.ClassWrite, flow.ReasonOverload, r.q.Len(), r.q.Cap())
		}
		admitted = true
	}
	tx := &txState{
		req: req, subs: subs,
		att:   make(map[int]int),
		votes: make(map[int]bool), acked: make(map[int]bool),
		admitted: admitted,
	}
	r.txs[id] = tx
	// Write-ahead: the begin record hits the journal before any prepare
	// leaves, so a crashed coordinator knows which transactions may have
	// participants holding reservations.
	r.journal(journalRec{Kind: "begin", TxID: id, Req: req, Subs: subs})
	m2PCBegins.Inc()
	outs := r.sendPrepares(id, tx)
	return append(outs, r.armRetry(id))
}

// sendPrepares broadcasts this transaction's prepare into every
// participant shard that has not voted yet.
func (r *Router) sendPrepares(id string, tx *txState) []msg.Directive {
	parts := sortedShards(tx.subs)
	var outs []msg.Directive
	for _, s := range parts {
		if _, voted := tx.votes[s]; voted {
			continue
		}
		p := Prepare{
			TxID: id, Coord: r.cfg.Slf, Shard: s,
			Participants: parts, Req: tx.req, Sub: tx.subs[s],
		}
		outs = append(outs, r.order(s, tx, EncodePrepare(p)))
	}
	return outs
}

// sendDecisions broadcasts the decided outcome into every participant
// shard that has not acked yet.
func (r *Router) sendDecisions(id string, tx *txState) []msg.Directive {
	var outs []msg.Directive
	for _, s := range sortedShards(tx.subs) {
		if tx.acked[s] {
			continue
		}
		d := Decision{TxID: id, Shard: s, Coord: r.cfg.Slf, Commit: tx.commit}
		outs = append(outs, r.order(s, tx, EncodeDecision(d)))
	}
	return outs
}

// order submits one 2PC record into shard s's total order with a fresh
// broadcast seq, rotating the service node on each attempt.
func (r *Router) order(s int, tx *txState, payload []byte) msg.Directive {
	r.seq++
	tx.att[s]++
	nodes := r.cfg.Shards[s]
	node := nodes[(s+tx.att[s])%len(nodes)]
	b := broadcast.Bcast{From: r.cfg.Slf, Seq: r.seq, Payload: payload}
	return msg.Send(node, msg.M(broadcast.HdrBcast, b))
}

func (r *Router) armRetry(id string) msg.Directive {
	return msg.SendAfter(r.cfg.retry(), r.cfg.Slf, msg.M(HdrRetry, RetryBody{TxID: id}))
}

// onVote records a shard's prepare vote; replicas of the shard vote
// identically (the vote is a deterministic function of the delivered
// order), so the first vote per shard decides its contribution.
func (r *Router) onVote(v Vote) []msg.Directive {
	tx, ok := r.txs[v.TxID]
	if !ok || tx.decided {
		return nil
	}
	if _, isPart := tx.subs[v.Shard]; !isPart {
		return nil
	}
	if _, have := tx.votes[v.Shard]; have {
		return nil
	}
	tx.votes[v.Shard] = v.OK
	if !v.OK {
		return r.decide(v.TxID, tx, false)
	}
	if len(tx.votes) < len(tx.subs) {
		return nil
	}
	return r.decide(v.TxID, tx, true)
}

// decide fixes the outcome (journaled write-ahead), reveals it to the
// participants, and answers the client. Replying at decision time — not
// after acks — matches 2PC's commit point: the decision record is
// durable in the coordinator journal and will reach every participant's
// total order even across crashes.
func (r *Router) decide(id string, tx *txState, commit bool) []msg.Directive {
	tx.decided, tx.commit = true, commit
	tx.res = r.result(tx.req, commit)
	r.journal(journalRec{Kind: "decide", TxID: id, Commit: commit})
	if r.lg.Enabled(obs.LevelDebug) {
		r.lg.Logf(obs.LevelDebug, id, "decided commit=%v across %d shards", commit, len(tx.subs))
	}
	if commit {
		m2PCCommits.Inc()
	} else {
		m2PCAborts.Inc()
	}
	outs := r.sendDecisions(id, tx)
	outs = append(outs, msg.Send(tx.req.Client, msg.M(core.HdrTxResult, tx.res)))
	return append(outs, r.armRetry(id))
}

func (r *Router) result(req core.TxRequest, commit bool) core.TxResult {
	res := core.TxResult{Client: req.Client, Seq: req.Seq, Aborted: !commit}
	if !commit {
		res.Err = core.ErrAbort.Error()
	}
	return res
}

// onAck retires a participant once any of its replicas confirms the
// decision was delivered; when all participants acked, the transaction
// is done and compacted into the dedup table.
func (r *Router) onAck(a Ack) []msg.Directive {
	tx, ok := r.txs[a.TxID]
	if !ok || !tx.decided {
		return nil
	}
	if _, isPart := tx.subs[a.Shard]; !isPart {
		return nil
	}
	tx.acked[a.Shard] = true
	if len(tx.acked) < len(tx.subs) {
		return nil
	}
	if tx.admitted {
		r.q.Release()
	}
	r.doneRes[a.TxID] = tx.res
	delete(r.txs, a.TxID)
	r.journal(journalRec{Kind: "done", TxID: a.TxID})
	return nil
}

// onRetry retransmits whatever the guarded transaction still waits for.
// The timer re-arms until the transaction completes; retransmitted
// records take fresh seqs and participants absorb the duplicates.
func (r *Router) onRetry(t RetryBody) []msg.Directive {
	tx, ok := r.txs[t.TxID]
	if !ok {
		return nil
	}
	if r.cfg.Budget != nil && !r.cfg.Budget.Allow(r.cfg.now()) {
		// Retry budget empty: skip this re-drive round but keep the timer
		// armed. The budget throttles retransmission volume under
		// congestion; the transaction itself is never abandoned.
		return []msg.Directive{r.armRetry(t.TxID)}
	}
	m2PCRetransmits.Inc()
	r.lg.Logf(obs.LevelWarn, t.TxID, "retry timer fired, re-driving (decided=%v, votes=%d/%d, acks=%d/%d)",
		tx.decided, len(tx.votes), len(tx.subs), len(tx.acked), len(tx.subs))
	return append(r.redrive(t.TxID, tx), r.armRetry(t.TxID))
}

func (r *Router) redrive(id string, tx *txState) []msg.Directive {
	if tx.decided {
		return r.sendDecisions(id, tx)
	}
	return r.sendPrepares(id, tx)
}
