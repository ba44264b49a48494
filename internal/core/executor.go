package core

import (
	"errors"
	"fmt"
	"sort"

	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// The transaction substrate shared by both replication protocols: typed,
// deterministic procedures executed sequentially against the local
// database, with per-client deduplication.

// ErrAbort is returned by a procedure to request a deterministic abort.
// Because transactions are deterministic, every replica aborts the same
// transactions (footnote 4 of the paper).
var ErrAbort = errors.New("core: transaction aborted")

// Procedure is a transaction type: a deterministic function of the
// database state and the request arguments. It runs inside an implicit
// transaction; returning an error rolls back.
type Procedure func(db *sqldb.DB, args []any) (ProcResult, error)

// ProcResult is a procedure's result set.
type ProcResult struct {
	Cols []string
	Rows [][]sqldb.Value
}

// Registry maps transaction type names to procedures. All replicas of a
// group must share one registry (procedures are code, not data; they
// cannot travel in messages).
type Registry map[string]Procedure

// FastProc is an allocation-lean write procedure: a single-statement
// mutation (e.g. a point increment through sqldb.PointAddInt) with no
// result set. Because it cannot fail after mutating, the executor skips
// the per-transaction savepoint — aborted=true requests a deterministic
// abort before any mutation.
type FastProc func(db *sqldb.DB, args []any) (aborted bool, err error)

// FastRegistry maps transaction types to their fast variants. A type
// present here shadows its Registry entry on the batch apply path.
type FastRegistry map[string]FastProc

// dedupWindow is how many recent results are kept per client. Results
// older than the window answer retries with an empty duplicate marker,
// exactly as the map-based cache did for results it had evicted.
const dedupWindow = 8

// clientState is the per-client dedup record: the last answered
// sequence number and a ring of recent results keyed by seq%window.
// Replacing the (key-string -> result) map removes the two per-apply
// allocations (fmt.Sprintf key + map growth) from the steady state.
type clientState struct {
	lastSeq int64
	recent  [dedupWindow]TxResult
}

// Executor is the machine PBR and SMR refine (DESIGN.md §9): a
// replica's database and dedup table, applying ordered transactions to
// them, and that state's durability and transfer — nothing about order.
type Executor struct {
	DB  *sqldb.DB
	Reg Registry
	// Fast, when set, provides allocation-lean variants of hot write
	// procedures (see FastProc).
	Fast FastRegistry
	// Executed is the number of transactions applied (the election
	// criterion of the recovery protocol).
	Executed int64
	cstates  map[string]*clientState
	// resBuf is the reusable ApplyBatch result buffer; callers consume
	// it before the next batch.
	resBuf []TxResult
	// Durability and state transfer (durability.go). st journals the
	// owning protocol's ordered units; snapAt is the frontier its
	// snapshot covers. frontier and adopt are the owning protocol's
	// share of a snapshot header, written into it and taken back out of
	// a restored or transferred one (SMR: slot, epoch schedule and
	// extension state; PBR's frontier is Executed itself). xfer
	// assembles an incoming transfer. snapBuf is the buffer every
	// compaction encodes its snapshot into, recBuf the one every
	// journal record is encoded into.
	st       *store.Journal
	snapAt   int
	snapBuf  []byte
	recBuf   []byte
	frontier func(*snapHeader)
	adopt    func(snapHeader) error
	xfer     *snapAssembly
}

// NewExecutor creates an executor over a database.
func NewExecutor(db *sqldb.DB, reg Registry) *Executor {
	return &Executor{
		DB:      db,
		Reg:     reg,
		cstates: make(map[string]*clientState),
	}
}

// state returns the dedup record for a client, creating it on first
// contact (amortized: one allocation per client, ever).
func (e *Executor) state(client msg.Loc) *clientState {
	cs := e.cstates[string(client)]
	if cs == nil {
		cs = &clientState{}
		e.cstates[string(client)] = cs
	}
	return cs
}

// Duplicate returns the answer to a request that must not be applied:
// the cached result of one already executed (exactly-once under client
// retry), or the abort of one the dedup ring has no place for. A
// negative Seq is refused here, before the ring is indexed: every
// replica answers it with the same abort, records nothing, and counts
// it in core.exec.refused.
func (e *Executor) Duplicate(req TxRequest) (TxResult, bool) {
	if req.Seq < 0 {
		mRefused.Inc()
		return TxResult{Client: req.Client, Seq: req.Seq, Aborted: true}, true
	}
	cs := e.cstates[string(req.Client)]
	if cs == nil || req.Seq > cs.lastSeq {
		return TxResult{}, false
	}
	if r := &cs.recent[req.Seq%dedupWindow]; r.Seq == req.Seq && r.Client == req.Client {
		return *r, true
	}
	// Older than the last answered sequence number but no longer cached:
	// answer with an empty duplicate marker (the client has moved on).
	return TxResult{Client: req.Client, Seq: req.Seq}, true
}

// record stores a result in the client's dedup ring and advances its
// horizon.
func (e *Executor) record(req TxRequest, res TxResult) {
	cs := e.state(req.Client)
	cs.recent[req.Seq%dedupWindow] = res
	if req.Seq > cs.lastSeq {
		cs.lastSeq = req.Seq
	}
}

// RecentResults returns the newest cached result of every client,
// ordered by client name so callers that re-emit them stay
// deterministic. Clients known only through a transferred dedup
// horizon (InstallSnapshot) have no cached result and are skipped.
func (e *Executor) RecentResults() []TxResult {
	var out []TxResult
	for _, cs := range e.cstates {
		res := &cs.recent[cs.lastSeq%dedupWindow]
		if res.Seq == cs.lastSeq && res.Client != "" {
			out = append(out, *res)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// LastSeqs returns a copy of the per-client dedup horizon (for
// snapshots and state transfers).
func (e *Executor) LastSeqs() map[string]int64 {
	out := make(map[string]int64, len(e.cstates))
	for c, cs := range e.cstates {
		out[c] = cs.lastSeq
	}
	return out
}

// Apply executes one ordered transaction and records it in the
// deduplication table. order must be Executed+1, and the request one
// Duplicate admits: a negative Seq is an error here, never applied.
func (e *Executor) Apply(order int64, req TxRequest) (TxResult, error) {
	if order != e.Executed+1 {
		return TxResult{}, fmt.Errorf("core: applying order %d, expected %d", order, e.Executed+1)
	}
	if req.Seq < 0 {
		return TxResult{}, fmt.Errorf("core: applying order %d: request %s/%d has a negative seq", order, req.Client, req.Seq)
	}
	res := RunProc(e.DB, e.Reg, req)
	e.Executed = order
	e.record(req, res)
	return res, nil
}

// ApplyBatch executes a contiguous run of ordered transactions inside a
// single SQL-engine critical section: one BEGIN, a savepoint per
// transaction (a procedure failure rolls back to its savepoint only),
// one COMMIT — the group commit of a decided broadcast batch. Order
// numbers are assigned sequentially from Executed+1 and the
// deduplication and result bookkeeping (a refused request's error
// included) are identical to calling Apply once per request, so
// primaries applying one-by-one and backups applying a whole batch
// converge on the same state. The returned slice is reused by the next
// call; callers consume it immediately.
func (e *Executor) ApplyBatch(reqs []TxRequest) []TxResult {
	out := e.resBuf[:0]
	if len(reqs) == 0 {
		return out
	}
	// Apply takes what the batch path cannot: every request when a
	// transaction is somehow already open (rather than nesting), and a
	// negative Seq, which it refuses.
	_, began := e.DB.Exec("BEGIN")
	for _, req := range reqs {
		if began == nil && req.Seq >= 0 {
			out = append(out, e.applyInBatch(req))
			continue
		}
		res, err := e.Apply(e.Executed+1, req)
		if err != nil {
			res = TxResult{Client: req.Client, Seq: req.Seq, Err: err.Error()}
		}
		out = append(out, res)
	}
	if began == nil && e.DB.InTx() {
		_, _ = e.DB.Exec("COMMIT")
	}
	e.resBuf = out
	return out
}

// applyInBatch executes one transaction of an open group-commit batch
// under its own savepoint and records the same bookkeeping as Apply.
// Fast procedures skip the savepoint: a single-statement mutation
// cannot fail after mutating, so there is nothing to roll back to.
func (e *Executor) applyInBatch(req TxRequest) TxResult {
	out := TxResult{Client: req.Client, Seq: req.Seq}
	if fp, ok := e.Fast[req.Type]; ok {
		if aborted, err := fp(e.DB, req.Args); err != nil {
			out.Err = err.Error()
		} else if aborted {
			out.Aborted = true
		}
	} else if proc, ok := e.Reg[req.Type]; !ok {
		out.Err = fmt.Sprintf("unknown transaction type %q", req.Type)
	} else if mark, err := e.DB.Savepoint(); err != nil {
		out.Err = err.Error()
	} else if res, err := runChecked(proc, e.DB, req.Args, &out); err != nil {
		_ = e.DB.RollbackTo(mark)
		if errors.Is(err, ErrAbort) {
			out.Aborted = true
		} else {
			out.Err = err.Error()
		}
	} else {
		out.Cols, out.Rows = res.Cols, res.Rows
	}
	e.Executed++
	e.record(req, out)
	return out
}

// RunProc executes one procedure inside a transaction against a database,
// without ordering or deduplication bookkeeping. The replication
// protocols use Executor.Apply; the baselines and standalone servers use
// RunProc directly.
func RunProc(db *sqldb.DB, reg Registry, req TxRequest) TxResult {
	out := TxResult{Client: req.Client, Seq: req.Seq}
	proc, ok := reg[req.Type]
	if !ok {
		out.Err = fmt.Sprintf("unknown transaction type %q", req.Type)
		return out
	}
	if _, err := db.Exec("BEGIN"); err != nil {
		out.Err = err.Error()
		return out
	}
	res, err := runChecked(proc, db, req.Args, &out)
	if err != nil {
		if db.InTx() {
			_, _ = db.Exec("ROLLBACK")
		}
		if errors.Is(err, ErrAbort) {
			out.Aborted = true
			return out
		}
		out.Err = err.Error()
		return out
	}
	if _, err := db.Exec("COMMIT"); err != nil {
		out.Err = err.Error()
		return out
	}
	out.Cols, out.Rows = res.Cols, res.Rows
	return out
}

// runChecked runs a procedure and refuses a result the wire codec
// cannot carry: a row value of a type without a wire kind fails the
// transaction as an abort whose error names the type (marked on out), so
// every replica rolls it back and answers alike rather than failing to
// send the answer.
func runChecked(proc Procedure, db *sqldb.DB, args []any, out *TxResult) (ProcResult, error) {
	res, err := proc(db, args)
	if err != nil {
		return res, err
	}
	for _, row := range res.Rows {
		if err := msg.CheckValues(row); err != nil {
			out.Aborted = true
			return res, fmt.Errorf("core: procedure result: %w", err)
		}
	}
	return res, nil
}

// InstallSnapshot resets the executor to a transferred or restored
// state: the execution frontier, and the dedup horizon and recent
// results that go with it. Retries of transactions already reflected in
// the adopted rows must be deduplicated here exactly as they are where
// the rows came from.
func (e *Executor) InstallSnapshot(order int64, lastSeq map[string]int64, recent []TxResult) {
	e.Executed = order
	e.cstates = make(map[string]*clientState)
	// A negative sequence number is never recorded (Duplicate refuses
	// it), so one in a snapshot's header is dropped, not indexed.
	for c, s := range lastSeq {
		if s >= 0 {
			e.state(msg.Loc(c)).lastSeq = s
		}
	}
	// Without the results a restarted or newly joined lease holder could
	// re-ack only what it executed locally; with them it can answer for
	// writes that reached it inside the snapshot.
	for _, res := range recent {
		if res.Seq >= 0 {
			e.record(TxRequest{Client: res.Client, Seq: res.Seq}, res)
		}
	}
}
