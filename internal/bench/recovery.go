package bench

import (
	"fmt"
	"io"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/fault"
	"shadowdb/internal/msg"
	"shadowdb/internal/store"
)

// The recovery experiment: a 3-replica SMR deployment whose replicas
// journal to real on-disk WALs (internal/store), with a process-level
// nemesis that kills one replica mid-load, corrupts the tail of its
// newest WAL segment (a torn write), and restarts it as a genuinely
// fresh incarnation over the surviving data directory. The restarted
// replica must recover from its local snapshot + WAL replay, fetch only
// the slots ordered during its downtime from a peer, and rejoin the
// group — all without a single online-checker violation. The run is
// certified (nonzero bench exit otherwise) and its recovery figures go
// to BENCH_recovery.json.

// RecoveryConfig sizes the crash-recovery experiment.
type RecoveryConfig struct {
	// Clients and TxPer size the closed-loop load; the run ends when
	// every client finishes, so the virtual duration is load-dependent.
	Clients int
	TxPer   int
	// Rows is the bank table size.
	Rows int
	// KillAt is when the victim replica's process is killed; it restarts
	// RestartAfter later over the same data directory.
	KillAt       time.Duration
	RestartAfter time.Duration
	// CorruptTail flips bytes in the victim's newest WAL segment before
	// the restart — recovery must absorb the torn tail by truncation.
	CorruptTail bool
	// Fsync is the WAL sync policy of every replica's store.
	Fsync store.SyncPolicy
	// Bin is the availability/progress sampling bin.
	Bin time.Duration
	// Drain bounds the post-load quiesce window (catch-up completion).
	Drain time.Duration
	// RingSize is the obs ring capacity.
	RingSize int
	// DataDir, when non-empty, hosts the replicas' stores (a fresh temp
	// directory otherwise, removed after the run).
	DataDir string
	// FlightDir, when non-empty, arms per-node flight recorders that
	// dump postmortem bundles under it on any checker violation and at
	// the end of an uncertified run.
	FlightDir string
}

// DefaultRecovery is the paper-scale run.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{
		Clients: 6, TxPer: 700, Rows: 256,
		KillAt: time.Second, RestartAfter: 300 * time.Millisecond,
		CorruptTail: true, Fsync: store.SyncBatch,
		Bin: 100 * time.Millisecond, Drain: 2 * time.Second,
		RingSize: 1 << 15,
	}
}

// QuickRecovery is the CI-sized run.
func QuickRecovery() RecoveryConfig {
	return RecoveryConfig{
		Clients: 4, TxPer: 200, Rows: 64,
		KillAt: 300 * time.Millisecond, RestartAfter: 200 * time.Millisecond,
		CorruptTail: true, Fsync: store.SyncNever,
		Bin: 50 * time.Millisecond, Drain: 2 * time.Second,
		RingSize: 1 << 14,
	}
}

// RecoveryResult is the certified outcome of one crash-recovery run.
type RecoveryResult struct {
	// Committed/Aborted/Finished summarize the client fleet; Clients
	// echoes the config (certification wants every client done).
	Committed int64
	Aborted   int64
	Finished  int
	Clients   int
	// KillAt/RestartAt/CaughtUpAt are the observed event times on the
	// virtual clock (-1 when the event did not happen). CaughtUpAt is
	// the first 10 ms sample where the victim's slot frontier reached
	// the live replicas' maximum.
	KillAt     time.Duration
	RestartAt  time.Duration
	CaughtUpAt time.Duration
	// SlotAtKill is the victim's applied frontier when killed;
	// SlotsBehind is how far behind the group it woke up — the delta it
	// then fetched over the network instead of a full state transfer.
	SlotAtKill  int
	SlotsBehind int
	// ReplayedRecords counts WAL records re-executed during the local
	// recovery (store.wal.replays delta across the restart hook).
	ReplayedRecords int64
	// RecoveredLocally reports that the fresh incarnation restored state
	// from its own store rather than starting empty.
	RecoveredLocally bool
	// CorruptTail / CorruptTailHit: the torn-tail injection was requested
	// / actually applied to a WAL segment.
	CorruptTail    bool
	CorruptTailHit bool
	// CaughtUp / StateEqual are the end-of-run convergence checks: slot
	// frontier parity and bit-identical table contents across replicas.
	CaughtUp   bool
	StateEqual bool
	// LastSlots is each replica's final applied frontier (r1, r2, r3).
	LastSlots []int
	// ProgressAfterRestart reports commits observed after the restart.
	ProgressAfterRestart bool
	// Audit is the online checker's view of the run.
	Audit
}

// DowntimeSec is the kill-to-restart window.
func (r RecoveryResult) DowntimeSec() float64 {
	if r.KillAt < 0 || r.RestartAt < 0 {
		return -1
	}
	return (r.RestartAt - r.KillAt).Seconds()
}

// CatchupSec is restart-to-frontier-parity — the recovery time the
// experiment exists to measure.
func (r RecoveryResult) CatchupSec() float64 {
	if r.RestartAt < 0 || r.CaughtUpAt < 0 {
		return -1
	}
	return (r.CaughtUpAt - r.RestartAt).Seconds()
}

// Gates is the recovery acceptance bar: the victim was killed and
// restarted, recovered from its own store, the torn tail (when injected)
// was absorbed, the checker stayed clean, clients made progress after
// the restart and all finished, and the group converged to
// slot-frontier parity with equal database states.
func (r RecoveryResult) Gates() []Gate {
	return []Gate{
		gate("killed_and_restarted", r.KillAt >= 0 && r.RestartAt >= 0,
			"kill at %v, restart at %v", r.KillAt, r.RestartAt),
		boolGate("recovered_locally", r.RecoveredLocally),
		gate("corrupt_tail_absorbed", !r.CorruptTail || r.CorruptTailHit, "torn tail never applied"),
		r.Audit.gate(),
		boolGate("progress_after_restart", r.ProgressAfterRestart),
		gate("clients_finished", r.Finished == r.Clients, "%d/%d", r.Finished, r.Clients),
		boolGate("caught_up", r.CaughtUp),
		boolGate("state_equal", r.StateEqual),
	}
}

// Certified reports whether every gate held.
func (r RecoveryResult) Certified() bool { return Certified(r.Gates()) }

// Recovery runs the crash-recovery experiment: a 3-replica durable SMR
// deployment ordered by three durable broadcast service nodes, each
// replica journaling to <data dir>/<loc>/smr-<loc>.
func Recovery(cfg RecoveryConfig) RecoveryResult {
	run := startRun("recovery", cfg.RingSize, cfg.FlightDir, cfg.DataDir)
	rc := run.Attach(newCluster(deployment{app: bankApp(cfg.Rows), root: run.Root(),
		nodes: literal("smr", []string{"h2", "h2", "h2"}, 3, func(n *deploy.Node) { n.Fsync = cfg.Fsync.String() })}))
	sim := rc.sim

	stats := &loadStats{timeline: run.Timeline(cfg.Bin)}
	work := func(i int) Workload { return MicroWorkload(cfg.Rows, int64(i)*31337) }
	shadowClients(rc.clu, stats, cfg.Clients, cfg.TxPer, core.ModeSMR,
		rc.rloc, rc.bloc, 10*time.Second, work)

	res := RecoveryResult{
		Clients: cfg.Clients, CorruptTail: cfg.CorruptTail,
		KillAt: -1, RestartAt: -1, CaughtUpAt: -1, SlotsBehind: -1,
	}
	victim := msg.Loc("r2")

	// Once restarted, sample the victim's frontier on a 10 ms grid until
	// it reaches the live replicas' maximum — the recovery time.
	var sampleCatchup func()
	sampleCatchup = func() {
		if res.CaughtUpAt >= 0 {
			return
		}
		if rc.smr(victim).LastSlot() >= rc.maxOtherSlot(victim) {
			res.CaughtUpAt = sim.Now()
			return
		}
		sim.After(10*time.Millisecond, sampleCatchup)
	}
	run.onKill = func(node msg.Loc) {
		res.KillAt = sim.Now()
		res.SlotAtKill = rc.smr(node).LastSlot()
	}
	run.onRestart = func(node msg.Loc, rep *core.SMRReplica) {
		res.RestartAt = sim.Now()
		res.SlotsBehind = rc.maxOtherSlot(node) - rep.LastSlot()
		sim.After(0, sampleCatchup)
	}
	inj := run.Inject(fault.Plan{Crashes: []fault.Crash{{
		At:           fault.Duration(cfg.KillAt),
		Node:         victim,
		RestartAfter: fault.Duration(cfg.RestartAfter),
		CorruptTail:  cfg.CorruptTail,
	}}})

	runToFinish(sim, stats, cfg.Clients)
	// Quiesce: let in-flight catch-up and final deliveries drain.
	sim.Run(cfg.Drain, 50_000_000)

	res.Committed = stats.committed
	res.Aborted = stats.aborted
	res.Finished = stats.finished
	for _, i := range inj.Injections() {
		if i.Kind == "corrupt-tail" {
			res.CorruptTailHit = true
		}
	}
	res.ReplayedRecords = rc.replayed
	res.RecoveredLocally = rc.restarts == 1 && rc.recoveredAll
	res.Audit = run.Audit()
	res.CaughtUp, res.StateEqual, res.LastSlots = rc.converged(rc.rloc)
	res.ProgressAfterRestart = run.progressAfter(res.RestartAt)
	run.Close(res.Certified())
	return res
}

// reportRecovery flattens the experiment for BENCH_recovery.json.
func reportRecovery(res RecoveryResult, r *Report) {
	r.Add("recovery.committed", float64(res.Committed), "count")
	r.Add("recovery.aborted", float64(res.Aborted), "count")
	r.Add("recovery.finished", float64(res.Finished), "count")
	r.Add("recovery.kill_at", res.KillAt.Seconds(), "s")
	r.Add("recovery.restart_at", res.RestartAt.Seconds(), "s")
	r.Add("recovery.caught_up_at", res.CaughtUpAt.Seconds(), "s")
	r.Add("recovery.downtime", res.DowntimeSec(), "s")
	r.Add("recovery.catchup", res.CatchupSec(), "s")
	r.Add("recovery.slot_at_kill", float64(res.SlotAtKill), "count")
	r.Add("recovery.slots_behind", float64(res.SlotsBehind), "count")
	r.Add("recovery.replayed_records", float64(res.ReplayedRecords), "count")
	r.Add("recovery.corrupt_tail_hit", b2f(res.CorruptTailHit), "bool")
	res.Audit.report(r)
	r.AddCertified(res.Gates())
}

// RenderRecovery prints the human-readable summary.
func RenderRecovery(w io.Writer, res RecoveryResult) {
	fmt.Fprintln(w, "Recovery — durable SMR replica killed and restarted mid-load (virtual time, real WAL)")
	fmt.Fprintf(w, "  committed: %d (%d aborted)   clients finished: %d/%d\n",
		res.Committed, res.Aborted, res.Finished, res.Clients)
	fmt.Fprintf(w, "  killed at %.2fs (slot %d), restarted at %.2fs, caught up at %.2fs (downtime %.2fs, catch-up %.2fs)\n",
		res.KillAt.Seconds(), res.SlotAtKill, res.RestartAt.Seconds(),
		res.CaughtUpAt.Seconds(), res.DowntimeSec(), res.CatchupSec())
	fmt.Fprintf(w, "  local recovery: %v (%d WAL records replayed), woke %d slots behind, corrupt tail hit: %v\n",
		res.RecoveredLocally, res.ReplayedRecords, res.SlotsBehind, res.CorruptTailHit)
	fmt.Fprintf(w, "  convergence: frontier parity %v (slots %v), state equal %v, progress after restart %v\n",
		res.CaughtUp, res.LastSlots, res.StateEqual, res.ProgressAfterRestart)
	fmt.Fprintf(w, "  checker: %d events, %d violations   certified: %v\n",
		res.Events, len(res.Violations), res.Certified())
	renderViolations(w, "", res.Violations)
}
