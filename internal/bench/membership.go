package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/fault"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/store"
)

// The membership experiment: a live 3-node SMR cluster grows to 5 nodes
// and shrinks back to 3 under sustained load, with a rolling restart of
// one charter replica and one joiner running concurrently. Every
// add/remove command travels through the total-order broadcast into
// numbered configuration epochs (internal/member), so Synod quorums,
// delivery fan-out, and catch-up peer sets all switch at well-defined
// slots; joiners bootstrap through a snapshot pushed by the
// deterministic proposer plus a slot delta, and removed replicas drain
// by simply falling out of the fan-out. The epoch-aware online checker
// (member/epoch-config, member/stale-quorum, joins admitted by their
// ordered add, NoteRestart excuse windows) certifies the run; the
// nemesis schedule is replayed a second time to certify bit-reproducible
// fault injection. Figures go to BENCH_membership.json.

// MembershipConfig sizes the dynamic-membership experiment.
type MembershipConfig struct {
	// Clients and TxPer size the closed-loop load; the schedule below
	// must fit inside the load window for post-change progress to be
	// certifiable.
	Clients int
	TxPer   int
	// Rows is the bank table size.
	Rows int
	// GrowAt starts the grow phase (add b4, r4, b5, r5), one command
	// every CmdEvery; ShrinkAt starts the shrink phase (remove r2, b2,
	// r3, b3) on the same cadence.
	GrowAt   time.Duration
	CmdEvery time.Duration
	ShrinkAt time.Duration
	// RestartAt starts the rolling restart of r1 (charter) then r4
	// (joiner): each is down Downtime, starts Stagger apart.
	RestartAt time.Duration
	Downtime  time.Duration
	Stagger   time.Duration
	// Alpha is the acceptor activation lag in slots; it must exceed
	// twice the consensus pipeline window.
	Alpha    int
	Pipeline int
	// Fsync is the WAL sync policy of every replica's store.
	Fsync store.SyncPolicy
	// Bin is the progress sampling bin.
	Bin time.Duration
	// Drain bounds the post-load quiesce window.
	Drain time.Duration
	// RingSize is the obs ring capacity.
	RingSize int
	// DataDir, when non-empty, hosts the replicas' stores (a fresh temp
	// directory otherwise, removed after the run).
	DataDir string
	// FlightDir, when non-empty, arms per-node flight recorders.
	FlightDir string
	// ReproCheck replays the whole run a second time over a fresh store
	// and requires an identical injection fingerprint.
	ReproCheck bool
}

// DefaultMembership is the paper-scale run.
func DefaultMembership() MembershipConfig {
	return MembershipConfig{
		Clients: 6, TxPer: 1400, Rows: 256,
		GrowAt: 400 * time.Millisecond, CmdEvery: 200 * time.Millisecond,
		ShrinkAt:  2500 * time.Millisecond,
		RestartAt: 1500 * time.Millisecond, Downtime: 250 * time.Millisecond,
		Stagger: 400 * time.Millisecond,
		Alpha:   10, Pipeline: 4,
		Fsync: store.SyncBatch,
		Bin:   100 * time.Millisecond, Drain: 2 * time.Second,
		RingSize:   1 << 16,
		ReproCheck: true,
	}
}

// QuickMembership is the CI-sized run.
func QuickMembership() MembershipConfig {
	return MembershipConfig{
		Clients: 4, TxPer: 500, Rows: 64,
		GrowAt: 200 * time.Millisecond, CmdEvery: 120 * time.Millisecond,
		ShrinkAt:  1600 * time.Millisecond,
		RestartAt: 900 * time.Millisecond, Downtime: 150 * time.Millisecond,
		Stagger: 300 * time.Millisecond,
		Alpha:   10, Pipeline: 4,
		Fsync: store.SyncNever,
		Bin:   50 * time.Millisecond, Drain: 2 * time.Second,
		RingSize: 1 << 15,
	}
}

// MembershipResult is the certified outcome of one membership run.
type MembershipResult struct {
	// Committed/Aborted/Finished summarize the client fleet.
	Committed int64
	Aborted   int64
	Finished  int
	Clients   int
	// Epochs is how many configuration epochs the run derived
	// (including the initial one); GrewTo/ShrankTo are the peak and
	// final replica counts.
	Epochs   int
	GrewTo   int
	ShrankTo int
	// FinalBcast/FinalReplicas are the last epoch's member sets.
	FinalBcast    []msg.Loc
	FinalReplicas []msg.Loc
	// JoinersActive reports both joiners finished their bootstrap;
	// JoinerActiveAt is when the last one did (-1 if never).
	JoinersActive  bool
	JoinerActiveAt time.Duration
	// BootstrapSnapshots counts proposer snapshot pushes for joins.
	BootstrapSnapshots int64
	// Kills/Restarts count the rolling-restart injections; Replayed is
	// the WAL records re-executed across both local recoveries, and
	// RecoveredLocally that both incarnations restored from their
	// stores.
	Kills            int
	Restarts         int
	Replayed         int64
	RecoveredLocally bool
	// CaughtUp / StateEqual are the end-of-run convergence checks over
	// the FINAL replica set: slot-frontier parity and bit-identical
	// table contents (the joiner state parity the issue demands).
	CaughtUp   bool
	StateEqual bool
	// LastSlots is each final replica's applied frontier.
	LastSlots []int
	// ProgressAfterChanges / ProgressAfterRestart report commits after
	// the last membership command / after the rolling restart ended.
	ProgressAfterChanges bool
	ProgressAfterRestart bool
	// Audit is the online checker's view of the run and the hash of its
	// injection log; with ReproChecked set, FingerprintStable reports the
	// replay run produced the same hash.
	Audit
	ReproChecked      bool
	FingerprintStable bool
}

// Gates is the membership acceptance bar: every scheduled epoch derived,
// the cluster grew to 5 and ended at 3, both joiners bootstrapped via
// proposer snapshots, the rolling restart ran and both victims recovered
// locally, the checker stayed clean, clients made progress after the
// last change and all finished, the final replica set converged to
// identical state, and (when checked) the nemesis schedule reproduced
// bit-identically.
func (r MembershipResult) Gates() []Gate {
	return []Gate{
		gate("clients_finished", r.Finished == r.Clients, "%d/%d", r.Finished, r.Clients),
		gate("epochs_derived", r.Epochs == 9, "%d of 9", r.Epochs),
		gate("grew_and_shrank", r.GrewTo == 5 && r.ShrankTo == 3, "grew to %d, ended at %d", r.GrewTo, r.ShrankTo),
		boolGate("joiners_active", r.JoinersActive),
		gate("bootstrap_snapshots", r.BootstrapSnapshots >= 2, "%d pushed", r.BootstrapSnapshots),
		gate("rolling_restart", r.Kills == 2 && r.Restarts == 2, "%d kills, %d restarts", r.Kills, r.Restarts),
		boolGate("recovered_locally", r.RecoveredLocally),
		r.Audit.gate(),
		boolGate("progress_after_changes", r.ProgressAfterChanges),
		boolGate("progress_after_restart", r.ProgressAfterRestart),
		boolGate("caught_up", r.CaughtUp),
		boolGate("state_equal", r.StateEqual),
		gate("nemesis_reproducible", !r.ReproChecked || r.FingerprintStable, "replay fingerprint differs"),
	}
}

// Certified reports whether every gate held.
func (r MembershipResult) Certified() bool { return Certified(r.Gates()) }

// scheduledChange is one membership command at its proposal time.
type scheduledChange struct {
	At  time.Duration
	Cmd member.Command
}

// membershipChanges is the ordered command schedule: grow to 5/5, then
// shrink to 3/3 keeping the two joiners and the sequencer's replica.
func membershipChanges(cfg MembershipConfig) []scheduledChange {
	return []scheduledChange{
		{cfg.GrowAt, member.Command{Op: member.AddAcceptor, Node: "b4"}},
		{cfg.GrowAt + cfg.CmdEvery, member.Command{Op: member.AddReplica, Node: "r4"}},
		{cfg.GrowAt + 2*cfg.CmdEvery, member.Command{Op: member.AddAcceptor, Node: "b5"}},
		{cfg.GrowAt + 3*cfg.CmdEvery, member.Command{Op: member.AddReplica, Node: "r5"}},
		{cfg.ShrinkAt, member.Command{Op: member.RemoveReplica, Node: "r2"}},
		{cfg.ShrinkAt + cfg.CmdEvery, member.Command{Op: member.RemoveAcceptor, Node: "b2"}},
		{cfg.ShrinkAt + 2*cfg.CmdEvery, member.Command{Op: member.RemoveReplica, Node: "r3"}},
		{cfg.ShrinkAt + 3*cfg.CmdEvery, member.Command{Op: member.RemoveAcceptor, Node: "b3"}},
	}
}

// Membership runs the dynamic-membership experiment, optionally twice
// to certify the nemesis schedule reproduces bit-identically.
func Membership(cfg MembershipConfig) MembershipResult {
	res := membershipRun(cfg)
	if cfg.ReproCheck {
		replay := cfg
		replay.DataDir = ""   // fresh stores for the replay
		replay.FlightDir = "" // evidence only from the primary run
		replay.ReproCheck = false
		res2 := membershipRun(replay)
		res.ReproChecked = true
		res.FingerprintStable = res.Fingerprint == res2.Fingerprint
	}
	return res
}

// membershipRun is one full run of the experiment. Five broadcast
// service nodes and five durable replicas exist as processes from the
// start under one shared epoch view, but only the charter members
// (b1-b3, r1-r3, populated) are in epoch 0 — the joiners b4, b5, r4 and
// r5 idle (the replicas empty) until an ordered command admits them.
func membershipRun(cfg MembershipConfig) MembershipResult {
	run := startRun("membership", cfg.RingSize, cfg.FlightDir, cfg.DataDir)
	joiners := []string{"b4", "b5", "r4", "r5"}
	mc := run.Attach(newCluster(deployment{
		app: bankApp(cfg.Rows), root: run.Root(), view: member.NewView(charter(), cfg.Alpha),
		nodes: literal("smr", []string{"h2", "h2", "h2", "h2", "h2"}, 5, func(n *deploy.Node) {
			n.Pipeline, n.Alpha, n.Fsync = cfg.Pipeline, cfg.Alpha, cfg.Fsync.String()
			n.Joiner = slices.Contains(joiners, n.ID)
		}),
	}))
	sim := mc.sim

	stats := &loadStats{timeline: run.Timeline(cfg.Bin)}
	work := func(i int) Workload { return MicroWorkload(cfg.Rows, int64(i)*31337) }
	// Clients keep the seed topology: removed service nodes still
	// forward broadcasts to the sequencer, so a static client config
	// survives every resize.
	shadowClients(mc.clu, stats, cfg.Clients, cfg.TxPer, core.ModeSMR,
		charter().Replicas, charter().Bcast, 10*time.Second, work)

	res := MembershipResult{Clients: cfg.Clients, JoinerActiveAt: -1}
	snapsBefore := obs.C("core.smr.member_snapshots").Value()

	// The admin proposes each membership command through the broadcast
	// order at its scheduled time — a plain Bcast whose payload every
	// node folds into the shared epoch schedule at its decided slot.
	admin := msg.Loc("admin")
	mc.clu.AddCostedNode(admin, 1, func(msg.Envelope) ([]msg.Directive, time.Duration) { return nil, 0 })
	changes := membershipChanges(cfg)
	var lastChangeAt time.Duration
	for i, ch := range changes {
		seq := int64(i + 1)
		cmd := ch.Cmd
		if ch.At > lastChangeAt {
			lastChangeAt = ch.At
		}
		sim.After(ch.At, func() {
			mc.clu.SendAfter(0, admin, mc.bloc[0], msg.M(broadcast.HdrBcast,
				broadcast.Bcast{From: admin, Seq: seq, Payload: member.EncodeCommand(cmd)}))
		})
	}

	// Sample each joiner until its bootstrap snapshot lands.
	for _, loc := range []msg.Loc{"r4", "r5"} {
		var poll func()
		poll = func() {
			if mc.smr(loc).Active() {
				if sim.Now() > res.JoinerActiveAt {
					res.JoinerActiveAt = sim.Now()
				}
				return
			}
			sim.After(10*time.Millisecond, poll)
		}
		sim.After(cfg.GrowAt, poll)
	}

	// The rolling restart: r1 (charter, the bootstrap proposer) then r4
	// (freshly joined), deterministically expanded into the same crash
	// schedule every run.
	run.Inject(fault.Plan{Rolling: []fault.Rolling{{
		StartAt:  fault.Duration(cfg.RestartAt),
		Nodes:    []msg.Loc{"r1", "r4"},
		Downtime: fault.Duration(cfg.Downtime),
		Stagger:  fault.Duration(cfg.Stagger),
	}}})

	runToFinish(sim, stats, cfg.Clients)
	// Quiesce: let catch-up, final deliveries and the last epoch drain.
	sim.Run(cfg.Drain, 50_000_000)

	res.Committed = stats.committed
	res.Aborted = stats.aborted
	res.Finished = stats.finished
	res.Kills, res.Restarts, res.Replayed = mc.kills, mc.restarts, mc.replayed
	res.RecoveredLocally = mc.restarts == 2 && mc.recoveredAll
	res.BootstrapSnapshots = obs.C("core.smr.member_snapshots").Value() - snapsBefore
	res.Audit = run.Audit()

	epochs := mc.view.Epochs()
	res.Epochs = len(epochs)
	for _, e := range epochs {
		if len(e.Replicas) > res.GrewTo {
			res.GrewTo = len(e.Replicas)
		}
	}
	final := epochs[len(epochs)-1]
	res.ShrankTo = len(final.Replicas)
	res.FinalBcast = final.Bcast
	res.FinalReplicas = final.Replicas
	res.JoinersActive = mc.smr("r4").Active() && mc.smr("r5").Active()

	// Convergence over the final replica set: frontier parity and
	// bit-identical state — the joiners must be indistinguishable from
	// the surviving charter replica.
	res.CaughtUp, res.StateEqual, res.LastSlots = mc.converged(final.Replicas)
	res.ProgressAfterChanges = run.progressAfter(lastChangeAt)
	res.ProgressAfterRestart = run.progressAfter(mc.lastRestartAt)
	run.Close(res.Certified())
	return res
}

// reportMembership flattens the experiment for BENCH_membership.json.
func reportMembership(res MembershipResult, r *Report) {
	r.Add("membership.committed", float64(res.Committed), "count")
	r.Add("membership.aborted", float64(res.Aborted), "count")
	r.Add("membership.finished", float64(res.Finished), "count")
	r.Add("membership.epochs", float64(res.Epochs), "count")
	r.Add("membership.grew_to", float64(res.GrewTo), "count")
	r.Add("membership.shrank_to", float64(res.ShrankTo), "count")
	r.Add("membership.joiner_active_at", res.JoinerActiveAt.Seconds(), "s")
	r.Add("membership.bootstrap_snapshots", float64(res.BootstrapSnapshots), "count")
	r.Add("membership.kills", float64(res.Kills), "count")
	r.Add("membership.restarts", float64(res.Restarts), "count")
	r.Add("membership.replayed_records", float64(res.Replayed), "count")
	res.Audit.report(r)
	r.Add("membership.repro_checked", b2f(res.ReproChecked), "bool")
	r.Add("membership.fingerprint_stable", b2f(res.FingerprintStable), "bool")
	r.AddCertified(res.Gates())
	r.Fingerprint("membership", res.Fingerprint)
}

// RenderMembership prints the human-readable summary.
func RenderMembership(w io.Writer, res MembershipResult) {
	fmt.Fprintln(w, "Membership — live 3→5→3 resize with a concurrent rolling restart (virtual time, real WAL)")
	fmt.Fprintf(w, "  committed: %d (%d aborted)   clients finished: %d/%d\n",
		res.Committed, res.Aborted, res.Finished, res.Clients)
	fmt.Fprintf(w, "  epochs: %d derived, grew to %d replicas, ended at %d — bcast %v, replicas %v\n",
		res.Epochs, res.GrewTo, res.ShrankTo, res.FinalBcast, res.FinalReplicas)
	fmt.Fprintf(w, "  joiners active: %v (last at %.2fs, %d bootstrap snapshots pushed)\n",
		res.JoinersActive, res.JoinerActiveAt.Seconds(), res.BootstrapSnapshots)
	fmt.Fprintf(w, "  rolling restart: %d kills, %d restarts, local recovery %v (%d WAL records replayed)\n",
		res.Kills, res.Restarts, res.RecoveredLocally, res.Replayed)
	fmt.Fprintf(w, "  convergence: frontier parity %v (slots %v), state equal %v, progress after changes %v / after restart %v\n",
		res.CaughtUp, res.LastSlots, res.StateEqual, res.ProgressAfterChanges, res.ProgressAfterRestart)
	fp := "not checked"
	if res.ReproChecked {
		fp = fmt.Sprintf("stable=%v", res.FingerprintStable)
	}
	fmt.Fprintf(w, "  checker: %d events, %d violations   nemesis replay: %s   certified: %v\n",
		res.Events, len(res.Violations), fp, res.Certified())
	renderViolations(w, "", res.Violations)
}
