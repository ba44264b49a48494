package bench

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// The readpath experiment certifies the zero-allocation replicated hot
// path with lease-based local reads (DESIGN.md §13). Four phases, each
// on a fresh durable 3+3 cluster under a 95/5 read-heavy bank load:
//
//  1. consensus — reads travel the full ordered path (the baseline);
//  2. lease — reads served locally at the lease holder (linearizable);
//  3. follower — reads served at non-holders within the staleness bound;
//  4. chaos — the holder is partitioned away from the order while still
//     reachable by clients, then deposed by an ordered membership
//     command; the new holder waits out the old holder's lease window
//     (notBefore barrier), takes over, and is itself crash-restarted
//     (fault.Rolling) to prove lease state is volatile: the restarted
//     holder rejects reads until a fresh renewal is ordered under the
//     current epoch.
//
// Each replica folds renewals and membership commands from its OWN
// delivery stream into its OWN epoch view, so a partitioned stale
// holder genuinely keeps serving inside its lease window — and the
// epoch-and-lease-aware online checker (read/lease-expiry,
// read/lease-linearizability, read/follower-staleness) audits every
// serve against the delivered renewal history. Alongside the phases,
// testing.AllocsPerRun pins the steady-state serve loop at zero
// allocations, and WAL counters certify fsync batching: a full
// pipeline window of slots costs one covering fsync, not one per slot.
// Figures go to BENCH_readpath.json.

// ReadPathConfig sizes the readpath experiment.
type ReadPathConfig struct {
	// Clients and OpsPer size the closed-loop mixed load of the three
	// measured phases; ReadPct of each client's operations are reads.
	Clients int
	OpsPer  int
	ReadPct int
	// Rows is the bank table size.
	Rows int
	// LeaseDur is the lease duration (renewals every LeaseDur/3);
	// MaxStale is the follower-read staleness bound.
	LeaseDur time.Duration
	MaxStale time.Duration
	// Retry is the client resend timeout.
	Retry time.Duration
	// Pipeline is the consensus pipeline width; Alpha the membership
	// activation lag in slots.
	Pipeline int
	Alpha    int
	// Fsync is the WAL sync policy of every store; under SyncBatch the
	// replicas group-commit as the binary's do (deploy.GroupWindow).
	Fsync store.SyncPolicy
	// The chaos schedule: the holder r1 is partitioned from the
	// broadcast and the other replicas (but not from read probes) at
	// PartitionAt, deposed by an ordered RemoveReplica at DeposeAt, and
	// the partition heals at HealAt. The new holder r2 is killed at
	// RestartAt and comes back after Downtime.
	PartitionAt time.Duration
	DeposeAt    time.Duration
	HealAt      time.Duration
	RestartAt   time.Duration
	Downtime    time.Duration
	// ProbeEvery is the cadence of the direct lease-read probes sent to
	// both holders throughout the chaos phase.
	ProbeEvery time.Duration
	// ChaosClients/ChaosTx size the write load riding through the chaos
	// phase (acks must gate on the valid holder across the handover).
	ChaosClients int
	ChaosTx      int
	// AllocRuns is the testing.AllocsPerRun iteration count.
	AllocRuns int
	// Drain bounds the post-load quiesce window.
	Drain time.Duration
	// RingSize is the obs ring capacity.
	RingSize int
	// FlightDir, when non-empty, arms per-node flight recorders.
	FlightDir string
}

// DefaultReadPath is the paper-scale run.
func DefaultReadPath() ReadPathConfig {
	return ReadPathConfig{
		Clients: 6, OpsPer: 600, ReadPct: 95, Rows: 256,
		LeaseDur: 200 * time.Millisecond, MaxStale: 150 * time.Millisecond,
		Retry:    25 * time.Millisecond,
		Pipeline: 4, Alpha: 10,
		Fsync:       store.SyncBatch,
		PartitionAt: 600 * time.Millisecond, DeposeAt: 700 * time.Millisecond,
		HealAt: 1600 * time.Millisecond, RestartAt: 1100 * time.Millisecond,
		Downtime: 120 * time.Millisecond, ProbeEvery: 5 * time.Millisecond,
		ChaosClients: 4, ChaosTx: 250,
		AllocRuns: 2000, Drain: time.Second, RingSize: 1 << 16,
	}
}

// QuickReadPath is the CI-sized run.
func QuickReadPath() ReadPathConfig {
	cfg := DefaultReadPath()
	cfg.Clients, cfg.OpsPer, cfg.Rows = 4, 200, 64
	cfg.ChaosClients, cfg.ChaosTx = 3, 100
	cfg.AllocRuns = 500
	cfg.RingSize = 1 << 15
	return cfg
}

// ReadPhase summarizes one measured load phase.
type ReadPhase struct {
	Mode     string
	Reads    int64
	Writes   int64
	Rejected int64
	Retries  int64
	// ReadsPerSec is the committed read throughput over the phase.
	ReadsPerSec float64
	ReadMeanMs  float64
	ReadP99Ms   float64
	WriteMeanMs float64
	Finished    int
	Clients     int
}

// ChaosPhase is the outcome of the lease-partition scenario.
type ChaosPhase struct {
	Committed int64
	Aborted   int64
	Finished  int
	Clients   int
	// OldServed counts lease reads the partitioned stale holder served
	// inside its remaining window; OldServedLast is its last serve, and
	// OldFenced that it stopped by PartitionAt+LeaseDur (plus margin) —
	// the two sides of the availability/safety tradeoff.
	OldServed     int64
	OldServedLast time.Duration
	OldFenced     bool
	// NewServed counts serves by the successor; HandoverAt is its first
	// (after the notBefore barrier).
	NewServed  int64
	HandoverAt time.Duration
	// Kills/Restarts count the rolling restart of the successor;
	// RestartRejected counts its post-restart rejections before a fresh
	// renewal re-opened serving at ReacquiredAt.
	Kills           int
	Restarts        int
	RestartRejected int64
	ReacquiredAt    time.Duration
	Reacquired      bool
	// Audit is the phase's checker view and injection-log hash.
	Audit
}

// ReadPathResult is the certified outcome of one readpath run.
type ReadPathResult struct {
	Consensus ReadPhase
	Lease     ReadPhase
	Follower  ReadPhase
	// Speedup is lease-read throughput over consensus-read throughput
	// at the same mix; the acceptance bar is >= 2x.
	Speedup float64
	// ServeAllocs is allocations per steady-state lease-read serve
	// (must be zero); ApplyAllocs per ordered deposit apply.
	ServeAllocs float64
	ApplyAllocs float64
	// WAL counter deltas across the lease phase. WalAppends/WalFsyncs
	// span every store (replica journals plus the broadcast service's
	// sequencer journal, whose write-ahead contract forces a covering
	// fsync per delivery run); SMRAppends and GroupSyncs isolate the
	// replica hot path, where group commit makes a full pipeline window
	// of ack-bearing slots share one fsync and ack-free slots defer
	// theirs entirely.
	WalAppends     int64
	WalFsyncs      int64
	SMRAppends     int64
	GroupSyncs     int64
	AcksSuppressed int64
	Chaos          ChaosPhase
	// Audit aggregates the online checker across all phases.
	Audit
}

// Gates is the readpath acceptance bar: every phase's clients finished,
// the steady-state serve loop allocates nothing, lease reads are at
// least twice as fast as consensus-path reads, the replica journal
// coalesces at least two appends per group-commit fsync, the chaos
// scenario played out end to end (stale holder served then fenced,
// successor took over after the barrier, and re-acquired only via a
// fresh renewal after its restart), and the checker stayed clean.
func (r ReadPathResult) Gates() []Gate {
	var gates []Gate
	for _, p := range []ReadPhase{r.Consensus, r.Lease, r.Follower} {
		gates = append(gates, gate(p.Mode+".clients_finished", p.Finished == p.Clients, "%d/%d", p.Finished, p.Clients))
	}
	ch := r.Chaos
	return append(gates,
		gate("lease.reads_served", r.Lease.Reads > 0, "none"),
		gate("follower.reads_served", r.Follower.Reads > 0, "none"),
		gate("chaos.clients_finished", ch.Finished == ch.Clients, "%d/%d", ch.Finished, ch.Clients),
		gate("chaos.successor_restarted", ch.Kills == 1 && ch.Restarts == 1, "%d kills, %d restarts", ch.Kills, ch.Restarts),
		gate("chaos.old_served", ch.OldServed > 0, "stale holder served nothing in its window"),
		boolGate("chaos.old_fenced", ch.OldFenced),
		gate("chaos.new_served", ch.NewServed > 0 && ch.HandoverAt > 0, "successor never took over"),
		boolGate("chaos.reacquired", ch.Reacquired),
		gate("serve_allocs", r.ServeAllocs == 0, "%.1f allocs/op", r.ServeAllocs),
		gate("speedup", r.Speedup >= 2, "%.2fx, bar 2x", r.Speedup),
		gate("group_commit", r.GroupSyncs > 0 && r.GroupSyncs*2 <= r.SMRAppends,
			"%d group syncs for %d replica appends", r.GroupSyncs, r.SMRAppends),
		r.Audit.gate())
}

// Certified reports whether every gate held.
func (r ReadPathResult) Certified() bool { return Certified(r.Gates()) }

// readpathRun starts one phase on a fresh durable, lease-enabled 3+3
// deployment. Unlike the membership experiment's shared view, every
// replica folds membership commands and renewals from its own delivery
// stream into its own epoch view — a partitioned replica's view
// genuinely goes stale. Each service node keeps its own view too, and
// its durable sequencer and acceptor journals put the sequencer's
// covering fsync (one per contiguous delivery run) in the WAL counters.
func readpathRun(cfg ReadPathConfig, label string) (*Run, *Cluster) {
	run := startRun("readpath-"+label, cfg.RingSize, cfg.FlightDir, "")
	rc := run.Attach(newCluster(deployment{app: bankApp(cfg.Rows), root: run.Root(),
		nodes: literal("smr", []string{"h2", "h2", "h2"}, 3, func(n *deploy.Node) {
			n.Pipeline, n.Alpha, n.Fsync = cfg.Pipeline, cfg.Alpha, cfg.Fsync.String()
			n.Lease, n.LeaseDur, n.MaxStale = n.Role == "smr", cfg.LeaseDur, cfg.MaxStale
		})}))
	return run, rc
}

// readMixClients attaches cfg.Clients closed-loop clients running a
// ReadPct/… read/write mix, recording read and write latencies apart.
// In consensus mode reads are ordered transactions ("balance" through
// Submit); otherwise they are local reads in the given mode against
// target(i), retried on rejection.
func readMixClients(rc *Cluster, stats *loadStats, readLat, writeLat *des.LatencyRecorder,
	cfg ReadPathConfig, consensus bool, mode core.ReadMode, target func(i int) msg.Loc) []*core.Client {
	clients := make([]*core.Client, cfg.Clients)
	wasRead := make([]bool, cfg.Clients)
	stats.onDone = func(i int, lat time.Duration, _ bool) {
		if wasRead[i] {
			readLat.Add(lat)
		} else {
			writeLat.Add(lat)
		}
	}
	closedLoop(rc.clu, stats, cfg.Clients, cfg.OpsPer, func(i int, loc msg.Loc) client {
		cli := &core.Client{Slf: loc, Mode: core.ModeSMR,
			Replicas: rc.rloc, BcastNodes: rc.bloc, Retry: cfg.Retry}
		clients[i] = cli
		rng := rand.New(rand.NewSource(int64(i)*7919 + 17))
		return client{
			issue: func() []msg.Directive {
				wasRead[i] = rng.Intn(100) < cfg.ReadPct
				if !wasRead[i] {
					return cli.Submit("deposit", []any{int64(rng.Intn(cfg.Rows)), int64(1)})
				}
				args := []any{int64(rng.Intn(cfg.Rows))}
				if consensus {
					return cli.Submit("balance", args)
				}
				return cli.SubmitRead("balance", args, mode, target(i))
			},
			handle: func(m msg.Msg) (bool, bool, []msg.Directive) {
				res, outs := cli.Handle(m)
				if res != nil {
					return true, true, outs
				}
				if rr := cli.TakeRead(); rr != nil {
					core.ReleaseReadResult(rr)
					return true, true, outs
				}
				return false, false, outs
			},
		}
	})
	return clients
}

// readpathPhase runs one measured load phase on a fresh cluster.
func readpathPhase(cfg ReadPathConfig, label string, consensus bool,
	mode core.ReadMode, target func(i int) msg.Loc) (ReadPhase, Audit) {
	run, rc := readpathRun(cfg, label)
	sim := rc.sim

	st := &loadStats{}
	var readLat, writeLat des.LatencyRecorder
	clients := readMixClients(rc, st, &readLat, &writeLat, cfg, consensus, mode, target)

	// Lease ticks re-arm forever, so the sim never idles: drive on the
	// fleet's completion with a step-count backstop.
	runToFinish(sim, st, cfg.Clients)
	sim.Run(cfg.Drain, 20_000_000)

	ph := ReadPhase{
		Mode: label, Reads: int64(readLat.Count()), Writes: int64(writeLat.Count()),
		Finished: st.finished, Clients: cfg.Clients,
	}
	elapsed := st.lastDone
	if elapsed <= 0 {
		elapsed = time.Second
	}
	ph.ReadsPerSec = des.Throughput(int(ph.Reads), elapsed)
	ph.ReadMeanMs = float64(readLat.Mean()) / float64(time.Millisecond)
	ph.ReadP99Ms = float64(readLat.Percentile(99)) / float64(time.Millisecond)
	ph.WriteMeanMs = float64(writeLat.Mean()) / float64(time.Millisecond)
	for _, c := range clients {
		ph.Rejected += c.ReadsRejected
		ph.Retries += c.Retries
	}
	audit := run.Audit()
	run.Close(len(audit.Violations) == 0)
	return ph, audit
}

// readpathChaos runs the lease-partition scenario.
func readpathChaos(cfg ReadPathConfig) ChaosPhase {
	run, rc := readpathRun(cfg, "chaos")
	sim := rc.sim

	ch := ChaosPhase{Clients: cfg.ChaosClients}

	// Writers ride through the whole schedule: their acks must gate on
	// whichever replica holds a valid lease at the time.
	stats := &loadStats{}
	work := func(i int) Workload { return MicroWorkload(cfg.Rows, int64(i)*31337) }
	shadowClients(rc.clu, stats, cfg.ChaosClients, cfg.ChaosTx, core.ModeSMR,
		rc.rloc, rc.bloc, cfg.Retry, work)

	// Probes send lease reads straight to both holders throughout; the
	// probe node is deliberately NOT in the partition, so the stale
	// holder stays reachable by clients while cut from the order.
	probe := msg.Loc("probe")
	probeUntil := cfg.HealAt
	if t := cfg.RestartAt + cfg.Downtime; t > probeUntil {
		probeUntil = t
	}
	probeUntil += 500 * time.Millisecond
	var pseq int64
	targets := make(map[int64]msg.Loc)
	rc.clu.AddCostedNode(probe, 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
		res, ok := env.M.Body.(*core.ReadResult)
		if !ok {
			return nil, 0
		}
		tgt := targets[res.Seq]
		delete(targets, res.Seq)
		now := sim.Now()
		switch {
		case tgt == "r1" && !res.Rejected:
			if now > cfg.PartitionAt+time.Millisecond {
				ch.OldServed++
			}
			if now > ch.OldServedLast {
				ch.OldServedLast = now
			}
		case tgt == "r2" && !res.Rejected:
			ch.NewServed++
			if ch.HandoverAt == 0 {
				ch.HandoverAt = now
			}
			if now > cfg.RestartAt+cfg.Downtime && ch.ReacquiredAt == 0 {
				ch.ReacquiredAt = now
			}
		case tgt == "r2" && res.Rejected:
			if now > cfg.RestartAt+cfg.Downtime && ch.ReacquiredAt == 0 {
				ch.RestartRejected++
			}
		}
		core.ReleaseReadResult(res)
		return nil, 0
	})
	var probeTick func()
	probeTick = func() {
		if sim.Now() > probeUntil {
			return
		}
		for _, tgt := range []msg.Loc{"r1", "r2"} {
			pseq++
			targets[pseq] = tgt
			rc.clu.SendAfter(0, probe, tgt, msg.M(core.HdrRead, core.ReadRequest{
				Client: probe, Seq: pseq, Type: "balance",
				Args: []any{int64(1)}, Mode: core.ReadLease,
			}))
		}
		sim.After(cfg.ProbeEvery, probeTick)
	}
	sim.After(0, probeTick)

	// The ordered depose: epoch 1 makes r2 the natural holder. The
	// partitioned r1 never applies it — its lease dies by expiry.
	admin := msg.Loc("admin")
	rc.clu.AddCostedNode(admin, 1, func(msg.Envelope) ([]msg.Directive, time.Duration) { return nil, 0 })
	sim.After(cfg.DeposeAt, func() {
		cmd := member.Command{Op: member.RemoveReplica, Node: "r1"}
		rc.clu.SendAfter(0, admin, "b1", msg.M(broadcast.HdrBcast,
			broadcast.Bcast{From: admin, Seq: 1, Payload: member.EncodeCommand(cmd)}))
	})

	// The injection plan: partition r1 from the order (not the probes),
	// and crash-restart the successor r2 after it has taken over.
	run.Inject(fault.Plan{
		Partitions: []fault.Partition{{
			From: fault.Duration(cfg.PartitionAt), To: fault.Duration(cfg.HealAt),
			A: []msg.Loc{"r1"}, B: []msg.Loc{"b1", "b2", "b3", "r2", "r3"},
			Symmetric: true,
		}},
		Rolling: []fault.Rolling{{
			StartAt:  fault.Duration(cfg.RestartAt),
			Nodes:    []msg.Loc{"r2"},
			Downtime: fault.Duration(cfg.Downtime),
		}},
	})

	runToFinish(sim, stats, cfg.ChaosClients)
	// Keep the sim alive through the probe window even if the writers
	// finished early, then quiesce.
	if left := probeUntil + 100*time.Millisecond - sim.Now(); left > 0 {
		sim.Run(left, 20_000_000)
	}
	sim.Run(cfg.Drain, 20_000_000)

	ch.Committed, ch.Aborted, ch.Finished = stats.committed, stats.aborted, stats.finished
	ch.Kills, ch.Restarts = rc.kills, rc.restarts
	ch.OldFenced = ch.OldServedLast > 0 &&
		ch.OldServedLast <= cfg.PartitionAt+cfg.LeaseDur+5*time.Millisecond
	ch.Reacquired = ch.ReacquiredAt > 0
	ch.Audit = run.Audit()
	run.Close(len(ch.Violations) == 0 && ch.Kills == 1 && ch.Restarts == 1 && ch.Reacquired)
	return ch
}

// MeasureReadAllocs pins the hot-path allocation budget outside the
// simulation: allocations per steady-state lease-read serve (the
// acceptance bar is zero — pooled results, reused directive buffer,
// scratch-key point lookups) and per ordered deposit apply, measured
// at a non-holder so the pure apply path is isolated from ack fan-out.
// readpath_bench_test.go gates both against a committed baseline.
func MeasureReadAllocs(runs int) (serve, apply float64) {
	mk := func(loc msg.Loc) *core.SMRReplica {
		db, err := sqldb.Open("h2:mem:readpath-alloc-" + string(loc))
		if err != nil {
			panic(err)
		}
		if err := core.BankSetup(db, 64); err != nil {
			panic(err)
		}
		rep, err := core.OpenSMRReplica(core.SMRConfig{Self: loc, DB: db, Registry: core.BankRegistry()})
		if err != nil {
			panic(err)
		}
		rep.Executor().Fast = core.BankFastRegistry()
		rep.SetView(member.NewView(charter(), 8))
		rep.EnableLease(core.LeaseConfig{
			Dur: time.Hour, MaxStale: time.Hour, Bcast: "b1",
			Now: func() time.Duration { return time.Second },
		}, core.BankReadRegistry())
		rep.Step(msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: 0,
			Msgs: []broadcast.Bcast{{From: "r1", Seq: 1,
				Payload: core.EncodeLease(core.LeaseRenewal{Epoch: 0, Holder: "r1", Issue: time.Second, Seq: 1})}}}))
		return rep
	}

	holder := mk("r1")
	read := msg.M(core.HdrRead, core.ReadRequest{
		Client: "probe", Seq: 1, Type: "balance",
		Args: []any{int64(1)}, Mode: core.ReadLease,
	})
	for i := 0; i < 64; i++ { // warm the result pool and scratch buffers
		_, outs := holder.Step(read)
		core.ReleaseReadResult(outs[0].M.Body.(*core.ReadResult))
	}
	serve = testing.AllocsPerRun(runs, func() {
		_, outs := holder.Step(read)
		core.ReleaseReadResult(outs[0].M.Body.(*core.ReadResult))
	})

	follower := mk("r2")
	warm := 64
	total := runs + warm + 1 // AllocsPerRun runs f once extra to warm up
	msgs := make([]msg.Msg, total)
	for i := range msgs {
		pay, err := core.EncodeTx(core.TxRequest{
			Client: "c0", Seq: int64(i + 1), Type: "deposit",
			Args: []any{int64(1), int64(1)},
		})
		if err != nil {
			panic(err)
		}
		msgs[i] = msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: i + 1,
			Msgs: []broadcast.Bcast{{From: "c0", Seq: int64(i + 1), Payload: pay}}})
	}
	n := 0
	for ; n < warm; n++ {
		follower.Step(msgs[n])
	}
	apply = testing.AllocsPerRun(runs, func() {
		follower.Step(msgs[n])
		n++
	})
	return serve, apply
}

// ReadPath runs the full experiment: alloc profile, three measured
// phases, and the chaos scenario.
func ReadPath(cfg ReadPathConfig) ReadPathResult {
	var res ReadPathResult
	res.ServeAllocs, res.ApplyAllocs = MeasureReadAllocs(cfg.AllocRuns)

	var audit Audit
	res.Consensus, audit = readpathPhase(cfg, "consensus", true, 0, nil)
	res.Audit.add(audit)

	appends0 := obs.C("store.wal.appends").Value()
	fsyncs0 := obs.C("store.wal.fsyncs").Value()
	smrAppends0 := obs.C("core.smr.journal_appends").Value()
	group0 := obs.C("core.smr.group_syncs").Value()
	supp0 := obs.C("core.smr.acks_suppressed").Value()
	res.Lease, audit = readpathPhase(cfg, "lease", false, core.ReadLease,
		func(int) msg.Loc { return "r1" })
	res.Audit.add(audit)
	res.WalAppends = obs.C("store.wal.appends").Value() - appends0
	res.WalFsyncs = obs.C("store.wal.fsyncs").Value() - fsyncs0
	res.SMRAppends = obs.C("core.smr.journal_appends").Value() - smrAppends0
	res.GroupSyncs = obs.C("core.smr.group_syncs").Value() - group0
	res.AcksSuppressed = obs.C("core.smr.acks_suppressed").Value() - supp0

	res.Follower, audit = readpathPhase(cfg, "follower", false, core.ReadFollower,
		func(i int) msg.Loc {
			if i%2 == 0 {
				return "r2"
			}
			return "r3"
		})
	res.Audit.add(audit)

	res.Chaos = readpathChaos(cfg)
	res.Audit.add(res.Chaos.Audit)

	if res.Consensus.ReadsPerSec > 0 {
		res.Speedup = res.Lease.ReadsPerSec / res.Consensus.ReadsPerSec
	}
	return res
}

// reportReadPath flattens the experiment for BENCH_readpath.json.
func reportReadPath(res ReadPathResult, r *Report) {
	phase := func(p ReadPhase) {
		r.Add("readpath."+p.Mode+".reads", float64(p.Reads), "count")
		r.Add("readpath."+p.Mode+".writes", float64(p.Writes), "count")
		r.Add("readpath."+p.Mode+".rejected", float64(p.Rejected), "count")
		r.Add("readpath."+p.Mode+".reads_per_sec", p.ReadsPerSec, "tx/s")
		r.Add("readpath."+p.Mode+".read_mean", p.ReadMeanMs, "ms")
		r.Add("readpath."+p.Mode+".read_p99", p.ReadP99Ms, "ms")
		r.Add("readpath."+p.Mode+".finished", float64(p.Finished), "count")
	}
	phase(res.Consensus)
	phase(res.Lease)
	phase(res.Follower)
	r.Add("readpath.speedup", res.Speedup, "x")
	r.Add("readpath.serve_allocs_per_op", res.ServeAllocs, "allocs")
	r.Add("readpath.apply_allocs_per_op", res.ApplyAllocs, "allocs")
	r.Add("readpath.wal_appends", float64(res.WalAppends), "count")
	r.Add("readpath.smr_appends", float64(res.SMRAppends), "count")
	r.Add("readpath.wal_fsyncs", float64(res.WalFsyncs), "count")
	r.Add("readpath.group_syncs", float64(res.GroupSyncs), "count")
	r.Add("readpath.acks_suppressed", float64(res.AcksSuppressed), "count")
	r.Add("readpath.chaos.committed", float64(res.Chaos.Committed), "count")
	r.Add("readpath.chaos.finished", float64(res.Chaos.Finished), "count")
	r.Add("readpath.chaos.old_served", float64(res.Chaos.OldServed), "count")
	r.Add("readpath.chaos.new_served", float64(res.Chaos.NewServed), "count")
	r.Add("readpath.chaos.handover_at", res.Chaos.HandoverAt.Seconds(), "s")
	r.Add("readpath.chaos.kills", float64(res.Chaos.Kills), "count")
	r.Add("readpath.chaos.restarts", float64(res.Chaos.Restarts), "count")
	r.Add("readpath.chaos.restart_rejected", float64(res.Chaos.RestartRejected), "count")
	res.Audit.report(r)
	r.AddCertified(res.Gates())
	r.Fingerprint("readpath.chaos", res.Chaos.Fingerprint)
}

// RenderReadPath prints the human-readable summary.
func RenderReadPath(w io.Writer, res ReadPathResult) {
	fmt.Fprintln(w, "Readpath — zero-allocation hot path with lease-based local reads (virtual time, real WAL)")
	fmt.Fprintf(w, "  allocs/op: serve %.1f (bar: 0), apply %.1f\n", res.ServeAllocs, res.ApplyAllocs)
	p := func(ph ReadPhase) {
		fmt.Fprintf(w, "  %-9s reads: %6d at %9.0f/s (mean %.3fms, p99 %.3fms, %d rejected)   writes: %d (mean %.3fms)   finished %d/%d\n",
			ph.Mode, ph.Reads, ph.ReadsPerSec, ph.ReadMeanMs, ph.ReadP99Ms, ph.Rejected,
			ph.Writes, ph.WriteMeanMs, ph.Finished, ph.Clients)
	}
	p(res.Consensus)
	p(res.Lease)
	p(res.Follower)
	fmt.Fprintf(w, "  lease vs consensus read throughput: %.2fx (bar: 2x)\n", res.Speedup)
	fmt.Fprintf(w, "  fsync batching (lease phase): %d replica appends share %d group syncs (%d WAL appends, %d fsyncs cluster-wide), %d acks gated to holder\n",
		res.SMRAppends, res.GroupSyncs, res.WalAppends, res.WalFsyncs, res.AcksSuppressed)
	ch := res.Chaos
	fmt.Fprintf(w, "  chaos: committed %d (%d aborted), finished %d/%d\n",
		ch.Committed, ch.Aborted, ch.Finished, ch.Clients)
	fmt.Fprintf(w, "    stale holder served %d reads in its window, last at %.3fs, fenced by expiry: %v\n",
		ch.OldServed, ch.OldServedLast.Seconds(), ch.OldFenced)
	fmt.Fprintf(w, "    successor served %d (first at %.3fs after the notBefore barrier)\n",
		ch.NewServed, ch.HandoverAt.Seconds())
	fmt.Fprintf(w, "    restart: %d kill, %d restart, %d rejections before re-acquiring at %.3fs (volatile lease): %v\n",
		ch.Kills, ch.Restarts, ch.RestartRejected, ch.ReacquiredAt.Seconds(), ch.Reacquired)
	fmt.Fprintf(w, "  checker: %d events, %d violations   certified: %v\n",
		res.Events, len(res.Violations), res.Certified())
	renderViolations(w, "", res.Violations)
}
