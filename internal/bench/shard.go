package bench

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/shard"
	"shadowdb/internal/sqldb"
)

// The shard experiment certifies the sharded deployment three ways:
//
//  1. Scaling: a zipfian hot-key, single-shard workload swept over shard
//     counts {1,2,4,8}. Each point runs with the online checker attached
//     (group-keyed per shard) and must be violation-free; 4 shards must
//     deliver ≥3× the 1-shard throughput.
//  2. Cross-shard: a mixed workload (deposits + transfers, some of which
//     land on two shards) on 2 shards. Besides zero violations the run
//     must drain clean — no open prepare anywhere, nothing in flight at
//     the router — and the books must balance: summing every account's
//     balance on its owning shard equals the seed money plus the
//     committed deposits (a half-applied transfer would break the sum).
//  3. Chaos: the same mixed workload while one whole shard is cut off
//     mid-2PC (fault.Isolate) and later healed. Certification again
//     demands zero violations, a clean drain, balanced books, and
//     post-heal progress — i.e. no transaction is left half-applied by
//     the partition.

// ShardConfig scales the experiment.
type ShardConfig struct {
	// Counts are the swept shard counts (phase 1).
	Counts []int
	// Rows is the bank size; Clients the closed-loop fleet per sweep
	// point; TxPer the per-client transaction quota. The fleet must be
	// large enough to saturate one shard several times over, or the
	// sweep measures the clients instead of the shards.
	Rows    int
	Clients int
	TxPer   int
	// MixedClients/MixedTxPer scale phases 2 and 3 (the cross-shard
	// phases certify protocol properties, not throughput, so they can
	// run a smaller fleet).
	MixedClients int
	MixedTxPer   int
	// CrossFrac is the fraction of transfers in the mixed workload
	// (phases 2 and 3); the rest are zipfian deposits.
	CrossFrac float64
	// MixedShards is the shard count of phases 2 and 3.
	MixedShards int
	// Batch/BatchDelay/Pipeline tune each shard's broadcast hot path.
	Batch      int
	BatchDelay time.Duration
	Pipeline   int
	// Retry is the 2PC coordinator's retransmission period.
	Retry time.Duration
	// PartitionFrom/To bound the phase-3 shard isolation window.
	PartitionFrom time.Duration
	PartitionTo   time.Duration
	// RingSize sizes the trace ring behind the checker.
	RingSize int
	// FlightDir, when non-empty, arms per-node flight recorders in the
	// cross-shard phases that dump postmortem bundles under it (one
	// subdirectory per phase) on any checker violation and at the end
	// of an uncertified phase.
	FlightDir string
}

// DefaultShard is the standard scale.
func DefaultShard() ShardConfig {
	return ShardConfig{
		Counts: []int{1, 2, 4, 8},
		Rows:   4096, Clients: 320, TxPer: 100,
		MixedClients: 32, MixedTxPer: 150,
		CrossFrac: 0.10, MixedShards: 2,
		Batch: 16, BatchDelay: time.Millisecond, Pipeline: 4,
		Retry:         400 * time.Millisecond,
		PartitionFrom: 1 * time.Second, PartitionTo: 4 * time.Second,
		RingSize: 1 << 16,
	}
}

// QuickShard keeps tests fast.
func QuickShard() ShardConfig {
	return ShardConfig{
		Counts: []int{1, 2, 4},
		Rows:   512, Clients: 256, TxPer: 16,
		MixedClients: 16, MixedTxPer: 40,
		CrossFrac: 0.15, MixedShards: 2,
		Batch: 16, BatchDelay: time.Millisecond, Pipeline: 4,
		Retry:         250 * time.Millisecond,
		PartitionFrom: 500 * time.Millisecond, PartitionTo: 1500 * time.Millisecond,
		RingSize: 1 << 14,
	}
}

// routerOverhead is the modeled service time of one router step: key
// hashing plus a map touch and one encode — far off the sequencer's
// critical path, so the router only becomes the bottleneck two orders
// of magnitude past a shard's capacity.
const routerOverhead = 10 * time.Microsecond

// shardCluster is a simulated sharded deployment: per shard a 3-node
// broadcast service (compiled-mode cost) with 2 subscriber replicas,
// fronted by one router — several broadcast groups composed on one
// Cluster.
type shardCluster struct {
	*Cluster
	part   shard.Partitioner
	router *shard.Router
	groupB [][]msg.Loc // per shard: broadcast nodes
	groupR [][]msg.Loc // per shard: replicas
}

// newShardCluster builds an n-shard deployment. Every shard's replicas
// run h2 in-memory databases seeded with the full bank (unowned rows
// are simply never touched — placement decides which shard mutates an
// account). The shard members are the node literal; the router is built
// by hand because its 2PC retry period is an experiment parameter that
// no deploy.Node field carries.
func newShardCluster(n int, cfg ShardConfig) *shardCluster {
	sc := &shardCluster{part: shard.NewHash(n)}
	var nodes []deploy.Node
	for k := 0; k < n; k++ {
		bloc := []msg.Loc{shard.BcastLoc(k, 0), shard.BcastLoc(k, 1), shard.BcastLoc(k, 2)}
		rloc := []msg.Loc{shard.ReplicaLoc(k, 0), shard.ReplicaLoc(k, 1)}
		sc.groupB = append(sc.groupB, bloc)
		sc.groupR = append(sc.groupR, rloc)
		for _, l := range slices.Concat(bloc, rloc) {
			nd := deploy.Default()
			nd.ID, nd.Role = string(l), "shard"
			nd.Batch, nd.BatchDelay, nd.Pipeline = cfg.Batch, cfg.BatchDelay, cfg.Pipeline
			nodes = append(nodes, nd)
		}
	}
	sc.Cluster = newCluster(deployment{nodes: nodes, app: bankApp(cfg.Rows), router: true})

	rt, err := shard.NewRouter(shard.Config{
		Slf: shard.RouterLoc, Part: sc.part, App: shard.Bank(),
		Shards: sc.groupB, Retry: cfg.Retry,
	})
	if err != nil {
		panic(err)
	}
	sc.router = rt
	sc.host(shard.RouterLoc, rt, func(msg.Msg) time.Duration { return routerOverhead })
	return sc
}

// ledger is shard replica l's 2PC ledger.
func (sc *shardCluster) ledger(l msg.Loc) *shard.Ledger {
	return sc.smr(l).Extension().(*shard.Ledger)
}

// shardRun starts one checked phase on a fresh n-shard deployment (the
// checker keys its invariants per shard group).
func shardRun(n int, cfg ShardConfig, phase string) (*Run, *shardCluster) {
	run := startRun("shard-"+phase, cfg.RingSize, flightSubdir(cfg.FlightDir, phase), "")
	sc := newShardCluster(n, cfg)
	run.Attach(sc.Cluster)
	return run, sc
}

// shardStats extends loadStats with per-type commit counts (the
// conservation check needs to know how much money deposits minted).
type shardStats struct {
	loadStats
	depositCommits  int64
	transferCommits int64
	transferAborts  int64
}

// shardClients attaches closed-loop clients that submit through the
// router and attribute each outcome to the submitted transaction type.
func shardClients(clu *des.Cluster, stats *shardStats, n, txPer int,
	retry time.Duration, mkWork func(i int) Workload) {
	lastType := make([]string, n)
	stats.onDone = func(i int, _ time.Duration, ok bool) {
		switch {
		case ok && lastType[i] == "deposit":
			stats.depositCommits++
		case ok && lastType[i] == "transfer":
			stats.transferCommits++
		case !ok && lastType[i] == "transfer":
			stats.transferAborts++
		}
	}
	shadowClients(clu, &stats.loadStats, n, txPer, core.ModePBR,
		[]msg.Loc{shard.RouterLoc}, nil, retry, func(i int) Workload {
			work := mkWork(i)
			return func() (string, []any) {
				typ, args := work()
				lastType[i] = typ
				return typ, args
			}
		})
}

// mixedWorkload interleaves zipfian deposits with transfers between two
// uniformly random distinct accounts (amounts 1..10). With a hash
// partitioner over ≥2 shards roughly half the transfers land on two
// shards and exercise 2PC; the rest take the single-shard fast path.
func mixedWorkload(rows int, crossFrac float64, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 16, uint64(rows-1))
	return func() (string, []any) {
		if rng.Float64() < crossFrac {
			from := int64(rng.Intn(rows))
			to := int64(rng.Intn(rows))
			for to == from {
				to = int64(rng.Intn(rows))
			}
			return "transfer", []any{from, to, int64(1 + rng.Intn(10))}
		}
		return "deposit", []any{int64(zipf.Uint64()), int64(1)}
	}
}

// ShardPoint is one scaling-sweep measurement.
type ShardPoint struct {
	Shards     int
	Throughput float64
	MeanLatMs  float64
	P99LatMs   float64
	Violations int
}

// ShardResult is the certified outcome of all three phases.
type ShardResult struct {
	// Sweep holds phase 1's per-shard-count points; Speedup4 is
	// throughput(4 shards) / throughput(1 shard) when both were measured.
	Sweep    []ShardPoint
	Speedup4 float64
	// Phase 2 (mixed workload on MixedShards shards).
	MixedShards     int
	MixedCommitted  int64
	TransferCommits int64
	TransferAborts  int64
	CrossDecided    int
	MixedOpen       int
	MixedInFlight   int
	MixedBalanced   bool
	MixedReplicasEq bool
	MixedViolations []dist.Violation
	// Phase 3 (shard 1 isolated mid-2PC, healed, drained).
	ChaosCommitted   int64
	ChaosFinished    int
	ChaosClients     int
	ChaosOpen        int
	ChaosInFlight    int
	ChaosBalanced    bool
	ChaosProgress    bool
	ChaosInjections  int
	ChaosViolations  []dist.Violation
	ChaosTransferOK  int64
	ChaosTransferAbt int64
}

// mixedGates is phase 2's bar: zero violations, balanced books,
// replica parity inside every shard, and a clean drain.
func (r ShardResult) mixedGates() []Gate {
	return []Gate{
		gate("mixed.checker_clean", len(r.MixedViolations) == 0, "%d violations", len(r.MixedViolations)),
		boolGate("mixed.balanced", r.MixedBalanced),
		boolGate("mixed.replicas_equal", r.MixedReplicasEq),
		gate("mixed.drained", r.MixedOpen == 0 && r.MixedInFlight == 0,
			"%d open prepares, %d in flight", r.MixedOpen, r.MixedInFlight),
	}
}

// chaosGates is phase 3's bar: zero violations, balanced books, a clean
// drain, post-heal progress, and every client finished.
func (r ShardResult) chaosGates() []Gate {
	return []Gate{
		gate("chaos.checker_clean", len(r.ChaosViolations) == 0, "%d violations", len(r.ChaosViolations)),
		boolGate("chaos.balanced", r.ChaosBalanced),
		gate("chaos.drained", r.ChaosOpen == 0 && r.ChaosInFlight == 0,
			"%d open prepares, %d in flight", r.ChaosOpen, r.ChaosInFlight),
		boolGate("chaos.progress_after_heal", r.ChaosProgress),
		gate("chaos.clients_finished", r.ChaosFinished == r.ChaosClients, "%d/%d", r.ChaosFinished, r.ChaosClients),
	}
}

// Gates is the acceptance bar: zero violations everywhere, ≥3× scaling
// at 4 shards (when both points were measured), clean drains, and
// balanced books in both cross-shard phases.
func (r ShardResult) Gates() []Gate {
	var gates []Gate
	for _, p := range r.Sweep {
		gates = append(gates, gate(fmt.Sprintf("sweep.s%d.checker_clean", p.Shards),
			p.Violations == 0, "%d violations", p.Violations))
	}
	gates = append(gates, gate("speedup_4v1", !(r.Speedup4 > 0 && r.Speedup4 < 3), "%.2fx, bar 3x", r.Speedup4))
	return append(append(gates, r.mixedGates()...), r.chaosGates()...)
}

// Certified reports whether every gate held.
func (r ShardResult) Certified() bool { return Certified(r.Gates()) }

// Shard runs all three phases.
func Shard(cfg ShardConfig) ShardResult {
	var res ShardResult
	byCount := make(map[int]float64)
	for _, n := range cfg.Counts {
		p := shardSweepPoint(n, cfg)
		res.Sweep = append(res.Sweep, p)
		byCount[n] = p.Throughput
	}
	if t1, ok := byCount[1]; ok && t1 > 0 {
		if t4, ok := byCount[4]; ok {
			res.Speedup4 = t4 / t1
		}
	}
	shardMixed(cfg, &res)
	shardChaos(cfg, &res)
	return res
}

// shardSweepPoint runs the single-shard-traffic workload on n shards
// with the checker attached.
func shardSweepPoint(n int, cfg ShardConfig) ShardPoint {
	cfg.FlightDir = "" // the sweep certifies scaling; evidence comes from the cross-shard phases
	run, sc := shardRun(n, cfg, "sweep")

	stats := &shardStats{}
	work := func(i int) Workload { return ZipfWorkload(cfg.Rows, int64(i)*7919+1) }
	shardClients(sc.clu, stats, cfg.Clients, cfg.TxPer, 2*time.Second, work)
	runToFinish(sc.sim, &stats.loadStats, cfg.Clients)

	cp := stats.point(cfg.Clients)
	violations := len(run.Audit().Violations)
	run.Close(true)
	return ShardPoint{
		Shards: n, Throughput: cp.Throughput,
		MeanLatMs: cp.MeanLatMs, P99LatMs: cp.P99LatMs,
		Violations: violations,
	}
}

// shardDrain lets retransmission timers and stragglers play out after
// the client fleet finished, so "nothing in flight" is a statement
// about the protocol, not about when we stopped looking.
func shardDrain(sc *shardCluster, grace time.Duration) {
	deadline := sc.sim.Now() + grace
	for sc.sim.Now() < deadline && !sc.sim.Idle() {
		sc.sim.Run(deadline, 1_000_000)
	}
}

// balanced sums every account's balance on its owning shard and checks
// the books: seed money plus committed deposits (transfers move money,
// deposits mint one unit each). A transfer applied on one shard but not
// the other would break this sum.
func balanced(sc *shardCluster, rows int, depositCommits int64) bool {
	var total int64
	for id := 0; id < rows; id++ {
		k := sc.part.Shard(shard.BankKey(int64(id)))
		db := sc.smr(sc.groupR[k][0]).Executor().DB
		res, err := db.Exec("SELECT balance FROM accounts WHERE id = ?", id)
		if err != nil || len(res.Rows) == 0 {
			return false
		}
		switch v := res.Rows[0][0].(type) {
		case int64:
			total += v
		case int:
			total += int64(v)
		case float64:
			total += int64(v)
		default:
			return false
		}
	}
	return total == int64(rows)*1000+depositCommits
}

// replicasEqual checks state parity inside every shard.
func replicasEqual(sc *shardCluster) bool {
	for k := range sc.groupR {
		a := sc.smr(sc.groupR[k][0]).Executor().DB
		b := sc.smr(sc.groupR[k][1]).Executor().DB
		if !sqldb.Equal(a, b) {
			return false
		}
	}
	return true
}

// openPrepares sums OpenPrepares across all replicas.
func openPrepares(sc *shardCluster) int {
	n := 0
	for _, rloc := range sc.groupR {
		for _, l := range rloc {
			n += sc.ledger(l).OpenPrepares()
		}
	}
	return n
}

// shardMixed is phase 2: the mixed workload on MixedShards shards.
func shardMixed(cfg ShardConfig, res *ShardResult) {
	run, sc := shardRun(cfg.MixedShards, cfg, "mixed")

	stats := &shardStats{}
	work := func(i int) Workload { return mixedWorkload(cfg.Rows, cfg.CrossFrac, int64(i)*104729+3) }
	shardClients(sc.clu, stats, cfg.MixedClients, cfg.MixedTxPer, time.Second, work)
	runToFinish(sc.sim, &stats.loadStats, cfg.MixedClients)
	shardDrain(sc, 2*cfg.Retry+time.Second)

	res.MixedShards = cfg.MixedShards
	res.MixedCommitted = stats.committed
	res.TransferCommits = stats.transferCommits
	res.TransferAborts = stats.transferAborts
	res.CrossDecided = run.Checker.Status().CrossShard
	res.MixedOpen = len(run.Checker.OpenCrossShard()) + openPrepares(sc)
	res.MixedInFlight = sc.router.InFlight()
	res.MixedBalanced = balanced(sc, cfg.Rows, stats.depositCommits)
	res.MixedReplicasEq = replicasEqual(sc)
	res.MixedViolations = run.Audit().Violations
	run.Close(Certified(res.mixedGates()))
}

// shardChaos is phase 3: the mixed workload while shard 1 is isolated
// (its broadcast nodes and replicas keep intra-shard connectivity but
// lose the router, the clients, and shard 0) mid-run, then healed.
func shardChaos(cfg ShardConfig, res *ShardResult) {
	run, sc := shardRun(cfg.MixedShards, cfg, "chaos")

	island := append(append([]msg.Loc{}, sc.groupB[1]...), sc.groupR[1]...)
	inj := run.Inject(fault.Plan{
		Seed: 11,
		Partitions: []fault.Partition{fault.Isolate(
			fault.Duration(cfg.PartitionFrom), fault.Duration(cfg.PartitionTo),
			island, sc.nodes)},
	})

	stats := &shardStats{}
	work := func(i int) Workload { return mixedWorkload(cfg.Rows, cfg.CrossFrac, int64(i)*92821+5) }
	shardClients(sc.clu, stats, cfg.MixedClients, cfg.MixedTxPer, 500*time.Millisecond, work)

	// Run past the heal, then until the fleet finishes or the bound trips.
	healCommitted := int64(-1)
	sc.sim.After(cfg.PartitionTo, func() { healCommitted = stats.committed })
	runToFinish(sc.sim, &stats.loadStats, cfg.MixedClients)
	shardDrain(sc, 2*cfg.Retry+time.Second)

	res.ChaosCommitted = stats.committed
	res.ChaosFinished = stats.finished
	res.ChaosClients = cfg.MixedClients
	res.ChaosOpen = len(run.Checker.OpenCrossShard()) + openPrepares(sc)
	res.ChaosInFlight = sc.router.InFlight()
	res.ChaosBalanced = balanced(sc, cfg.Rows, stats.depositCommits)
	res.ChaosProgress = healCommitted >= 0 && stats.committed > healCommitted
	res.ChaosInjections = len(inj.Injections())
	res.ChaosViolations = run.Audit().Violations
	res.ChaosTransferOK = stats.transferCommits
	res.ChaosTransferAbt = stats.transferAborts
	run.Close(Certified(res.chaosGates()))
}

// reportShard flattens the experiment for BENCH_shard.json.
func reportShard(res ShardResult, r *Report) {
	for _, p := range res.Sweep {
		pre := fmt.Sprintf("shard.sweep.s%d.", p.Shards)
		r.Add(pre+"tput", p.Throughput, "tx/s")
		r.Add(pre+"mean_lat", p.MeanLatMs, "ms")
		r.Add(pre+"p99_lat", p.P99LatMs, "ms")
		r.Add(pre+"violations", float64(p.Violations), "count")
	}
	r.Add("shard.speedup_4v1", res.Speedup4, "ratio")
	r.Add("shard.mixed.shards", float64(res.MixedShards), "count")
	r.Add("shard.mixed.committed", float64(res.MixedCommitted), "count")
	r.Add("shard.mixed.transfers_committed", float64(res.TransferCommits), "count")
	r.Add("shard.mixed.transfers_aborted", float64(res.TransferAborts), "count")
	r.Add("shard.mixed.cross_decided", float64(res.CrossDecided), "count")
	r.Add("shard.mixed.open_after_drain", float64(res.MixedOpen), "count")
	r.Add("shard.mixed.router_in_flight", float64(res.MixedInFlight), "count")
	r.Add("shard.mixed.violations", float64(len(res.MixedViolations)), "count")
	r.Add("shard.chaos.committed", float64(res.ChaosCommitted), "count")
	r.Add("shard.chaos.finished", float64(res.ChaosFinished), "count")
	r.Add("shard.chaos.open_after_drain", float64(res.ChaosOpen), "count")
	r.Add("shard.chaos.router_in_flight", float64(res.ChaosInFlight), "count")
	r.Add("shard.chaos.injections", float64(res.ChaosInjections), "count")
	r.Add("shard.chaos.violations", float64(len(res.ChaosViolations)), "count")
	r.AddCertified(res.Gates())
}

// RenderShard prints the human-readable summary.
func RenderShard(w io.Writer, res ShardResult) {
	fmt.Fprintln(w, "Shard — keyspace partitioning, router, certified cross-shard 2PC (virtual time)")
	fmt.Fprintf(w, "  %8s %12s %12s %12s %10s\n", "shards", "tput tx/s", "mean ms", "p99 ms", "violations")
	for _, p := range res.Sweep {
		fmt.Fprintf(w, "  %8d %12.0f %12.3f %12.3f %10d\n",
			p.Shards, p.Throughput, p.MeanLatMs, p.P99LatMs, p.Violations)
	}
	fmt.Fprintf(w, "  speedup 4v1: %.2fx\n", res.Speedup4)
	fmt.Fprintf(w, "  mixed (%d shards): %d committed (%d transfers, %d aborted), %d cross-shard decided\n",
		res.MixedShards, res.MixedCommitted, res.TransferCommits, res.TransferAborts, res.CrossDecided)
	fmt.Fprintf(w, "    open after drain: %d   router in flight: %d   balanced: %v   replicas equal: %v   violations: %d\n",
		res.MixedOpen, res.MixedInFlight, res.MixedBalanced, res.MixedReplicasEq, len(res.MixedViolations))
	fmt.Fprintf(w, "  chaos (shard 1 isolated %s): %d committed, %d/%d clients finished, %d injections\n",
		"mid-2PC", res.ChaosCommitted, res.ChaosFinished, res.ChaosClients, res.ChaosInjections)
	fmt.Fprintf(w, "    open after drain: %d   router in flight: %d   balanced: %v   progress after heal: %v   violations: %d\n",
		res.ChaosOpen, res.ChaosInFlight, res.ChaosBalanced, res.ChaosProgress, len(res.ChaosViolations))
	fmt.Fprintf(w, "  certified: %v\n", res.Certified())
	renderViolations(w, "MIXED ", res.MixedViolations)
	renderViolations(w, "CHAOS ", res.ChaosViolations)
}
