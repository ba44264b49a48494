package bench

import (
	"testing"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/fault"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

// TestPBRAsymmetricPartitionFailover isolates the primary from its
// backups in one direction only — r1's messages to r2/r3 vanish while
// r2/r3 (and the clients, and the broadcast service) still reach r1.
// The backups must suspect the silent primary, agree on a new
// configuration through the broadcast, and serve clients again; the
// deposed primary hears the new configuration and stands down, so the
// group ends with exactly one primary and a clean checker.
func TestPBRAsymmetricPartitionFailover(t *testing.T) {
	rows := 200
	timing := core.Timing{
		HeartbeatEvery: 250 * time.Millisecond,
		SuspectAfter:   time.Second,
		ClientRetry:    500 * time.Millisecond,
	}
	sc := newCluster(deployment{app: bankApp(rows), timing: timing,
		nodes: literal("pbr", []string{"h2", "h2", "h2"}, 3, func(n *deploy.Node) { n.Members = 3 })})

	o := obs.New(1 << 14)
	sc.clu.Observe(o)
	o.EnableTracing(true)
	checker := dist.NewChecker(dist.Facts{})
	checker.Watch(o)

	cut := time.Second
	inj := fault.BindCluster(sc.clu, fault.Plan{
		Seed: 1,
		Partitions: []fault.Partition{{
			From: fault.Duration(cut),
			A:    []msg.Loc{"r1"}, B: []msg.Loc{"r2", "r3"},
			// Asymmetric and never healing: r1 stays able to hear the
			// world it can no longer talk to.
		}},
	})
	inj.SetObs(o)

	stats := &loadStats{}
	shadowClients(sc.clu, stats, 2, 1<<30, core.ModePBR,
		sc.rloc, sc.bloc, timing.ClientRetry,
		func(i int) Workload { return MicroWorkload(rows, int64(i)*7) })

	var beforeCut, atResume int64
	resumedAt := time.Duration(-1)
	var sample func()
	sample = func() {
		now := sc.sim.Now()
		if now <= cut {
			beforeCut = stats.committed
		}
		r2 := sc.pbr("r2")
		if resumedAt < 0 && now > cut && r2.ConfigNow().Seq > 0 && r2.IsPrimary() && !r2.Stopped() {
			resumedAt = now
			atResume = stats.committed
		}
		if now < 10*time.Second {
			sc.sim.After(20*time.Millisecond, sample)
		}
	}
	sc.sim.After(0, sample)
	sc.sim.Run(10*time.Second, 200_000_000)

	if resumedAt < 0 {
		t.Fatalf("backups never took over: r2 config seq %d, primary %v",
			sc.pbr("r2").ConfigNow().Seq, sc.pbr("r2").IsPrimary())
	}
	if beforeCut == 0 {
		t.Fatal("no commits before the partition")
	}
	if got := stats.committed; got <= atResume {
		t.Fatalf("no client progress after failover: %d committed at resume, %d at end", atResume, got)
	}
	if sc.pbr("r1").IsPrimary() {
		t.Error("deposed primary r1 still believes it is primary")
	}
	primaries := 0
	for _, l := range sc.rloc {
		r := sc.pbr(l)
		if r.IsPrimary() && !r.Stopped() {
			primaries++
		}
	}
	if primaries != 1 {
		t.Errorf("got %d active primaries, want 1", primaries)
	}
	if vs := checker.Violations(); len(vs) > 0 {
		t.Fatalf("checker flagged %d violations, first: %v", len(vs), vs[0])
	}
}

// TestSMRBroadcastCrashRestartMidLoad crashes broadcast service node b2
// in the middle of an SMR load and restarts it with retained state. The
// service must keep ordering through the surviving quorum, every client
// must finish, and the online checker must stay clean across the
// crash-restart.
func TestSMRBroadcastCrashRestartMidLoad(t *testing.T) {
	rows := 200
	clients, txPer := 2, 120
	sc := newCluster(deployment{app: bankApp(rows), nodes: literal("smr", []string{"h2", "h2", "h2"}, 3, nil)})

	o := obs.New(1 << 14)
	sc.clu.Observe(o)
	o.EnableTracing(true)
	checker := dist.NewChecker(dist.Facts{})
	checker.Watch(o)

	inj := fault.BindCluster(sc.clu, fault.Plan{
		Seed: 2,
		Crashes: []fault.Crash{{
			At: fault.Duration(200 * time.Millisecond), Node: "b2",
			RestartAfter: fault.Duration(500 * time.Millisecond),
		}},
	})
	inj.SetObs(o)

	stats := &loadStats{}
	shadowClients(sc.clu, stats, clients, txPer, core.ModeSMR,
		nil, sc.bloc, time.Second,
		func(i int) Workload { return MicroWorkload(rows, int64(100+i)) })

	for stats.finished < clients && !sc.sim.Idle() && sc.sim.Steps() < 50_000_000 {
		sc.sim.Run(0, 100_000)
	}
	if stats.finished < clients {
		t.Fatalf("workload stalled across the crash: %d/%d clients finished", stats.finished, clients)
	}
	if want := int64(clients * txPer); stats.committed != want {
		t.Errorf("committed %d, want %d", stats.committed, want)
	}
	crashes := 0
	for _, i := range inj.Injections() {
		if i.Kind == "crash" || i.Kind == "restart" {
			crashes++
		}
	}
	if crashes != 2 {
		t.Errorf("recorded %d crash/restart injections, want 2", crashes)
	}
	if vs := checker.Violations(); len(vs) > 0 {
		t.Fatalf("checker flagged %d violations, first: %v", len(vs), vs[0])
	}
}

// TestChaosCertifiedAndReproducible runs a compressed chaos experiment
// end to end, twice, and requires certification: clean checker, one
// primary, progress after the faults, and bit-identical injection
// schedules across the two runs.
func TestChaosCertifiedAndReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos experiment in -short mode")
	}
	cfg := ChaosConfig{
		Rows: 300, Clients: 2, RunFor: 12 * time.Second,
		PartitionFrom: 2 * time.Second, PartitionTo: 5 * time.Second,
		CrashAt: 6 * time.Second, CrashDowntime: time.Second,
		NoiseFrom: 8 * time.Second, NoiseTo: 10 * time.Second,
		Seed: 7, RingSize: 1 << 14, Bin: 250 * time.Millisecond,
	}
	res := Chaos(cfg)
	if !res.Reproducible {
		t.Errorf("injection schedule not reproducible: %016x vs %016x",
			res.Fingerprint, res.Fingerprint2)
	}
	if len(res.Violations) > 0 {
		t.Errorf("checker flagged %d violations, first: %v", len(res.Violations), res.Violations[0])
	}
	if res.Primaries != 1 {
		t.Errorf("got %d active primaries, want 1", res.Primaries)
	}
	if !res.ProgressAfterFaults {
		t.Error("no client progress after the last fault window")
	}
	if res.Injections == 0 {
		t.Error("nemesis injected nothing")
	}
	if !res.Certified() {
		t.Error("run not certified")
	}
}
