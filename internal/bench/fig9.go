package bench

import (
	"time"

	"shadowdb/internal/baseline"
	"shadowdb/internal/bench/tpcc"
	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// Fig. 9(a): the bank micro-benchmark — latency vs committed transactions
// per second for ShadowDB-PBR, ShadowDB-SMR, H2 replication, MySQL
// replication, and standalone H2. Fig. 9(b): the same systems under
// TPC-C with one warehouse (H2 replication is reported as a single
// figure, 62 tps in the paper, and omitted from the curve).

// Fig9Config scales the experiments.
type Fig9Config struct {
	Clients []int
	TxPer   int
	Rows    int        // micro-benchmark table size
	Scale   tpcc.Scale // TPC-C scale
}

// DefaultFig9a mirrors the paper: 50 000 rows, 1..32 clients.
func DefaultFig9a() Fig9Config {
	return Fig9Config{Clients: []int{1, 2, 4, 8, 16, 24, 32}, TxPer: 1500, Rows: 50_000}
}

// QuickFig9a keeps tests fast.
func QuickFig9a() Fig9Config {
	return Fig9Config{Clients: []int{1, 8}, TxPer: 120, Rows: 2_000}
}

// DefaultFig9b mirrors the paper: TPC-C, one warehouse, 1..10 clients.
func DefaultFig9b() Fig9Config {
	return Fig9Config{Clients: []int{1, 2, 4, 6, 8, 10}, TxPer: 400, Scale: tpcc.Full()}
}

// QuickFig9b keeps tests fast.
func QuickFig9b() Fig9Config {
	return Fig9Config{Clients: []int{1, 4}, TxPer: 40, Scale: tpcc.Small()}
}

// Fig9Result maps system name to its curve, in presentation order.
type Fig9Result struct {
	Order  []string
	Curves map[string][]CurvePoint
}

// The baseline lock-wait timeout used in the contention experiments: low
// enough that table-locked engines time out under heavy load (the paper's
// "transactions timeout when trying to lock the database table").
const benchLockTimeout = 5 * time.Millisecond

// Fig9a runs the micro-benchmark sweep.
func Fig9a(cfg Fig9Config) Fig9Result {
	res := Fig9Result{
		Order:  []string{"ShadowDB-PBR", "ShadowDB-SMR", "H2-repl.", "MySQL-repl.", "H2-stdalone"},
		Curves: make(map[string][]CurvePoint),
	}
	setup := func(db *sqldb.DB) error { return core.BankSetup(db, cfg.Rows) }
	micro := func(i int) Workload { return MicroWorkload(cfg.Rows, int64(i)*7919) }
	for _, n := range cfg.Clients {
		res.Curves["ShadowDB-PBR"] = append(res.Curves["ShadowDB-PBR"],
			runShadowPBR(cfg, n, core.BankRegistry(), setup, micro))
		res.Curves["ShadowDB-SMR"] = append(res.Curves["ShadowDB-SMR"],
			runShadowSMR(cfg, n, core.BankRegistry(), setup, micro))
		res.Curves["H2-repl."] = append(res.Curves["H2-repl."],
			runBaseline(cfg, n, baseline.H2Repl, "h2", core.BankRegistry(), baseline.BankLocks, setup, micro))
		res.Curves["MySQL-repl."] = append(res.Curves["MySQL-repl."],
			runBaseline(cfg, n, baseline.MySQLRepl, "mysql-mem", core.BankRegistry(), baseline.BankLocks, setup, micro))
		res.Curves["H2-stdalone"] = append(res.Curves["H2-stdalone"],
			runBaseline(cfg, n, baseline.Standalone, "h2", core.BankRegistry(), baseline.BankLocks, setup, micro))
	}
	return res
}

// Fig9b runs the TPC-C sweep. H2-repl is measured once at moderate load
// and reported as its own row (the paper's 62 tps note).
func Fig9b(cfg Fig9Config) Fig9Result {
	res := Fig9Result{
		Order:  []string{"ShadowDB-PBR", "ShadowDB-SMR", "MySQL-repl.", "H2-stdalone"},
		Curves: make(map[string][]CurvePoint),
	}
	reg := tpcc.Registry(cfg.Scale)
	// Populating TPC-C through SQL once per replica per point is the
	// dominant real-time cost of the sweep; populate a template once and
	// clone it into each replica via snapshot restore (identical state,
	// ~10x faster). Each replica restores a snapshot of its own: Restore
	// keeps the rows it is given, and a replica updates them in place.
	template, err := sqldb.Open("h2:mem:template")
	if err != nil {
		panic(err)
	}
	if err := tpcc.Setup(template, cfg.Scale); err != nil {
		panic(err)
	}
	setup := func(db *sqldb.DB) error { return db.Restore(template.Snapshot()) }
	work := func(i int) Workload {
		g := tpcc.NewGenerator(cfg.Scale, int64(i)*104729)
		return g.Next
	}
	for _, n := range cfg.Clients {
		res.Curves["ShadowDB-PBR"] = append(res.Curves["ShadowDB-PBR"],
			runShadowPBR(cfg, n, reg, setup, work))
		res.Curves["ShadowDB-SMR"] = append(res.Curves["ShadowDB-SMR"],
			runShadowSMR(cfg, n, reg, setup, work))
		res.Curves["MySQL-repl."] = append(res.Curves["MySQL-repl."],
			runBaseline(cfg, n, baseline.MySQLRepl, "mysql-innodb", reg, tpcc.Locks, setup, work))
		res.Curves["H2-stdalone"] = append(res.Curves["H2-stdalone"],
			runBaseline(cfg, n, baseline.Standalone, "h2", reg, tpcc.Locks, setup, work))
	}
	// The H2-repl single figure.
	mid := cfg.Clients[len(cfg.Clients)/2]
	res.Curves["H2-repl. (off-curve)"] = []CurvePoint{
		runBaseline(cfg, mid, baseline.H2Repl, "h2", reg, tpcc.Locks, setup, work),
	}
	return res
}

// runShadowPBR measures one PBR point.
func runShadowPBR(cfg Fig9Config, clients int, reg core.Registry,
	setup func(*sqldb.DB) error, work func(int) Workload) CurvePoint {
	sc := newCluster(deployment{app: deploy.App{Procedures: reg, Setup: setup}, timing: core.DefaultTiming(),
		nodes: literal("pbr", []string{"h2", "h2", "h2"}, 3, nil)})
	stats := &loadStats{}
	shadowClients(sc.clu, stats, clients, cfg.TxPer, core.ModePBR,
		sc.rloc, sc.bloc, 5*time.Second, work)
	runToFinish(sc.sim, stats, clients)
	return stats.point(clients)
}

// runShadowSMR measures one SMR point.
func runShadowSMR(cfg Fig9Config, clients int, reg core.Registry,
	setup func(*sqldb.DB) error, work func(int) Workload) CurvePoint {
	sc := newCluster(deployment{app: deploy.App{Procedures: reg, Setup: setup},
		nodes: literal("smr", []string{"h2", "h2", "h2"}, 3, nil)})
	stats := &loadStats{}
	shadowClients(sc.clu, stats, clients, cfg.TxPer, core.ModeSMR,
		sc.rloc, sc.bloc, 10*time.Second, work)
	runToFinish(sc.sim, stats, clients)
	return stats.point(clients)
}

// runBaseline measures one baseline point.
func runBaseline(cfg Fig9Config, clients int, mode baseline.Mode, engine string,
	reg core.Registry, locks baseline.LockSpec, setup func(*sqldb.DB) error,
	work func(int) Workload) CurvePoint {
	c := newDES()
	sim, clu := c.sim, c.clu
	mk := func(name string) *sqldb.DB {
		db, err := sqldb.Open(engine + ":mem:" + name)
		if err != nil {
			panic(err)
		}
		if err := setup(db); err != nil {
			panic(err)
		}
		return db
	}
	var backupLoc msg.Loc
	if mode != baseline.Standalone {
		backupLoc = "backup"
		baseline.NewServer(sim, clu, baseline.ServerConfig{
			Name: backupLoc, DB: mk("backup"), Reg: reg, Locks: locks,
			Mode: baseline.Standalone, LockTimeout: time.Minute,
		})
	}
	baseline.NewServer(sim, clu, baseline.ServerConfig{
		Name: "primary", DB: mk("primary"), Reg: reg, Locks: locks,
		Mode: mode, Backup: backupLoc, LockTimeout: benchLockTimeout,
	})
	stats := &loadStats{}
	directClients(clu, stats, clients, cfg.TxPer, "primary", work)
	runToFinish(sim, stats, clients)
	return stats.point(clients)
}
