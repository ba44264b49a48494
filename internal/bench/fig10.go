package bench

import (
	"fmt"
	"time"

	"shadowdb/internal/bench/tpcc"
	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// Fig. 10(a): an execution of ShadowDB-PBR in which the primary crashes.
// Ten clients run the micro-benchmark against H2 (primary) / HSQLDB
// (backup) / Derby (spare); the primary crashes at 15 s, the backup
// detects the crash after the configured 10 s, the new configuration is
// delivered by the broadcast service, the spare receives the full
// database snapshot, and the clients resume.
//
// Fig. 10(b): the overhead of state transfer as a function of database
// size, for 16-byte and 1-kilobyte rows. The paper sent ~50 KB batches;
// ShadowDB sends the snapshot image in parts of up to 1 MiB.

// Fig10aConfig scales the recovery experiment.
type Fig10aConfig struct {
	Rows         int
	Clients      int
	CrashAt      time.Duration
	SuspectAfter time.Duration
	RunFor       time.Duration
}

// DefaultFig10a mirrors the paper.
func DefaultFig10a() Fig10aConfig {
	return Fig10aConfig{
		Rows: 50_000, Clients: 10,
		CrashAt: 15 * time.Second, SuspectAfter: 10 * time.Second,
		RunFor: 60 * time.Second,
	}
}

// QuickFig10a keeps tests fast.
func QuickFig10a() Fig10aConfig {
	return Fig10aConfig{
		Rows: 2_000, Clients: 4,
		CrashAt: 2 * time.Second, SuspectAfter: time.Second,
		RunFor: 10 * time.Second,
	}
}

// Fig10aResult is the recovery timeline.
type Fig10aResult struct {
	// Series is committed transactions per second, per 1 s bin.
	Series []float64
	// Event times on the virtual clock.
	CrashAt     time.Duration
	SuspectedAt time.Duration
	ConfigAt    time.Duration
	ResumedAt   time.Duration
	// ConfigLatency is propose->deliver for the new configuration.
	ConfigLatency time.Duration
	// TransferTime is the post-config recovery time (election, snapshot,
	// resume) — the "group reconfiguration and state transfer" phase.
	TransferTime time.Duration
	// Committed is the total committed count.
	Committed int64
}

// Fig10a runs the recovery experiment.
func Fig10a(cfg Fig10aConfig) Fig10aResult {
	timing := core.Timing{
		HeartbeatEvery: 500 * time.Millisecond,
		SuspectAfter:   cfg.SuspectAfter,
		ClientRetry:    time.Second,
	}
	// The paper's diversity deployment: H2 primary, HSQLDB backup, Derby
	// spare.
	sc := newCluster(deployment{app: bankApp(cfg.Rows), timing: timing,
		nodes: literal("pbr", []string{"h2", "hsqldb", "derby"}, 3, nil)})

	stats := &loadStats{}
	timeline := des.NewTimeline(time.Second)
	stats.timeline = timeline
	work := func(i int) Workload { return MicroWorkload(cfg.Rows, int64(i)*31337) }
	shadowClients(sc.clu, stats, cfg.Clients, 1<<30, core.ModePBR, sc.rloc, sc.bloc, time.Second, work)

	res := Fig10aResult{CrashAt: cfg.CrashAt, SuspectedAt: -1, ConfigAt: -1, ResumedAt: -1}
	sc.sim.After(cfg.CrashAt, func() { sc.clu.Node("r1").Crash() })

	// Sample the backup's protocol state every 20 ms to extract the
	// timeline events.
	r2 := sc.pbr("r2")
	var sample func()
	sample = func() {
		now := sc.sim.Now()
		if res.SuspectedAt < 0 && now > cfg.CrashAt && r2.Stopped() {
			res.SuspectedAt = now
		}
		if res.ConfigAt < 0 && r2.ConfigNow().Seq > 0 {
			res.ConfigAt = now
		}
		if res.ConfigAt >= 0 && res.ResumedAt < 0 && r2.IsPrimary() && !r2.Stopped() {
			res.ResumedAt = now
		}
		if now < cfg.RunFor {
			sc.sim.After(20*time.Millisecond, sample)
		}
	}
	sc.sim.After(0, sample)

	sc.sim.Run(cfg.RunFor, 500_000_000)
	res.Series = timeline.Series()
	res.Committed = stats.committed
	if res.SuspectedAt >= 0 && res.ConfigAt >= 0 {
		res.ConfigLatency = res.ConfigAt - res.SuspectedAt
	}
	if res.ConfigAt >= 0 && res.ResumedAt >= 0 {
		res.TransferTime = res.ResumedAt - res.ConfigAt
	}
	return res
}

// ------------------------------------------------------------- Fig 10(b) --

// Fig10bPoint is one state-transfer measurement.
type Fig10bPoint struct {
	Rows     int
	RowBytes int
	Seconds  float64
}

// Fig10bConfig scales the sweep.
type Fig10bConfig struct {
	RowCounts []int
	// TPCC also measures the TPC-C 1-warehouse transfer (paper: 54.5 s).
	TPCC bool
}

// DefaultFig10b mirrors the paper's 500..500 000 row sweep.
func DefaultFig10b() Fig10bConfig {
	return Fig10bConfig{RowCounts: []int{500, 5_000, 50_000, 500_000}, TPCC: true}
}

// QuickFig10b keeps tests fast.
func QuickFig10b() Fig10bConfig {
	return Fig10bConfig{RowCounts: []int{500, 5_000}}
}

// Fig10bResult holds the two row-size curves plus the optional TPC-C
// figure.
type Fig10bResult struct {
	Small   []Fig10bPoint // 16-byte rows, 3 columns
	Large   []Fig10bPoint // 1-kilobyte rows, 4 columns
	TPCCSec float64       // 0 when not measured
}

// Fig10b measures state-transfer time against database size.
func Fig10b(cfg Fig10bConfig) Fig10bResult {
	var res Fig10bResult
	for _, n := range cfg.RowCounts {
		res.Small = append(res.Small, Fig10bPoint{
			Rows: n, RowBytes: 16,
			Seconds: measureTransfer(func(db *sqldb.DB) error { return setupSmallRows(db, n) }),
		})
		res.Large = append(res.Large, Fig10bPoint{
			Rows: n, RowBytes: 1024,
			Seconds: measureTransfer(func(db *sqldb.DB) error { return setupLargeRows(db, n) }),
		})
	}
	if cfg.TPCC {
		// The 1-warehouse TPC-C database.
		res.TPCCSec = measureTransfer(func(db *sqldb.DB) error { return tpcc.Setup(db, tpcc.Full()) })
	}
	return res
}

// setupSmallRows loads n 16-byte rows with 3 columns (the micro table).
func setupSmallRows(db *sqldb.DB, n int) error {
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, owner TEXT, balance INT)"); err != nil {
		return err
	}
	// 16 bytes modeled: 8 (id) + ~0 shared owner + 8 (balance); use a
	// short owner so RowBytes ~ 16-20.
	rows := make([][]sqldb.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []sqldb.Value{int64(i), "ab", int64(1000)})
	}
	return db.InsertBatch("t", rows)
}

// setupLargeRows loads n 1 KB rows with 4 columns. The payload string is
// shared across rows to keep host memory flat; size modeling uses its
// length.
func setupLargeRows(db *sqldb.DB, n int) error {
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, payload TEXT)"); err != nil {
		return err
	}
	payload := string(make([]byte, 1000))
	rows := make([][]sqldb.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []sqldb.Value{int64(i), int64(i), int64(i), payload})
	}
	return db.InsertBatch("t", rows)
}

// measureTransfer times a full state transfer from a populated H2 sender
// to an empty receiver over the simulated gigabit link, including
// sender-side serialization and receiver-side insertion costs.
func measureTransfer(setup func(*sqldb.DB) error) float64 {
	c := newDES()
	sim, clu := c.sim, c.clu

	src, err := sqldb.Open("h2:mem:src")
	if err != nil {
		panic(err)
	}
	if err := setup(src); err != nil {
		panic(fmt.Sprintf("bench: transfer setup: %v", err))
	}
	dstDB, err := sqldb.Open("h2:mem:dst")
	if err != nil {
		panic(err)
	}
	receiver, err := core.OpenSMRReplica(core.SMRConfig{Self: "dst", DB: dstDB, Registry: core.Registry{}, Joiner: true})
	if err != nil {
		panic(err)
	}
	// The receiver installs the transfer in the step its last part
	// arrives in: the transfer is done when that step's cost — the
	// insertion of every row — has elapsed.
	done := -1.0
	clu.AddCostedNode("dst", 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
		_, outs := receiver.Step(env.M)
		cost := receiver.LastCost()
		if done < 0 && receiver.Active() {
			done = (sim.Now() + cost).Seconds()
		}
		return outs, cost
	})

	// The sender serializes (service time = serialization cost), then the
	// parts flow through the link.
	sender := core.NewExecutor(src, core.Registry{})
	clu.AddCostedNode("src", 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
		return sender.SnapshotDirectives("dst", 0, 1)
	})
	clu.Inject("src", msg.M("go", nil))
	sim.Run(0, 100_000_000)
	if done < 0 {
		done = sim.Now().Seconds()
	}
	return done
}
