package baseline

import (
	"fmt"
	"testing"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

const ms = time.Millisecond

// harness wires a baseline deployment with closed-loop clients that each
// run n deposit transactions.
type harness struct {
	sim     *des.Sim
	clu     *des.Cluster
	primary *Server
	backup  *Server
	done    map[msg.Loc]int
	aborted map[msg.Loc]int
}

func newHarness(t *testing.T, mode Mode, engine string, rows int) *harness {
	t.Helper()
	h := &harness{
		sim:     &des.Sim{},
		done:    make(map[msg.Loc]int),
		aborted: make(map[msg.Loc]int),
	}
	h.clu = des.NewCluster(h.sim)
	h.clu.Link = func(from, to msg.Loc) des.LinkSpec {
		return des.LinkSpec{Latency: 100 * time.Microsecond} // LAN
	}
	mk := func(name string) *sqldb.DB {
		db, err := sqldb.Open(engine + ":mem:" + name)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.BankSetup(db, rows); err != nil {
			t.Fatal(err)
		}
		return db
	}
	var backupLoc msg.Loc
	if mode != Standalone {
		backupLoc = "backup"
		h.backup = NewServer(h.sim, h.clu, ServerConfig{
			Name: backupLoc, DB: mk("backup"), Reg: core.BankRegistry(),
			Locks: BankLocks, Mode: Standalone,
		})
	}
	h.primary = NewServer(h.sim, h.clu, ServerConfig{
		Name: "primary", DB: mk("primary"), Reg: core.BankRegistry(),
		Locks: BankLocks, Mode: mode, Backup: backupLoc,
	})
	return h
}

// addClients starts c closed-loop clients running n transactions each,
// depositing on account (client*31+i) % rows.
func (h *harness) addClients(c, n, rows int) {
	for ci := 0; ci < c; ci++ {
		loc := msg.Loc(fmt.Sprintf("cl%d", ci))
		ci := ci
		seq := int64(0)
		sent := 0
		next := func() []msg.Directive {
			seq++
			sent++
			return []msg.Directive{msg.Send("primary", msg.M(core.HdrTx, core.TxRequest{
				Client: loc, Seq: seq, Type: "deposit",
				Args: []any{(ci*31 + sent) % rows, 1},
			}))}
		}
		h.clu.AddCostedNode(loc, 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
			res := env.M.Body.(core.TxResult)
			if res.Aborted || res.Err != "" {
				h.aborted[loc]++
			} else {
				h.done[loc]++
			}
			if sent < n {
				return next(), 0
			}
			return nil, 0
		})
		h.clu.Sim.After(0, func() {
			for _, d := range next() {
				h.clu.Send(loc, d.Dest, d.M)
			}
		})
	}
}

func (h *harness) totals() (done, aborted int) {
	for _, v := range h.done {
		done += v
	}
	for _, v := range h.aborted {
		aborted += v
	}
	return done, aborted
}

func TestStandaloneCompletesAll(t *testing.T) {
	h := newHarness(t, Standalone, "h2", 100)
	h.addClients(4, 50, 100)
	h.sim.Run(0, 0)
	done, aborted := h.totals()
	if done+aborted != 200 {
		t.Fatalf("done=%d aborted=%d, want 200 total", done, aborted)
	}
	if aborted > 0 {
		t.Errorf("standalone aborted %d short transactions", aborted)
	}
	if h.primary.Committed != 200 {
		t.Errorf("committed = %d", h.primary.Committed)
	}
}

func TestH2ReplSyncBackupState(t *testing.T) {
	h := newHarness(t, H2Repl, "h2", 50)
	h.addClients(2, 30, 50)
	h.sim.Run(0, 0)
	done, _ := h.totals()
	if done == 0 {
		t.Fatal("no transactions completed")
	}
	// Synchronous replication: backup state equals primary state once
	// the run drains.
	if !sqldb.Equal(h.primary.DB(), h.backup.DB()) {
		t.Error("backup diverged from primary under sync replication")
	}
}

func TestMySQLReplAsyncBackupCatchesUp(t *testing.T) {
	h := newHarness(t, MySQLRepl, "mysql-innodb", 50)
	h.addClients(2, 30, 50)
	h.sim.Run(0, 0)
	done, _ := h.totals()
	if done != 60 {
		t.Fatalf("done = %d, want 60 (row locks, no contention)", done)
	}
	if !sqldb.Equal(h.primary.DB(), h.backup.DB()) {
		t.Error("slave did not converge after drain")
	}
}

func TestTableLockSerializesThroughput(t *testing.T) {
	// With table locks, 8 clients get no more throughput than the
	// serialized execution rate allows.
	h := newHarness(t, Standalone, "h2", 1000)
	h.addClients(8, 100, 1000)
	h.sim.Run(0, 0)
	done, _ := h.totals()
	elapsed := h.sim.Now()
	perTx := elapsed / time.Duration(done)
	eng := sqldb.Engines()["h2"]
	// Expected serialized floor: one statement + read + write per deposit.
	serial := eng.PerStatement + eng.PerRowRead + eng.PerRowWrite
	if perTx < serial {
		t.Errorf("per-tx %v faster than the serialized floor %v (locks not serializing)", perTx, serial)
	}
}

func TestRowLocksAllowParallelism(t *testing.T) {
	run := func(engine string) time.Duration {
		h := newHarness(t, Standalone, engine, 10_000)
		h.addClients(4, 200, 10_000)
		h.sim.Run(0, 0)
		return h.sim.Now()
	}
	tableTime := run("mysql-mem")
	rowTime := run("mysql-innodb")
	// InnoDB is slower per-op but parallelizes across 4 cores; on
	// distinct rows it must finish the same work in less virtual time
	// than the table-locked memory engine despite the higher per-op cost.
	if rowTime >= tableTime {
		t.Errorf("row-locked engine (%v) not faster than table-locked (%v) at 4 clients", rowTime, tableTime)
	}
}

func TestLockTimeoutsAbortUnderContention(t *testing.T) {
	h := newHarness(t, H2Repl, "h2", 10)
	// Tiny lock timeout: with many clients hammering one table lock that
	// is held across the replication round trip, timeouts must appear.
	h.primary.lockTimeout = 300 * time.Microsecond
	h.addClients(16, 40, 10)
	h.sim.Run(0, 0)
	_, aborted := h.totals()
	if aborted == 0 {
		t.Error("no lock-timeout aborts under heavy contention")
	}
}
