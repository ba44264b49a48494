package shadowdb

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/gpm"
	"shadowdb/internal/leaktest"
)

func bankConfig(mode Mode) Config {
	return Config{
		Replication: mode,
		Procedures:  core.BankRegistry(),
		Setup:       func(db *DB) error { return core.BankSetup(db, 100) },
		Timing: core.Timing{
			HeartbeatEvery: 20 * time.Millisecond,
			SuspectAfter:   200 * time.Millisecond,
			ClientRetry:    200 * time.Millisecond,
		},
	}
}

func openCluster(t *testing.T, mode Mode) (*Cluster, *Client) {
	t.Helper()
	cluster, err := Open(bankConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	cli, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return cluster, cli
}

// eachExecutor calls fn with each replica's executor, r1 first, between
// two of that replica's steps.
func eachExecutor(c *Cluster, fn func(*core.Executor)) {
	for _, h := range c.replicas {
		h.Inspect(func(p gpm.Process) { fn(p.(interface{ Executor() *core.Executor }).Executor()) })
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Error("Open without procedures succeeded")
	}
}

func TestPBRExecRoundTrip(t *testing.T) {
	_, cli := openCluster(t, PBR)
	for i := 0; i < 5; i++ {
		res, err := cli.ExecTimeout(10*time.Second, "deposit", int64(7), int64(10))
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted {
			t.Fatal("deposit aborted")
		}
	}
	res, err := cli.ExecTimeout(10*time.Second, "balance", int64(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1050) {
		t.Errorf("balance = %v", res.Rows)
	}
}

func TestSMRExecRoundTrip(t *testing.T) {
	_, cli := openCluster(t, SMR)
	if _, err := cli.ExecTimeout(10*time.Second, "deposit", int64(3), int64(5)); err != nil {
		t.Fatal(err)
	}
	res, err := cli.ExecTimeout(10*time.Second, "balance", int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1005) {
		t.Errorf("balance = %v", res.Rows)
	}
}

func TestAbortSurfaces(t *testing.T) {
	_, cli := openCluster(t, PBR)
	res, err := cli.ExecTimeout(10*time.Second, "deposit", int64(9999), int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Error("deposit to unknown account did not abort")
	}
}

func TestUnknownProcedureErrors(t *testing.T) {
	_, cli := openCluster(t, PBR)
	if _, err := cli.ExecTimeout(10*time.Second, "frobnicate"); err == nil {
		t.Error("unknown procedure succeeded")
	}
}

func TestPBRSurvivesPrimaryCrash(t *testing.T) {
	cluster, cli := openCluster(t, PBR)
	if _, err := cli.ExecTimeout(10*time.Second, "deposit", int64(1), int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Crash(0); err != nil {
		t.Fatal(err)
	}
	// The cluster must reconfigure (backup promoted, spare filled by a
	// state transfer) and keep serving.
	res, err := cli.ExecTimeout(30*time.Second, "deposit", int64(1), int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("post-crash deposit aborted")
	}
	bal, err := cli.ExecTimeout(10*time.Second, "balance", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if bal.Rows[0][0] != int64(1003) {
		t.Errorf("balance after crash = %v, want 1003", bal.Rows[0][0])
	}
}

func TestSMRSurvivesReplicaCrash(t *testing.T) {
	cluster, cli := openCluster(t, SMR)
	if err := cluster.Crash(1); err != nil {
		t.Fatal(err)
	}
	res, err := cli.ExecTimeout(10*time.Second, "deposit", int64(2), int64(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("deposit aborted after replica crash")
	}
}

func TestReplicaDBInspection(t *testing.T) {
	cluster, cli := openCluster(t, SMR)
	if _, err := cli.ExecTimeout(10*time.Second, "deposit", int64(5), int64(50)); err != nil {
		t.Fatal(err)
	}
	// All three replicas converge.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 3; i++ {
		for {
			db, err := cluster.ReplicaDB(i)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Exec("SELECT balance FROM accounts WHERE id = 5")
			if err == nil && len(res.Rows) == 1 && res.Rows[0][0] == int64(1050) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never converged: %v", i, res.Rows)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestClientAfterClose(t *testing.T) {
	cluster, err := Open(bankConfig(PBR))
	if err != nil {
		t.Fatal(err)
	}
	_ = cluster.Close()
	if _, err := cluster.Client(); !errors.Is(err, ErrClosed) {
		t.Errorf("Client after Close: %v", err)
	}
	if err := cluster.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	cluster, _ := openCluster(t, PBR)
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		cli, err := cluster.Client()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer func() { _ = cli.Close() }()
			for k := 0; k < 5; k++ {
				if _, err := cli.ExecTimeout(15*time.Second, "deposit", int64(1), int64(1)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	cli, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	res, err := cli.ExecTimeout(10*time.Second, "balance", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(1020) {
		t.Errorf("balance = %v, want 1020 (20 concurrent deposits)", res.Rows[0][0])
	}
}

// The replicas of an in-process cluster step concurrently, as separate
// processes do: every replica's call of meet waits, inside its step, for
// the third replica's call to arrive, which a cluster stepping one
// process at a time never lets happen.
func TestReplicasStepTogether(t *testing.T) {
	var calls, finished, timeouts atomic.Int32
	all := make(chan struct{})
	cfg := bankConfig(SMR)
	cfg.Procedures = Registry{
		"meet": func(*DB, []any) (ProcResult, error) {
			defer finished.Add(1)
			if calls.Add(1) == 3 {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(time.Second):
				timeouts.Add(1)
			}
			return ProcResult{}, nil
		},
	}
	cluster, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	cli, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	if _, err := cli.ExecTimeout(10*time.Second, "meet"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for finished.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 replicas finished meet within 10s", finished.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := timeouts.Load(); n != 0 {
		t.Errorf("%d of 3 replicas waited 1s in meet for the others: the replicas step one at a time", n)
	}
}

func TestCustomProcedures(t *testing.T) {
	reg := Registry{
		"mk": func(db *DB, args []any) (ProcResult, error) {
			_, err := db.Exec("INSERT INTO notes VALUES (?, ?)", args[0], args[1])
			return ProcResult{}, err
		},
		"get": func(db *DB, args []any) (ProcResult, error) {
			res, err := db.Exec("SELECT body FROM notes WHERE id = ?", args[0])
			if err != nil {
				return ProcResult{}, err
			}
			return ProcResult{Cols: res.Cols, Rows: res.Rows}, nil
		},
	}
	cluster, err := Open(Config{
		Replication: SMR,
		Procedures:  reg,
		Setup: func(db *DB) error {
			_, err := db.Exec("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)")
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	cli, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	if _, err := cli.ExecTimeout(10*time.Second, "mk", int64(1), "hello"); err != nil {
		t.Fatal(err)
	}
	res, err := cli.ExecTimeout(10*time.Second, "get", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "hello" {
		t.Errorf("rows = %v", res.Rows)
	}
	_ = fmt.Sprint()
}

// Every configured replica is hosted: an SMR cluster of four converges on
// all four.
func TestSMRHostsEveryReplica(t *testing.T) {
	cfg := bankConfig(SMR)
	cfg.Replicas = 4
	depositConverges(t, cfg, 3)
}

// The PBR pool runs r1, r2, …, r10: the backup is r2, seeded like the
// primary, not the empty spare r10 a lexical order would put second.
func TestPBRPoolInNumericOrder(t *testing.T) {
	cfg := bankConfig(PBR)
	cfg.Replicas = 10
	depositConverges(t, cfg, 1)
}

// depositConverges opens cfg, deposits 50 into account 5 and waits for
// replica i to hold the new balance.
func depositConverges(t *testing.T, cfg Config, i int) {
	t.Helper()
	cluster, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	cli, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	if _, err := cli.ExecTimeout(10*time.Second, "deposit", int64(5), int64(50)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		db, err := cluster.ReplicaDB(i)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Exec("SELECT balance FROM accounts WHERE id = 5")
		if err == nil && len(res.Rows) == 1 && res.Rows[0][0] == int64(1050) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d never applied the deposit: %v %v", i, res.Rows, err)
		}
	}
}

// Close stops every goroutine the cluster and its clients started, also
// after a replica crashed.
func TestCloseLeaksNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  Mode
		crash bool
	}{
		{"pbr", PBR, false}, {"smr", SMR, false}, {"pbr after crash", PBR, true}, {"smr after crash", SMR, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leaktest.Check(t, "shadowdb/internal/runtime.", "shadowdb/internal/network.", "shadowdb/internal/deploy.")
			cluster, err := Open(bankConfig(tc.mode))
			if err != nil {
				t.Fatal(err)
			}
			cli, err := cluster.Client()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cli.ExecTimeout(10*time.Second, "deposit", int64(1), int64(1)); err != nil {
				t.Fatal(err)
			}
			if tc.crash {
				if err := cluster.Crash(0); err != nil {
					t.Fatal(err)
				}
			}
			_ = cli.Close()
			if err := cluster.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
