package shard_test

import (
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/shard"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// evenOdd places decimal keys by parity: account 0 on shard 0, account
// 1 on shard 1 — so transfer(0, 1, _) is deterministically cross-shard.
type evenOdd struct{}

func (evenOdd) N() int       { return 2 }
func (evenOdd) Name() string { return "evenodd" }
func (evenOdd) Shard(key string) int {
	id, err := strconv.Atoi(key)
	if err != nil {
		return 0
	}
	return id % 2
}

// TestCoordinatorCrashBetweenPrepareAndCommit kills the router after its
// prepares are ordered and voted on but before any vote reaches it (the
// classic 2PC window: participants hold reservations, the outcome is
// unknown). The restarted incarnation must recover the open transaction
// from its journal, re-drive the prepares, and commit exactly once —
// with the online checker attached and zero violations.
func TestCoordinatorCrashBetweenPrepareAndCommit(t *testing.T) {
	const (
		killAt  = 20 * time.Millisecond
		downFor = 80 * time.Millisecond
		amount  = int64(250)
	)
	sim := &des.Sim{}
	clu := des.NewCluster(sim)
	zero := func() time.Duration { return 0 }

	// Two shards, each one broadcast node and one replica; one router.
	bloc := []msg.Loc{shard.BcastLoc(0, 0), shard.BcastLoc(1, 0)}
	rloc := []msg.Loc{shard.ReplicaLoc(0, 0), shard.ReplicaLoc(1, 0)}
	reps := make([]*core.SMRReplica, 2)
	ledgers := make([]*shard.Ledger, 2)
	for k := 0; k < 2; k++ {
		db, err := sqldb.Open("h2:mem:2pcrec" + strconv.Itoa(k))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.BankSetup(db, 8); err != nil {
			t.Fatal(err)
		}
		ledgers[k] = shard.NewLedger(k, shard.Bank())
		reps[k], err = core.OpenSMRReplica(core.SMRConfig{Self: rloc[k], DB: db, Registry: core.BankRegistry(), Ext: ledgers[k]})
		if err != nil {
			t.Fatal(err)
		}
		clu.AddCostedProcess(rloc[k], 1, reps[k], zero)
		bgen := broadcast.Spec(broadcast.Config{
			Nodes:       []msg.Loc{bloc[k]},
			Subscribers: []msg.Loc{rloc[k]},
		}).Generator()
		clu.AddCostedProcess(bloc[k], 1, bgen(bloc[k]), zero)
	}

	root := t.TempDir()
	openJournal := func() store.Stable {
		prov, err := store.NewDir(filepath.Join(root, shard.RouterSubdir), store.SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		st, err := prov.Open("router")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	rcfg := shard.Config{
		Slf:    shard.RouterLoc,
		Part:   evenOdd{},
		App:    shard.Bank(),
		Shards: [][]msg.Loc{{bloc[0]}, {bloc[1]}},
		Retry:  60 * time.Millisecond,
	}
	rcfg.Stable = openJournal()
	rt, err := shard.NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	clu.AddCostedProcess(shard.RouterLoc, 1, rt, zero)

	// The client location records every TxResult it receives.
	var results []core.TxResult
	var loop gpm.StepFunc
	loop = func(in msg.Msg) (gpm.Process, []msg.Directive) {
		if res, ok := in.Body.(core.TxResult); ok && in.Hdr == core.HdrTxResult {
			results = append(results, res)
		}
		return loop, nil
	}
	clu.AddCostedProcess("c1", 1, loop, zero)

	o := obs.New(1 << 14)
	clu.Observe(o)
	o.EnableTracing(true)
	ck := dist.NewChecker(dist.Facts{})
	ck.Watch(o)

	// Crash window: every vote to the router is dropped until the kill, so
	// the coordinator dies with the transaction prepared but undecided.
	var recovered []string
	current := rt
	inj := fault.BindProcess(clu, fault.Plan{
		Seed: 7,
		Rules: []fault.Rule{{
			Match: fault.Match{Dst: shard.RouterLoc, Hdr: shard.HdrVote},
			To:    fault.Duration(killAt),
			Drop:  true,
		}},
		Crashes: []fault.Crash{{
			At:           fault.Duration(killAt),
			Node:         shard.RouterLoc,
			RestartAfter: fault.Duration(downFor),
		}},
	}, fault.ProcessHooks{
		Kill: func(msg.Loc) {
			if err := rcfg.Stable.Close(); err != nil {
				t.Errorf("close journal: %v", err)
			}
		},
		Restart: func(msg.Loc) {
			rcfg.Stable = openJournal()
			rt2, err := shard.NewRouter(rcfg)
			if err != nil {
				t.Errorf("restart router: %v", err)
				return
			}
			recovered = rt2.Recovered()
			current = rt2
			clu.Node(shard.RouterLoc).RebindCosted(func(env msg.Envelope) ([]msg.Directive, time.Duration) {
				_, outs := rt2.Step(env.M)
				return outs, 0
			})
			ck.NoteRestart(shard.RouterLoc)
			sim.After(0, func() {
				for _, d := range rt2.RecoveryDirectives() {
					clu.SendAfter(d.Delay, shard.RouterLoc, d.Dest, d.M)
				}
			})
		},
	})
	inj.SetObs(o)

	req := core.TxRequest{Client: "c1", Seq: 1, Type: "transfer", Args: []any{0, 1, amount}}
	clu.SendAfter(0, "c1", shard.RouterLoc, msg.M(core.HdrTx, req))

	sim.Run(2*time.Second, 5_000_000)

	// The journal replay must have found exactly the open transaction.
	if len(recovered) != 1 || recovered[0] != req.Key() {
		t.Fatalf("restarted router recovered %v, want [%s]", recovered, req.Key())
	}
	// Participants held the reservation across the outage; after recovery
	// the transfer committed exactly once.
	if len(results) != 1 {
		t.Fatalf("client received %d results, want 1: %v", len(results), results)
	}
	if results[0].Aborted {
		t.Fatalf("recovered transaction aborted: %+v", results[0])
	}
	checkBalance := func(rep *core.SMRReplica, id int, want int64) {
		res, err := rep.Executor().DB.Exec("SELECT balance FROM accounts WHERE id = ?", id)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("balance(%d): %v %v", id, res, err)
		}
		var got int64
		switch v := res.Rows[0][0].(type) {
		case int64:
			got = v
		case int:
			got = int64(v)
		}
		if got != want {
			t.Errorf("account %d = %d, want %d", id, got, want)
		}
	}
	checkBalance(reps[0], 0, 1000-amount)
	checkBalance(reps[1], 1, 1000+amount)
	for k, l := range ledgers {
		if l.OpenPrepares() != 0 {
			t.Errorf("shard %d: %d prepares still open after recovery", k, l.OpenPrepares())
		}
		if l.HeldOn(strconv.Itoa(k)) != 0 {
			t.Errorf("shard %d: reservation still held after decision", k)
		}
	}
	if current.InFlight() != 0 {
		t.Errorf("router still has %d transactions in flight", current.InFlight())
	}
	if vs := ck.Violations(); len(vs) != 0 {
		t.Fatalf("checker flagged the recovery: %v", vs)
	}
	if len(inj.Injections()) == 0 {
		t.Error("nemesis injected nothing; the crash window never happened")
	}
}
