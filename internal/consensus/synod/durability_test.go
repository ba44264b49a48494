package synod

import (
	"testing"

	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
	"shadowdb/internal/store"
	"shadowdb/internal/verify"
)

func durableCfg(prov store.Provider) Config {
	cfg := testConfig()
	cfg.Stable = func(l msg.Loc) store.Stable {
		st, err := prov.Open("acc-" + string(l))
		if err != nil {
			panic(err)
		}
		return st
	}
	return cfg
}

// A rebuilt acceptor must come back with the ballot it promised and the
// pvalues it accepted — journaled before the replies revealed them.
func TestAcceptorRestoresFromStore(t *testing.T) {
	for name, prov := range map[string]store.Provider{
		"mem": store.NewMem(),
		"dir": mustDir(t),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := durableCfg(prov)
			cl := AcceptorClass(cfg)
			acc := loe.NewProcess(cl, "a1")
			b := Ballot{N: 3, L: "l1"}
			acc, _ = acc.Step(msg.M(HdrP1a, P1a{B: b, From: "s"}))
			acc, _ = acc.Step(msg.M(HdrP2a, P2a{B: b, Inst: 7, Val: "v7", From: "c"}))
			_ = acc

			// Crash: the process is gone; a new incarnation is generated
			// from scratch and must restore from the store.
			fresh := loe.NewProcess(cl, "a1")
			_, outs := fresh.Step(msg.M(HdrP1a, P1a{B: Ballot{N: 0, L: "l0"}, From: "s"}))
			reply := outs[0].M.Body.(P1b)
			if !reply.B.Equal(b) {
				t.Errorf("restored promise = %s, want %s", reply.B, b)
			}
			if len(reply.Accepted) != 1 || reply.Accepted[0].Inst != 7 || reply.Accepted[0].Val != "v7" {
				t.Errorf("restored pvalues = %v, want the accepted (7, v7)", reply.Accepted)
			}
		})
	}
}

func mustDir(t *testing.T) *store.Dir {
	t.Helper()
	d, err := store.NewDir(t.TempDir(), store.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The crash-restart property must have bite: the same fuzz over
// VOLATILE acceptors (restart = state loss) must be caught by the
// invariant — a restarted acceptor forgets its promise and replies
// with a regressed ballot.
func TestDurableRestartPropertyCatchesVolatileAcceptors(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing is slow")
	}
	cfg := duelConfig() // no Stable: restart loses state
	m := verify.Model{
		Gen:  Spec(cfg).Generator(),
		Locs: Spec(cfg).Locs,
		Init: []verify.Injection{
			{To: "l1", M: msg.M(HdrPropose, Propose{Inst: 0, Val: "from-l1"})},
			{To: "l2", M: msg.M(HdrPropose, Propose{Inst: 0, Val: "from-l2"})},
		},
		CrashLocs:  cfg.Acceptors,
		Crashes:    2,
		Restarts:   2,
		Invariants: durableRestart,
	}
	if _, err := verify.Fuzz(m, 400, 250, 17); err == nil {
		t.Fatal("volatile acceptors survived the crash-restart fuzz; the property lost its bite")
	}
}
