package deploy

import (
	"errors"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/flow"
	"shadowdb/internal/gpm"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/shard"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// lg is the node logger; records land in the obs log ring (served on
// /logs, dumped into postmortem bundles) and stream to stderr.
var lg = obs.L("shadowdb")

// wallClock is the live deployment clock deadlines and leases are
// stamped on: absolute wall nanoseconds, comparable at every hop up to
// NTP-grade skew (keep deadlines and -lease-dur well above it).
func wallClock() time.Duration { return time.Duration(time.Now().UnixNano()) }

// Process builds the node's role in cl over prov (nil keeps the node
// volatile) and view (from View; nil outside dynamic membership), opening
// every store the role journals to before any protocol state is
// constructed. boot is what the role emits once at start:
// failure-detector and lease ticks, the catch-up request of a restarted
// replica, the re-drive of a router's recovered transactions.
func (n Node) Process(cl *Cluster, prov store.Provider, view *member.View) (proc gpm.Process, boot []msg.Directive, err error) {
	c, err := n.check(cl)
	if err == nil && n.ordered() && view == nil {
		err = errors.New("deploy: a node under dynamic membership needs its View")
	}
	if err != nil {
		return nil, nil, err
	}
	id := msg.Loc(n.ID)
	reg := cl.App.Procedures
	// openDB opens the replica database, seeded with the application's
	// initial population: a fresh store's baseline snapshot must capture
	// it, and recovery from an existing store restores over it.
	openDB := func(seeded bool) (*sqldb.DB, error) {
		db, err := sqldb.Open(n.Engine + ":mem:" + n.ID)
		if err == nil && seeded && cl.App.Setup != nil {
			err = cl.App.Setup(db)
		}
		return db, err
	}
	// stable opens the named journal of a durable node; nil when volatile.
	stable := func(name string) (store.Stable, error) {
		if prov == nil {
			return nil, nil
		}
		return prov.Open(name + "-" + n.ID)
	}

	switch n.Role {
	case "broadcast":
		// Nodes is every broadcast process the topology can dial — the
		// view, not this list, decides which of them an instance's quorum
		// is drawn from, so a joiner can host its acceptor before its
		// epoch activates.
		return n.service(c.bcast, c.replicas, view, core.FlowClass, cl.now(), stable)
	case "pbr":
		// A spare starts empty.
		db, err := openDB(!n.Spare)
		if err != nil {
			return nil, nil, err
		}
		dep := core.PBRDeployment{
			Pool: c.replicas, InitialMembers: n.Members, BcastNodes: c.bcast, Timing: cl.Timing,
		}
		st, err := stable("pbr")
		if err != nil {
			return nil, nil, err
		}
		if st == nil {
			r := core.NewPBRReplica(id, db, reg, dep)
			return r, r.Start(), nil
		}
		r, restored, err := core.NewDurablePBRReplica(id, db, reg, dep, st, core.DefaultSnapEvery)
		if err != nil {
			return nil, nil, err
		}
		if restored {
			lg.Infof("%s: recovered durable state from pbr-%s", id, id)
		}
		return r, r.Start(), nil
	case "smr", "shard":
		// A shard replica is an SMR replica of its shard's order with the
		// 2PC ledger as its extension. Every shard seeds the full bank:
		// placement decides which rows a shard ever mutates, so unowned
		// rows just stay at their seed value.
		peers, ext := c.replicas, core.SMRExtension(nil)
		if n.Role == "shard" {
			k, part, _ := shard.IsShardLoc(id)
			if part == 'b' {
				return n.service(c.shards.Bcast[k], c.shards.Replicas[k], nil, shard.FlowClass, cl.now(), stable)
			}
			peers, ext = c.shards.Replicas[k], shard.NewLedger(k, shard.Bank())
		}
		// A joiner's database stays empty: schema and rows arrive with
		// the bootstrap state transfer.
		db, err := openDB(!n.Joiner)
		if err != nil {
			return nil, nil, err
		}
		st, err := stable("smr")
		if err != nil {
			return nil, nil, err
		}
		r, err := core.OpenSMRReplica(core.SMRConfig{
			Self: id, DB: db, Registry: reg, Store: st, Peers: peers, Joiner: n.Joiner, Ext: ext,
		})
		if err != nil {
			return nil, nil, err
		}
		r.SetView(view)
		if st != nil && n.Fsync == "batch" {
			r.SetGroupCommit(GroupWindow(n.Pipeline), 0)
		}
		if n.Lease {
			// The fast-path registry keeps the ordered apply loop on the
			// allocation budget the readpath experiment certifies.
			r.Executor().Fast = core.BankFastRegistry()
			r.EnableLease(core.LeaseConfig{
				Dur: n.LeaseDur, MaxStale: n.MaxStale, Bcast: c.bcast[0], Now: cl.now(),
			}, core.BankReadRegistry())
		}
		if r.Recovered() {
			lg.Infof("%s: recovered durable state through slot %d; requesting downtime delta from peers", id, r.LastSlot())
		}
		return r, r.BootDirectives(), nil
	default: // "router": check admits no other role
		cfg := shard.Config{Slf: id, Part: shard.NewHash(c.shards.Shards), App: shard.Bank(), Shards: c.shards.Bcast}
		if n.MaxInflight > 0 || n.RetryBudget > 0 {
			cfg.MaxInflight, cfg.Now = n.MaxInflight, cl.now()
			if n.RetryBudget > 0 {
				cfg.Budget = &flow.RetryBudget{Rate: n.RetryBudget}
			}
		}
		var err error
		if prov != nil {
			// Not through stable: the router's subtree holds one journal.
			if cfg.Stable, err = prov.Open("journal"); err != nil {
				return nil, nil, err
			}
		}
		rt, err := shard.NewRouter(cfg)
		if err != nil {
			return nil, nil, err
		}
		if open := rt.Recovered(); len(open) > 0 {
			lg.Infof("%s: journal recovered %d open cross-shard transaction(s); re-driving %v", id, len(open), open)
		}
		return rt, rt.RecoveryDirectives(), nil
	}
}

// service is the ordering-service process of the broadcast role and of
// a shard's b members: nodes order for subs, and under -max-inflight the
// admission queue sheds by the payload classes classify names (a shard's
// adds its 2PC records). A durable node journals the sequencer's decided
// slots and, under paxos, the Synod acceptor's promises; a restart
// resumes from both. With a view the paxos module resolves acceptor sets
// per instance and the Decide fan-out per decision through it, so quorums
// switch epochs atomically at their activation slot.
func (n Node) service(nodes, subs []msg.Loc, view *member.View, classify flow.Classifier, now func() time.Duration, stable func(string) (store.Stable, error)) (gpm.Process, []msg.Directive, error) {
	cfg := broadcast.Config{
		Nodes: nodes, Subscribers: subs, View: view,
		MaxBatch: n.Batch, MaxDelay: n.BatchDelay, Pipeline: n.Pipeline,
	}
	if n.MaxInflight > 0 {
		cfg.FlowLimit, cfg.Classify, cfg.FlowNow = n.MaxInflight, classify, now
	}
	// The process below is instantiated for this node's id alone, so the
	// per-location store lookups have one answer each.
	only := func(st store.Stable) func(msg.Loc) store.Stable {
		if st == nil {
			return nil
		}
		return func(msg.Loc) store.Stable { return st }
	}
	seq, err := stable("seq")
	if err != nil {
		return nil, nil, err
	}
	cfg.Stable = only(seq)
	if n.Module == "twothird" {
		cfg.Modules = []broadcast.Module{broadcast.TwoThird()}
	} else {
		acc, err := stable("acc")
		if err != nil {
			return nil, nil, err
		}
		cfg.Modules = []broadcast.Module{broadcast.PaxosDynamic(n.Pipeline, only(acc), view)}
	}
	return broadcast.Spec(cfg).Generator()(msg.Loc(n.ID)), nil, nil
}

// GroupWindow caps the SMR group-commit window: with a durable store
// under the batch sync policy, acks are parked until one fsync covers
// the slots the replica has in hand (DESIGN.md §8), at most this many.
// The cap tracks the sequencer's pipeline (concurrent slots arrive back
// to back) with a floor of 4. The simulated deployments take it too.
func GroupWindow(pipeline int) int { return max(pipeline, 4) }
