package bench

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/flow"
	"shadowdb/internal/gpm"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// replicaOverhead is the fixed per-message cost of the hand-written Java
// replica layer (socket handling, dispatch).
const replicaOverhead = 30 * time.Microsecond

// clusterSpec describes a simulated ShadowDB deployment along the axes
// the experiments differ on. The zero value of every optional field is
// the paper's plain deployment: three in-memory SMR replicas ordered by
// three broadcast service nodes, wired as the shipped binary wires them
// (every service node notifies every replica).
type clusterSpec struct {
	// pbr selects primary-backup replication over the engines pool with
	// members initial members (the rest are spares) and the given
	// failure-detector timing; state-machine replication otherwise.
	pbr     bool
	timing  core.Timing
	members int
	// engines names each replica's SQL engine (r1, r2, ... in order); reg
	// and setup are the procedures and the schema + initial rows.
	engines []string
	reg     core.Registry
	setup   func(*sqldb.DB) error
	// bcastNodes is the broadcast service size (3 when zero). bcast
	// carries the hot-path knobs (MaxBatch, MaxDelay, Pipeline, FlowLimit,
	// Classify); topology fields are filled in by the builder.
	bcastNodes int
	bcast      broadcast.Config
	// intake, when set, is the modeled cost of receiving one client
	// submission at a service node (overload experiment).
	intake time.Duration
	// root, when non-empty, makes the deployment durable as -data-dir
	// does: each SMR replica journals to root/<loc>/smr (and can be torn
	// down and rebuilt from there mid-run, Restart), each service node to
	// root/<loc>/seq and acc.
	root  string
	fsync store.SyncPolicy
	// The deployment runs under configuration epochs with activation lag
	// alpha (-alpha's default when zero). Epoch 0 is every node but the
	// joiners, which wait empty and inactive for an ordered admission.
	// With sharedView every node reads one epoch schedule; otherwise the
	// service and each replica fold commands from their own delivery
	// stream into their own view, so a partitioned node's view genuinely
	// goes stale.
	alpha      int
	sharedView bool
	joiners    map[msg.Loc]bool
	// lease (Dur > 0) enables lease-based local reads as -lease does: the
	// bank read registry and fast write procedures, renewals through the
	// first service node on the simulator's clock.
	lease core.LeaseConfig
}

// Cluster is a ShadowDB deployment on the discrete-event simulator: the
// one place broadcast nodes and replicas are hosted, priced, torn down
// and rebuilt. Every experiment builds one (or, for the sharded
// deployment, composes several groups on one) instead of wiring its own.
type Cluster struct {
	sim  *des.Sim
	clu  *des.Cluster
	bloc []msg.Loc // broadcast service nodes
	rloc []msg.Loc // replicas
	// nodes is every hosted protocol node in registration order (the
	// flight-recorder fleet and the nemesis address them).
	nodes []msg.Loc
	spec  clusterSpec
	// pbr holds the primary-backup replicas (PBR deployments only).
	pbr map[msg.Loc]*core.PBRReplica
	// The current incarnation of each SMR replica and its attachments;
	// sts only for durable deployments, view only with sharedView.
	reps map[msg.Loc]*core.SMRReplica
	dbs  map[msg.Loc]*sqldb.DB
	sts  map[msg.Loc]store.Stable
	gen  map[msg.Loc]int
	view *member.View
	// epoch0 and alpha are the membership the service starts under and
	// its activation lag (zero on a bare newDES cluster, which has none).
	epoch0 member.Config
	alpha  int
	// inj is the bound nemesis (nil without one). Cost closures consult
	// it lazily, so a slow-disk window can degrade a node mid-run without
	// rebinding anything.
	inj *fault.Injector
	// Restart bookkeeping: kills and restarts seen, WAL records replayed
	// across the local recoveries, whether every new incarnation restored
	// from its own store, and when the last one came back.
	kills, restarts int
	replayed        int64
	recoveredAll    bool
	lastRestartAt   time.Duration
}

// charter is epoch 0 of the epoch-driven deployments: three service
// nodes, three replicas, r1 the natural lease holder.
func charter() member.Config {
	return member.Config{
		Bcast:    []msg.Loc{"b1", "b2", "b3"},
		Replicas: []msg.Loc{"r1", "r2", "r3"},
	}
}

// newDES creates an empty cluster on the evaluation network.
func newDES() *Cluster {
	c := &Cluster{
		sim:          &des.Sim{},
		reps:         make(map[msg.Loc]*core.SMRReplica),
		dbs:          make(map[msg.Loc]*sqldb.DB),
		sts:          make(map[msg.Loc]store.Stable),
		gen:          make(map[msg.Loc]int),
		recoveredAll: true,
	}
	c.clu = des.NewCluster(c.sim)
	c.clu.Link = lanLink
	c.clu.SizeOf = wireSize
	return c
}

// newCluster builds the deployment a spec describes: replicas first, then
// the broadcast service, then each replica's boot directives (PBR: its
// failure detector).
func newCluster(spec clusterSpec) *Cluster {
	c := newDES()
	c.spec = spec
	for i := 1; i <= cmp.Or(spec.bcastNodes, 3); i++ {
		c.bloc = append(c.bloc, msg.Loc(fmt.Sprintf("b%d", i)))
	}
	for i := range spec.engines {
		c.rloc = append(c.rloc, msg.Loc(fmt.Sprintf("r%d", i+1)))
	}
	joiner := func(l msg.Loc) bool { return spec.joiners[l] }
	c.epoch0 = member.Config{
		Bcast:    slices.DeleteFunc(slices.Clone(c.bloc), joiner),
		Replicas: slices.DeleteFunc(slices.Clone(c.rloc), joiner),
	}
	c.alpha = cmp.Or(spec.alpha, deploy.Default().Alpha)
	view := member.NewView(c.epoch0, c.alpha)
	if spec.sharedView {
		c.view = view
	}
	bcfg := spec.bcast
	bcfg.Nodes, bcfg.View = c.bloc, view

	if spec.pbr {
		dep := core.PBRDeployment{
			Pool: c.rloc, InitialMembers: spec.members,
			BcastNodes: c.bloc, Timing: spec.timing,
		}
		c.pbr = make(map[msg.Loc]*core.PBRReplica, len(c.rloc))
		for i, l := range c.rloc {
			// Initial members hold the populated database; a spare starts
			// empty and is filled by state transfer.
			r := core.NewPBRReplica(l, c.openDB(l, i < dep.InitialMembers), spec.reg, dep)
			c.pbr[l] = r
			c.host(l, r, func() time.Duration { return r.LastCost() + replicaOverhead })
		}
		// "We run the broadcast service in the interpreter with
		// ShadowDB-PBR": it only carries recovery proposals.
		c.addService(bcfg, broadcast.Interpreted)
		// The failure detectors boot in pool order: same-instant timers
		// armed in another order would perturb schedules that must replay
		// exactly (the chaos fingerprint check).
		for _, l := range c.rloc {
			c.send(l, c.pbr[l].Start())
		}
		return c
	}

	for _, l := range c.rloc {
		c.host(l, c.buildReplica(l, !spec.joiners[l]), c.replicaCost(l))
	}
	// Every transaction is ordered by the Lisp (compiled) service.
	c.addService(bcfg, broadcast.Compiled)
	for _, l := range c.rloc {
		c.boot(l)
	}
	return c
}

// facts are the deployment facts deploy.Node.Facts reads off a node's
// settings, for the checker: the lease window, the service's epoch 0 and
// alpha, and the sequencer's admission bound.
func (c *Cluster) facts() dist.Facts {
	l := c.spec.lease
	f := dist.Facts{LeaseDur: l.Dur, MaxStale: l.MaxStale, Initial: c.epoch0, Alpha: c.alpha}
	if q := c.spec.bcast.FlowLimit; q > 0 {
		f.MaxQueue = flow.NewQueue(q).Cap()
	}
	return f
}

// index is loc's position in the replica list.
func (c *Cluster) index(loc msg.Loc) int {
	for i, l := range c.rloc {
		if l == loc {
			return i
		}
	}
	panic(fmt.Sprintf("bench: %s is not a replica", loc))
}

// slowed applies the slow-disk nemesis' current multiplier for loc.
func (c *Cluster) slowed(loc msg.Loc, cost time.Duration) time.Duration {
	if c.inj != nil {
		if f := c.inj.SlowFactor(loc); f > 1 {
			cost = time.Duration(float64(cost) * f)
		}
	}
	return cost
}

// host registers a sequential (1 core) process whose per-step service
// time is read from cost after each step.
func (c *Cluster) host(loc msg.Loc, p gpm.Process, cost func() time.Duration) {
	c.nodes = append(c.nodes, loc)
	c.clu.AddCostedProcess(loc, 1, p, func() time.Duration { return c.slowed(loc, cost()) })
}

// addService hosts one ordering group wired as deploy's service roles
// wire it: the paxos module windowed at the pipeline over the group's
// view (nil: a static group), journaled on a durable deployment.
func (c *Cluster) addService(cfg broadcast.Config, mode broadcast.Mode) {
	var acc func(msg.Loc) store.Stable
	if c.spec.root != "" {
		cfg.Stable = func(loc msg.Loc) store.Stable { return c.openStore(loc, "seq") }
		acc = func(loc msg.Loc) store.Stable { return c.openStore(loc, "acc") }
	}
	cfg.Modules = []broadcast.Module{broadcast.PaxosDynamic(cfg.Pipeline, acc, cfg.View)}
	if cfg.FlowLimit > 0 {
		cfg.FlowNow = c.sim.Now
	}
	c.addBroadcast(cfg, mode)
}

// addBroadcast hosts one broadcast service group with the calibrated
// cost of the chosen execution mode. The protocol behavior is the native
// (bisimilar) implementation; the service time is the measured cost of
// the requested mode plus a per-contained-message payload cost.
func (c *Cluster) addBroadcast(cfg broadcast.Config, mode broadcast.Mode) {
	gen := broadcast.Spec(cfg).Generator()
	per := Calibrate().PerMsg[mode]
	for _, b := range cfg.Nodes {
		loc, proc := b, gen(b)
		c.nodes = append(c.nodes, loc)
		c.clu.AddCostedNode(loc, 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
			next, outs := proc.Step(env.M)
			proc = next
			cost := bcastCost(per, env.M)
			if c.spec.intake > 0 && env.M.Hdr == broadcast.HdrBcast {
				// Intake (dedup + deadline + admission) is the engineered
				// cheap path: shedding a request must cost far less than
				// ordering it, or admission control amplifies the overload
				// it exists to absorb.
				cost = c.spec.intake
			}
			return outs, c.slowed(loc, cost)
		})
	}
}

// openDB opens a fresh database for loc's next incarnation, seeded with
// the schema and initial rows when populate is set.
func (c *Cluster) openDB(loc msg.Loc, populate bool) *sqldb.DB {
	c.gen[loc]++
	db, err := sqldb.Open(fmt.Sprintf("%s:mem:%s-g%d", c.spec.engines[c.index(loc)], loc, c.gen[loc]))
	if err != nil {
		panic(err)
	}
	if populate {
		if err := c.spec.setup(db); err != nil {
			panic(err)
		}
	}
	return db
}

// dataDir is loc's store directory under the spec's root.
func (c *Cluster) dataDir(loc msg.Loc) string { return filepath.Join(c.spec.root, string(loc)) }

// openStore opens the named journal under loc's data directory.
func (c *Cluster) openStore(loc msg.Loc, name string) store.Stable {
	prov, err := store.NewDir(c.dataDir(loc), c.spec.fsync)
	if err != nil {
		panic(fmt.Sprintf("bench: store of %s: %v", loc, err))
	}
	st, err := prov.Open(name)
	if err != nil {
		panic(fmt.Sprintf("bench: %s store of %s: %v", name, loc, err))
	}
	return st
}

// buildReplica constructs loc's next SMR incarnation over a fresh
// database. With populate set (first boot of a charter replica) the
// database is seeded before construction, so a durable replica's
// baseline snapshot captures the initial rows; a restarted incarnation
// starts empty and recovers everything — state and epoch view — from its
// store. Joiners start empty and inactive: their first durable baseline
// is the bootstrap transfer. Lease state always starts empty (leases are
// volatile by design).
func (c *Cluster) buildReplica(loc msg.Loc, populate bool) *core.SMRReplica {
	spec := c.spec
	db := c.openDB(loc, populate)
	cfg := core.SMRConfig{Self: loc, DB: db, Registry: spec.reg}
	if spec.root != "" {
		cfg.Store, cfg.Joiner = c.openStore(loc, "smr"), spec.joiners[loc]
		c.sts[loc] = cfg.Store
	}
	rep, err := core.OpenSMRReplica(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: replica %s: %v", loc, err))
	}
	if c.view != nil {
		rep.SetView(c.view)
	} else {
		rep.SetView(member.NewView(c.epoch0, c.alpha))
	}
	if cfg.Store != nil && spec.fsync == store.SyncBatch {
		rep.SetGroupCommit(deploy.GroupWindow(spec.bcast.Pipeline), 0)
	}
	if spec.lease.Dur > 0 {
		lease := spec.lease
		lease.Bcast, lease.Now = c.bloc[0], c.sim.Now
		rep.Executor().Fast = core.BankFastRegistry()
		rep.EnableLease(lease, core.BankReadRegistry())
	}
	c.reps[loc], c.dbs[loc] = rep, db
	return rep
}

// replicaCost prices the current incarnation's last step (the engine
// model plus the fixed replica-layer overhead).
func (c *Cluster) replicaCost(loc msg.Loc) func() time.Duration {
	return func() time.Duration { return c.reps[loc].LastCost() + replicaOverhead }
}

// Restart rebuilds loc from its data directory — a fresh incarnation,
// empty database and all — and rebinds it to the node.
func (c *Cluster) Restart(loc msg.Loc) *core.SMRReplica {
	rep := c.buildReplica(loc, false)
	var proc gpm.Process = rep
	cost := c.replicaCost(loc)
	c.clu.Node(loc).RebindCosted(func(env msg.Envelope) ([]msg.Directive, time.Duration) {
		next, outs := proc.Step(env.M)
		proc = next
		return outs, c.slowed(loc, cost())
	})
	return rep
}

// send emits a replica's self-originated directives (recovery fetches,
// lease and failure-detector timers) from loc.
func (c *Cluster) send(loc msg.Loc, outs []msg.Directive) {
	for _, d := range outs {
		c.clu.SendAfter(d.Delay, loc, d.Dest, d.M)
	}
}

// boot emits the current incarnation of loc's boot directives, what
// deploy.Node.Process returns for it: at start and after every restart.
func (c *Cluster) boot(loc msg.Loc) { c.send(loc, c.reps[loc].BootDirectives()) }

// maxOtherSlot is the highest applied frontier among the replicas other
// than loc.
func (c *Cluster) maxOtherSlot(loc msg.Loc) int {
	m := -1
	for l, r := range c.reps {
		if l != loc && r.LastSlot() > m {
			m = r.LastSlot()
		}
	}
	return m
}

// converged reports, over the given replicas, slot-frontier parity and
// bit-identical table contents, along with each one's applied frontier.
func (c *Cluster) converged(locs []msg.Loc) (caughtUp, stateEqual bool, slots []int) {
	maxSlot := -1
	for _, l := range locs {
		s := c.reps[l].LastSlot()
		slots = append(slots, s)
		if s > maxSlot {
			maxSlot = s
		}
	}
	caughtUp, stateEqual = len(locs) > 0, len(locs) > 0
	for _, l := range locs {
		if c.reps[l].LastSlot() < maxSlot {
			caughtUp = false
		}
		if !sqldb.Equal(c.dbs[locs[0]], c.dbs[l]) {
			stateEqual = false
		}
	}
	return caughtUp, stateEqual, slots
}
