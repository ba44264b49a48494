package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/gpm"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/shard"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// replicaOverhead is the fixed per-message cost of the hand-written Java
// replica layer (socket handling, dispatch).
const replicaOverhead = 30 * time.Microsecond

// deployment is a ShadowDB deployment as the simulator hosts it: the
// node literal cmd/shadowdb would be launched with, what those nodes
// share, and the little that is the simulator's own.
type deployment struct {
	// nodes are hosted, and boot, in this order.
	nodes []deploy.Node
	// app and timing are the deploy.Cluster the nodes share; its
	// topology lists the nodes (and, with router, the sharded router the
	// caller builds by hand), and its clock is the simulator's.
	app    deploy.App
	timing core.Timing
	router bool
	// root, when non-empty, makes every node durable as -data-dir does:
	// each journals under root/<id>, and a restart recovers from there.
	root string
	// view, when set, is the one epoch schedule every node under dynamic
	// membership reads (the membership experiment, whose joiners are in
	// the topology but not in epoch 0); otherwise each node builds its
	// own from the topology, as a live node does, and a partitioned
	// node's view genuinely goes stale.
	view *member.View
	// intake, when set, is the modeled cost of receiving one client
	// submission at a service node (overload experiment).
	intake time.Duration
}

// literal is a deployment's node literal as cmd/shadowdb would be
// launched for it: one replica of the given role per engine (r1, r2,
// ...), then bcast broadcast nodes (b1, ...), each from deploy.Default
// with set applied (nil: nothing), the flags given on every command
// line. Under PBR the replicas past the initial members are spares, as
// in shadowdb.Open.
func literal(role string, engines []string, bcast int, set func(*deploy.Node)) []deploy.Node {
	node := func(id, role string) deploy.Node {
		n := deploy.Default()
		n.ID, n.Role = id, role
		if set != nil {
			set(&n)
		}
		return n
	}
	var nodes []deploy.Node
	for i, engine := range engines {
		n := node(fmt.Sprintf("r%d", i+1), role)
		n.Engine, n.Spare = engine, role == "pbr" && i >= n.Members
		nodes = append(nodes, n)
	}
	for i := 1; i <= bcast; i++ {
		nodes = append(nodes, node(fmt.Sprintf("b%d", i), "broadcast"))
	}
	return nodes
}

// bankApp is the bank application over rows seeded accounts.
func bankApp(rows int) deploy.App {
	return deploy.App{Procedures: core.BankRegistry(), Setup: func(db *sqldb.DB) error { return core.BankSetup(db, rows) }}
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
	// shared is what the deployment's nodes share; settings holds each
	// node's, procs its current incarnation, and dirs its data directory
	// (durable deployments only, under root).
	shared   *deploy.Cluster
	settings map[msg.Loc]deploy.Node
	procs    map[msg.Loc]gpm.Process
	root     string
	dirs     map[msg.Loc]*nodeDir
	view     *member.View
	// mode prices the broadcast service's steps; intake, when set, its
	// client submissions.
	mode   broadcast.Mode
	intake time.Duration
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
		settings:     make(map[msg.Loc]deploy.Node),
		procs:        make(map[msg.Loc]gpm.Process),
		dirs:         make(map[msg.Loc]*nodeDir),
		mode:         broadcast.Compiled,
		recoveredAll: true,
	}
	c.clu = des.NewCluster(c.sim)
	c.clu.Link = lanLink
	c.clu.SizeOf = wireSize
	return c
}

// newCluster hosts a deployment: every node's process and boot
// directives come from deploy.Node.Process, as cmd/shadowdb and
// shadowdb.Open build them, and the boot directives go out once every
// node is hosted. A node Process refuses panics with Process's error.
func newCluster(d deployment) *Cluster {
	c := newDES()
	c.root, c.view, c.intake = d.root, d.view, d.intake
	c.shared = &deploy.Cluster{
		Topology: member.Topology{Nodes: map[string]string{}},
		App:      d.app, Timing: d.timing, Clock: c.sim.Now,
	}
	if d.router {
		c.shared.Topology.Nodes[string(shard.RouterLoc)] = string(shard.RouterLoc)
	}
	for _, n := range d.nodes {
		loc := msg.Loc(n.ID)
		c.shared.Topology.Nodes[n.ID] = n.ID
		c.settings[loc] = n
		switch deploy.RoleOf(loc) {
		case deploy.RoleBcast:
			c.bloc = append(c.bloc, loc)
		case deploy.RoleReplica:
			c.rloc = append(c.rloc, loc)
		}
		if n.Role == "pbr" {
			// "We run the broadcast service in the interpreter with
			// ShadowDB-PBR": it only carries recovery proposals. Every SMR
			// transaction is ordered by the Lisp (compiled) service.
			c.mode = broadcast.Interpreted
		}
	}
	boots := make([][]msg.Directive, len(d.nodes))
	for i, n := range d.nodes {
		proc, boot := c.process(n)
		c.host(msg.Loc(n.ID), proc, c.price(proc))
		boots[i] = boot
	}
	for i, n := range d.nodes {
		c.send(msg.Loc(n.ID), boots[i])
	}
	return c
}

// process builds n's next incarnation through deploy.Node.Process: on a
// durable deployment over n's data directory, and under the shared view
// when there is one.
func (c *Cluster) process(n deploy.Node) (gpm.Process, []msg.Directive) {
	view, err := n.View(c.shared)
	if view != nil && c.view != nil {
		view = c.view
	}
	var prov store.Provider
	if err == nil && c.root != "" {
		prov, err = c.dir(n)
	}
	var proc gpm.Process
	var boot []msg.Directive
	if err == nil {
		proc, boot, err = n.Process(c.shared, prov, view)
	}
	if err != nil {
		panic(fmt.Errorf("bench: %s: %w", n.ID, err))
	}
	c.procs[msg.Loc(n.ID)] = proc
	return proc, boot
}

// nodeDir is a durable node's data directory: the store provider
// Process opens the node's journals through, remembering them so a kill
// can close them.
type nodeDir struct {
	store.Provider
	open []store.Stable
}

func (d *nodeDir) Open(name string) (store.Stable, error) {
	st, err := d.Provider.Open(name)
	if err == nil {
		d.open = append(d.open, st)
	}
	return st, err
}

// dir is n's data directory, root/<id>, under n's -fsync policy.
func (c *Cluster) dir(n deploy.Node) (*nodeDir, error) {
	loc := msg.Loc(n.ID)
	if d := c.dirs[loc]; d != nil {
		return d, nil
	}
	pol, err := store.ParsePolicy(n.Fsync)
	if err != nil {
		return nil, err
	}
	prov, err := store.NewDir(filepath.Join(c.root, n.ID), pol)
	if err != nil {
		return nil, err
	}
	c.dirs[loc] = &nodeDir{Provider: prov}
	return c.dirs[loc], nil
}

// kill closes every store loc's incarnation opened.
func (c *Cluster) kill(loc msg.Loc) {
	d := c.dirs[loc]
	for _, st := range d.open {
		_ = st.Close()
	}
	d.open = nil
}

// smr is loc's current SMR replica incarnation (a shard replica too).
func (c *Cluster) smr(loc msg.Loc) *core.SMRReplica { return c.procs[loc].(*core.SMRReplica) }

// pbr is loc's primary-backup replica.
func (c *Cluster) pbr(loc msg.Loc) *core.PBRReplica { return c.procs[loc].(*core.PBRReplica) }

// facts are the deployment facts the checker is armed with: what
// deploy.Node.Facts reads off the nodes' settings (a replica's lease
// window, the epoch 0 and alpha of a node under dynamic membership, a
// sequencer's admission bound), with the shared view's epoch 0, which
// leaves the joiners out, when there is one.
func (c *Cluster) facts() dist.Facts {
	var f dist.Facts
	for _, loc := range c.nodes {
		n, ok := c.settings[loc]
		if !ok {
			continue // hand-built
		}
		g := n.Facts(c.shared)
		if f.LeaseDur == 0 {
			f.LeaseDur, f.MaxStale = g.LeaseDur, g.MaxStale
		}
		if f.Alpha == 0 {
			f.Initial, f.Alpha = g.Initial, g.Alpha
		}
		f.MaxQueue = max(f.MaxQueue, g.MaxQueue)
	}
	if c.view != nil {
		f.Initial = c.view.Epochs()[0]
	}
	return f
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

// price is the service time of one step of proc: a replica's engine
// model plus the fixed replica-layer overhead, or a service node's
// calibrated cost in the cluster's execution mode plus a share per
// client message the protocol message carries.
func (c *Cluster) price(proc gpm.Process) func(msg.Msg) time.Duration {
	if r, ok := proc.(interface{ LastCost() time.Duration }); ok {
		return func(msg.Msg) time.Duration { return r.LastCost() + replicaOverhead }
	}
	per := Calibrate().PerMsg[c.mode]
	return func(m msg.Msg) time.Duration {
		if c.intake > 0 && m.Hdr == broadcast.HdrBcast {
			// Intake (dedup + deadline + admission) is the engineered
			// cheap path: shedding a request must cost far less than
			// ordering it, or admission control amplifies the overload
			// it exists to absorb.
			return c.intake
		}
		return bcastCost(per, m)
	}
}

// host registers loc as a sequential (1 core) node stepping proc, each
// step priced by price after it ran.
func (c *Cluster) host(loc msg.Loc, proc gpm.Process, price func(msg.Msg) time.Duration) {
	c.nodes = append(c.nodes, loc)
	c.clu.AddCostedNode(loc, 1, c.stepper(loc, proc, price))
}

func (c *Cluster) stepper(loc msg.Loc, proc gpm.Process, price func(msg.Msg) time.Duration) des.CostedHandler {
	return func(env msg.Envelope) ([]msg.Directive, time.Duration) {
		next, outs := proc.Step(env.M)
		proc = next
		return outs, c.slowed(loc, price(env.M))
	}
}

// Restart builds loc's next incarnation through Process again, over its
// data directory, rebinds the node to it, and returns its boot
// directives.
func (c *Cluster) Restart(loc msg.Loc) []msg.Directive {
	proc, boot := c.process(c.settings[loc])
	c.clu.Node(loc).RebindCosted(c.stepper(loc, proc, c.price(proc)))
	return boot
}

// send emits a node's self-originated directives (boot directives:
// recovery fetches, lease and failure-detector timers) from loc.
func (c *Cluster) send(loc msg.Loc, outs []msg.Directive) {
	for _, d := range outs {
		c.clu.SendAfter(d.Delay, loc, d.Dest, d.M)
	}
}

// maxOtherSlot is the highest applied frontier among the replicas other
// than loc.
func (c *Cluster) maxOtherSlot(loc msg.Loc) int {
	m := -1
	for _, l := range c.rloc {
		if l != loc && c.smr(l).LastSlot() > m {
			m = c.smr(l).LastSlot()
		}
	}
	return m
}

// converged reports, over the given replicas, slot-frontier parity and
// bit-identical table contents, along with each one's applied frontier.
func (c *Cluster) converged(locs []msg.Loc) (caughtUp, stateEqual bool, slots []int) {
	maxSlot := -1
	for _, l := range locs {
		s := c.smr(l).LastSlot()
		slots = append(slots, s)
		if s > maxSlot {
			maxSlot = s
		}
	}
	caughtUp, stateEqual = len(locs) > 0, len(locs) > 0
	for _, l := range locs {
		if c.smr(l).LastSlot() < maxSlot {
			caughtUp = false
		}
		if !sqldb.Equal(c.smr(locs[0]).Executor().DB, c.smr(l).Executor().DB) {
			stateEqual = false
		}
	}
	return caughtUp, stateEqual, slots
}
