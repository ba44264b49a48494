package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"shadowdb/internal/bench/tpcc"
	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/gpm"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/runtime"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// The deployment settings every workload runs under: cmd/shadowdb's
// defaults plus README's recommended tuning (-batch 16 -batch-delay 1ms
// -pipeline 4), durable with -fsync batch.
const (
	batchSize  = 16
	batchDelay = time.Millisecond
	pipeline   = 4
	// alpha is cmd/shadowdb's -alpha default; it must exceed 2*pipeline.
	alpha = 16
	// groupCommit is what cmd/shadowdb's groupWindow derives for a
	// data-dir under -fsync batch with -pipeline 4.
	groupCommit = 4
	leaseDur    = 2 * time.Second
	bankRows    = 10_000
	bankInitial = 1000 // core.BankSetup's opening balance
	numClients  = 16
	engine      = "h2"
	fsyncPolicy = store.SyncBatch
	clientLoc   = msg.Loc("cli")
	readTarget  = msg.Loc("r1") // Replicas[0], the natural lease holder
	pbrMembers  = 2
)

// tpccScale is fixed here, not taken from tpcc.Full: at full scale one
// transaction costs ~10 ms of apply and a run yields too few samples.
var tpccScale = tpcc.Scale{Warehouses: 1, DistrictsPerW: 10, CustomersPerD: 300, Items: 10_000, OrdersPerD: 300}

var (
	bcastLocs   = []msg.Loc{"b1", "b2", "b3"}
	replicaLocs = []msg.Loc{"r1", "r2", "r3"}
)

// newView is a node's own copy of the initial membership epoch.
func newView() *member.View {
	return member.NewView(member.Config{Bcast: bcastLocs, Replicas: replicaLocs}, alpha)
}

func wallClock() time.Duration { return time.Duration(time.Now().UnixNano()) }

// node is one hosted cluster member: its own TCP endpoint, its own
// data directory, its own runtime.Host.
type node struct {
	id   msg.Loc
	tcp  *network.TCP
	host *runtime.Host
	dir  string
	// exec is set on replica nodes. executed republishes exec.Executed
	// after every step so the checker can wait for convergence without
	// racing the host's goroutine.
	exec     *core.Executor
	executed atomic.Int64
	// boot is what the role emits once at start (lease and failure
	// detector ticks, the catch-up request).
	boot []msg.Directive
}

// cluster is a complete deployment inside this process.
type cluster struct {
	w       *workload
	root    string
	nodes   []*node // broadcast nodes first, then replicas
	client  *network.TCP
	stables []store.Stable
	tr      *tracer // nil in the untraced run
}

// trackedDir is the node's store.Provider: store.Dir plus a record of
// what was opened (cmd/shadowdb leaves closing to process exit; here
// several clusters live and die in one process), plus the trace
// decorator when tracing.
type trackedDir struct {
	inner *store.Dir
	c     *cluster
	nt    *nodeTrace
}

func (p trackedDir) Open(name string) (store.Stable, error) {
	st, err := p.inner.Open(name)
	if err != nil {
		return nil, err
	}
	p.c.stables = append(p.c.stables, st)
	if p.nt != nil {
		return tracedStable{inner: st, nt: p.nt}, nil
	}
	return st, nil
}

// mustOpen maps component locations to named stores ("seq-b1",
// "acc-b1"), as cmd/shadowdb's openStable does. It is called from inside
// process construction, where there is no error path.
func mustOpen(p store.Provider, prefix string) func(msg.Loc) store.Stable {
	return func(l msg.Loc) store.Stable {
		st, err := p.Open(prefix + "-" + string(l))
		if err != nil {
			panic(fmt.Sprintf("benchmark: open store: %v", err))
		}
		return st
	}
}

// buildCluster listens, wires and starts every node under root.
func buildCluster(w *workload, root string, tr *tracer) (c *cluster, err error) {
	c = &cluster{w: w, root: root, tr: tr}
	defer func() {
		if err != nil {
			c.close()
		}
	}()

	// Every endpoint binds an ephemeral loopback port first; the full
	// directory is installed once all ports are known. The logical
	// clients c0..c15 all resolve to the one client endpoint.
	listen := func(id msg.Loc) (*network.TCP, error) {
		return network.NewTCP(id, map[msg.Loc]string{id: "127.0.0.1:0"})
	}
	for _, id := range append(append([]msg.Loc(nil), bcastLocs...), replicaLocs...) {
		tcp, err := listen(id)
		if err != nil {
			return c, err
		}
		c.nodes = append(c.nodes, &node{id: id, tcp: tcp, dir: filepath.Join(root, string(id))})
	}
	if c.client, err = listen(clientLoc); err != nil {
		return c, err
	}
	dir := map[msg.Loc]string{}
	endpoints := []*network.TCP{c.client}
	for _, n := range c.nodes {
		dir[n.id] = n.tcp.Addr()
		endpoints = append(endpoints, n.tcp)
	}
	for i := 0; i < numClients; i++ {
		dir[clientID(i)] = c.client.Addr()
	}
	for _, t := range endpoints {
		for l, a := range dir {
			t.SetPeer(l, a)
		}
	}

	for _, n := range c.nodes {
		if err := c.buildHost(n); err != nil {
			return c, fmt.Errorf("%s: %w", n.id, err)
		}
	}
	// cmd/shadowdb emits the boot directives before Start; here Start comes
	// first, so the timers Emit arms are ordered after Start's writes.
	for _, n := range c.nodes {
		n.host.Start()
		n.host.Emit(n.boot)
	}
	return c, nil
}

func clientID(i int) msg.Loc { return msg.Loc(fmt.Sprintf("c%d", i)) }

func isBcast(id msg.Loc) bool { return id[0] == 'b' }

// buildHost mirrors cmd/shadowdb's buildHost for the roles broadcast,
// smr and pbr with a data-dir, no joiner, no admission control.
func (c *cluster) buildHost(n *node) error {
	var tr network.Transport = n.tcp
	var nt *nodeTrace
	if c.tr != nil {
		nt = c.tr.node(string(n.id))
		tr = tracedTransport{inner: n.tcp, nt: nt}
	}
	dir, err := store.NewDir(n.dir, fsyncPolicy)
	if err != nil {
		return err
	}
	prov := trackedDir{inner: dir, c: c, nt: nt}
	view := newView()

	var proc gpm.Process
	switch {
	case isBcast(n.id):
		cfg := broadcast.Config{
			Nodes: bcastLocs, Subscribers: replicaLocs,
			MaxBatch: batchSize, MaxDelay: batchDelay, Pipeline: pipeline,
			View:   view,
			Stable: mustOpen(prov, "seq"),
		}
		cfg.Modules = []broadcast.Module{broadcast.PaxosDynamic(pipeline, mustOpen(prov, "acc"), view)}
		proc = broadcast.Spec(cfg).Generator()(n.id)
	case c.w.mode == core.ModeSMR:
		r, err := c.newSMRReplica(n.id, prov, nt, view)
		if err != nil {
			return err
		}
		n.exec = r.Executor()
		proc = r
		n.boot = append(r.LeaseDirectives(), r.RecoveryDirectives()...)
	default:
		r, _, err := c.newPBRReplica(n.id, prov, nt)
		if err != nil {
			return err
		}
		n.exec = r.Executor()
		proc = r
		n.boot = r.Start()
	}
	if nt != nil {
		proc = &tracedProc{inner: proc, nt: nt, bcast: isBcast(n.id)}
	}
	n.host = runtime.NewHost(n.id, tr, proc)
	if n.exec != nil {
		n.host.OnStep = func(msg.Msg, []msg.Directive) { n.executed.Store(n.exec.Executed) }
	}
	return nil
}

// newDB opens a replica database and loads the workload's population.
func (c *cluster) newDB(id msg.Loc, populate bool) (*sqldb.DB, error) {
	db, err := sqldb.Open(engine + ":mem:" + string(id))
	if err != nil {
		return nil, err
	}
	if populate {
		if c.w.tpcc {
			err = tpcc.Setup(db, tpccScale)
		} else {
			err = core.BankSetup(db, bankRows)
		}
	}
	return db, err
}

func (c *cluster) registry(nt *nodeTrace) core.Registry {
	reg := core.BankRegistry()
	if c.w.tpcc {
		reg = tpcc.Registry(tpccScale)
	}
	if nt != nil {
		reg = tracedRegistry(reg, nt)
	}
	return reg
}

func (c *cluster) newSMRReplica(id msg.Loc, prov store.Provider, nt *nodeTrace, view *member.View) (*core.SMRReplica, error) {
	db, err := c.newDB(id, true)
	if err != nil {
		return nil, err
	}
	st, err := prov.Open("smr-" + string(id))
	if err != nil {
		return nil, err
	}
	r, err := core.NewDurableSMRReplica(id, db, c.registry(nt), st, replicaLocs)
	if err != nil {
		return nil, err
	}
	r.SetView(view)
	r.SetGroupCommit(groupCommit, 0)
	if c.w.lease {
		fast, reads := core.BankFastRegistry(), core.BankReadRegistry()
		if nt != nil {
			fast, reads = tracedFast(fast, nt), tracedReads(reads, nt)
		}
		r.Executor().Fast = fast
		r.EnableLease(core.LeaseConfig{Dur: leaseDur, Bcast: bcastLocs[0], Now: wallClock}, reads)
	}
	return r, nil
}

func (c *cluster) pbrDeployment() core.PBRDeployment {
	return core.PBRDeployment{
		Pool: replicaLocs, InitialMembers: pbrMembers,
		BcastNodes: bcastLocs, Timing: core.DefaultTiming(),
	}
}

// newPBRReplica also reports whether the replica came back from an
// existing store.
func (c *cluster) newPBRReplica(id msg.Loc, prov store.Provider, nt *nodeTrace) (*core.PBRReplica, bool, error) {
	spare := id != replicaLocs[0] && id != replicaLocs[1]
	db, err := c.newDB(id, !spare)
	if err != nil {
		return nil, false, err
	}
	st, err := prov.Open("pbr-" + string(id))
	if err != nil {
		return nil, false, err
	}
	return core.NewDurablePBRReplica(id, db, c.registry(nt), c.pbrDeployment(), st, core.DefaultSnapEvery)
}

// live returns the replicas that hold the database: all three under SMR,
// the two members under PBR (the spare stays empty).
func (c *cluster) live() []*node {
	reps := c.nodes[len(bcastLocs):]
	if c.w.mode == core.ModePBR {
		return reps[:pbrMembers]
	}
	return reps
}

// reopen restarts one closed replica from its data directory the way
// cmd/shadowdb restarts a node (populate, then restore over it) and
// returns the recovered database.
func (c *cluster) reopen(n *node) (*sqldb.DB, error) {
	dir, err := store.NewDir(n.dir, fsyncPolicy)
	if err != nil {
		return nil, err
	}
	prov := trackedDir{inner: dir, c: c}
	var exec *core.Executor
	var restored bool
	if c.w.mode == core.ModeSMR {
		r, err := c.newSMRReplica(n.id, prov, nil, newView())
		if err != nil {
			return nil, err
		}
		exec, restored = r.Executor(), r.Recovered()
	} else {
		r, ok, err := c.newPBRReplica(n.id, prov, nil)
		if err != nil {
			return nil, err
		}
		exec, restored = r.Executor(), ok
	}
	if !restored {
		return nil, fmt.Errorf("%s found no durable state in %s", n.id, n.dir)
	}
	return exec.DB, nil
}

// stop closes every host and endpoint; the data directories stay.
func (c *cluster) stop() {
	if c.client != nil {
		_ = c.client.Close()
	}
	for _, n := range c.nodes {
		if n.host != nil {
			_ = n.host.Close()
		} else {
			_ = n.tcp.Close()
		}
	}
}

// close stops the cluster, closes its stores and removes its data.
func (c *cluster) close() {
	c.stop()
	for _, st := range c.stables {
		_ = st.Close()
	}
	c.stables = nil
	_ = os.RemoveAll(c.root)
}
