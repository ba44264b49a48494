// Command shadowdb runs one node of a ShadowDB deployment over TCP: a
// PBR/SMR database replica, a total-order-broadcast service node, a
// sharded-deployment member, or the shard router. It also carries the
// membership admin verbs (join, leave, status) that drive a running
// cluster through ordered configuration epochs.
//
// The cluster is described by an epoch-stamped topology file — JSON
// {"epoch": N, "nodes": {"id": "host:port", ...}} — instead of a flag
// per node list. Example three-machine SMR deployment plus broadcast
// service (each command on its own machine or terminal):
//
//	shadowdb -id b1 -role broadcast -topology cluster.json
//	shadowdb -id b2 -role broadcast -topology cluster.json
//	shadowdb -id b3 -role broadcast -topology cluster.json
//	shadowdb -id r1 -role smr -engine h2     -topology cluster.json -data-dir /var/sdb/r1
//	shadowdb -id r2 -role smr -engine hsqldb -topology cluster.json -data-dir /var/sdb/r2
//	shadowdb -id r3 -role smr -engine derby  -topology cluster.json -data-dir /var/sdb/r3
//
// Use -registry tpcc for the TPC-C procedures instead of the bank ones.
//
// Membership changes are ordered through the broadcast like any
// transaction. To grow the cluster, start the new node with -joiner
// (it parks deliveries until the ordered add command admits it and a
// bootstrap snapshot arrives), then propose the change through any
// running node's admin endpoint:
//
//	shadowdb -id r4 -role smr -topology cluster.json -joiner -data-dir /var/sdb/r4
//	shadowdb join  -node r4 -addr host4:7001 -admin-url http://host1:7070 -topology cluster.json
//	shadowdb leave -node r2                  -admin-url http://host1:7070 -topology cluster.json
//	shadowdb status -admin-url http://host1:7070
//
// join/leave re-stamp the local topology file with the next epoch, and
// every running node re-stamps its own copy when the ordered command
// reaches it — a restart then boots from the newest epoch it saw.
//
// Sharded deployment (bank registry): members follow the s<k>b<i> /
// s<k>r<i> naming, the router is rt1, and every member runs -role shard
// except the router:
//
//	shadowdb -id s0b1 -role shard  -topology cluster.json -data-dir /var/shadowdb
//	shadowdb -id s0r1 -role shard  -topology cluster.json
//	shadowdb -id s1b1 -role shard  -topology cluster.json -data-dir /var/shadowdb
//	shadowdb -id s1r1 -role shard  -topology cluster.json
//	shadowdb -id rt1  -role router -topology cluster.json -data-dir /var/shadowdb
//
// The member list is validated up front (contiguous shard indices, equal
// per-shard counts, exactly one router) and a malformed topology is a
// startup error, not a late panic. With -data-dir, each process keeps
// its durable state in a per-role subtree of the shared path layout:
// shard k's broadcast state under <data-dir>/shard<k>/ and the router's
// 2PC journal under <data-dir>/router/ — so one host can carry several
// members without their WALs colliding.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"shadowdb/internal/bench/tpcc"
	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/consensus/twothird"
	"shadowdb/internal/core"
	"shadowdb/internal/fault"
	"shadowdb/internal/flow"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/runtime"
	"shadowdb/internal/shard"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// lg is the process logger; records land in the obs log ring (served
// on /logs, dumped into postmortem bundles) and stream to stderr.
var lg = obs.L("shadowdb")

func main() {
	// The membership admin verbs run as subcommands; everything else is
	// the server path.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "join", "leave":
			os.Exit(runChangeVerb(os.Args[1], os.Args[2:]))
		case "status":
			os.Exit(runStatusVerb(os.Args[2:]))
		}
	}
	os.Exit(run())
}

func run() int {
	id := flag.String("id", "", "this node's location id (must appear in the topology)")
	role := flag.String("role", "pbr", "pbr|smr|broadcast|shard|router (shard/router use the s<k>b<i>/s<k>r<i>/rt1 naming)")
	topology := flag.String("topology", "", "epoch-stamped topology file (JSON {\"epoch\": N, \"nodes\": {id: host:port}})")
	engine := flag.String("engine", "h2", "database engine: h2|hsqldb|derby|mysql-mem|mysql-innodb")
	registry := flag.String("registry", "bank", "transaction registry: bank|tpcc")
	rows := flag.Int("rows", 10_000, "initial bank rows (bank registry, non-spare)")
	spare := flag.Bool("spare", false, "start with an empty database (PBR spare)")
	members := flag.Int("members", 2, "initial PBR configuration size")
	batch := flag.Int("batch", 0, "broadcast role: max messages per ordered batch (0 = unbatched)")
	batchDelay := flag.Duration("batch-delay", 0, "broadcast role: max time a message may wait for its batch to fill (0 = cut eagerly)")
	pipeline := flag.Int("pipeline", 0, "broadcast role: max concurrent consensus instances (0 or 1 = stop-and-wait)")
	alpha := flag.Int("alpha", 16, "membership: acceptor activation lag in slots; must be identical on every node (it is part of the derived epoch schedule) and exceed the sequencer's -pipeline window")
	joiner := flag.Bool("joiner", false, "this node is joining a running cluster: excluded from its own initial epoch, passive until the ordered add command admits it")
	dataDir := flag.String("data-dir", "", "durable storage root: WAL + snapshots for this node's state, recovered on restart (empty = volatile); sharded roles use the per-shard layout <data-dir>/shard<k>/ and <data-dir>/router/")
	fsync := flag.String("fsync", "batch", "WAL sync policy with -data-dir: always|batch|never")
	lease := flag.Bool("lease", false, "smr role: enable lease-based local reads (DESIGN.md §13); must be set uniformly across the replica group, bank registry only")
	leaseDur := flag.Duration("lease-dur", 2*time.Second, "lease duration with -lease; the holder proposes renewals every third of it")
	maxStale := flag.Duration("max-stale", 0, "staleness bound for follower reads with -lease (0 = -lease-dur)")
	admin := flag.String("admin", "", "admin HTTP address (metrics, trace, pprof), e.g. 127.0.0.1:7070")
	trace := flag.Bool("trace", false, "start with causal trace recording enabled")
	check := flag.Bool("check", false, "run the online invariant checker; serves /checker and /spans on -admin")
	faultPlan := flag.String("fault-plan", "", "JSON fault plan: inject its message faults, partitions, and crash (blackhole) windows on this node's transport")
	logLevel := flag.String("log-level", "info", "structured log level: debug|info|warn|error|off")
	flightDir := flag.String("flight-dir", "", "postmortem bundle directory (default <data-dir>/flight when -data-dir is set; empty without it disables the recorder)")
	maxInflight := flag.Int("max-inflight", 0, "admission bound (DESIGN.md §14): broadcast roles cap the sequencer's admission queue, the router role caps concurrent cross-shard transactions; excess work is answered with an explicit rejection. Also arms receive-side deadline enforcement on the transport. 0 = unbounded")
	retryBudget := flag.Float64("retry-budget", 0, "router role: 2PC re-drive tokens per second (0 = unbounded)")
	flag.Parse()

	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	obs.Default.SetLogLevel(lv)
	obs.Default.SetLogStream(os.Stderr)

	if *topology == "" {
		fmt.Fprintln(os.Stderr, "missing -topology")
		return 2
	}
	topo, err := member.LoadTopology(*topology)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	dir := topo.Directory()
	if *id == "" {
		fmt.Fprintln(os.Stderr, "missing -id")
		return 2
	}
	if _, ok := dir[msg.Loc(*id)]; !ok {
		fmt.Fprintf(os.Stderr, "id %q not in topology %s\n", *id, *topology)
		return 2
	}
	obs.Default.SetNode(msg.Loc(*id))

	// The consensus types ride along for the flight recorder: bundle
	// dumps gob-encode the trace ring, which carries their bodies.
	core.RegisterWireTypes()
	broadcast.RegisterWireTypes()
	shard.RegisterWireTypes()
	synod.RegisterWireTypes()
	twothird.RegisterWireTypes()

	// Sharded roles validate the whole member list before anything opens
	// a socket or a store: a malformed directory must be a startup error.
	var top *shard.Topology
	if *role == "shard" || *role == "router" {
		ids := make([]string, 0, len(dir))
		for l := range dir {
			ids = append(ids, string(l))
		}
		if top, err = shard.FromDirectory(ids); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		switch *role {
		case "router":
			if msg.Loc(*id) != shard.RouterLoc {
				fmt.Fprintf(os.Stderr, "-role router requires -id %s, got %q\n", shard.RouterLoc, *id)
				return 2
			}
		case "shard":
			if _, _, ok := shard.IsShardLoc(msg.Loc(*id)); !ok {
				fmt.Fprintf(os.Stderr, "-role shard requires an s<k>b<i> or s<k>r<i> id, got %q\n", *id)
				return 2
			}
		}
	}

	var tr network.Transport
	tcp, err := network.NewTCP(msg.Loc(*id), dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	tr = tcp
	if *maxInflight > 0 {
		// With admission control on, expired work is refused at every
		// hop: envelopes whose deadline already passed are dropped on
		// receive before they cost protocol work.
		tcp.EnforceDeadlines(func() int64 { return time.Now().UnixNano() })
	}
	if *faultPlan != "" {
		plan, err := fault.Load(*faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		// Faults ride the node's wall clock from process start. Crash
		// windows become blackholes: a real process cannot be crashed
		// from inside, but cutting all of its traffic is the same fault
		// to the rest of the cluster.
		inj := fault.NewInjector(plan, nil)
		inj.SetObs(obs.Default)
		tr = fault.Wrap(tcp, msg.Loc(*id), inj)
		stop := fault.StartNemesis(inj)
		defer stop()
		lg.Infof("fault plan %s armed: %d rules, %d partitions, %d crashes (seed %d)",
			*faultPlan, len(plan.Rules), len(plan.Partitions), len(plan.Crashes), plan.Seed)
	}
	defer func() { _ = tr.Close() }()

	var prov store.Provider
	if *dataDir != "" {
		pol, err := store.ParsePolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		// Sharded members store under the per-shard layout so several
		// members can share one -data-dir root on the same host.
		root := *dataDir
		switch *role {
		case "router":
			root = filepath.Join(root, shard.RouterSubdir)
		case "shard":
			k, _, _ := shard.IsShardLoc(msg.Loc(*id))
			root = filepath.Join(root, shard.DataSubdir(k))
		}
		if prov, err = store.NewDir(root, pol); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	replicaLocs, bcastLocs := splitRoles(dir)

	// Roles under dynamic membership share one epoch view. A joiner
	// excludes itself from the initial epoch: until the ordered add
	// command derives the epoch that admits it, it is not a member —
	// merely a process the members can already dial.
	var view *member.View
	if *role == "broadcast" || *role == "smr" {
		initial := member.Config{Bcast: bcastLocs, Replicas: replicaLocs}
		if *joiner {
			initial.Bcast = without(initial.Bcast, msg.Loc(*id))
			initial.Replicas = without(initial.Replicas, msg.Loc(*id))
		}
		// Alpha is part of the schedule every node derives independently:
		// a per-node value would make two nodes disagree on when an epoch
		// activates, which is exactly what the checker's epoch-config
		// invariant flags. It is a flag (not derived from -pipeline)
		// because replicas do not know the sequencer's window.
		if *alpha <= 2**pipeline {
			fmt.Fprintf(os.Stderr, "-alpha %d must exceed twice the -pipeline window %d\n", *alpha, *pipeline)
			return 2
		}
		view = member.NewView(initial, *alpha)
		view.OnApply(func(cmd member.Command, cfg member.Config) {
			if cmd.Addr != "" && (cmd.Op == member.AddReplica || cmd.Op == member.AddAcceptor) {
				// The route travels with the ordered command: every node
				// learns the joiner's address exactly when it learns the
				// member.
				tcp.SetPeer(cmd.Node, cmd.Addr)
			}
			restampTopology(*topology, cmd, cfg)
			lg.Infof("membership epoch %d: %s %s (%s)", cfg.Epoch, cmd.Op, cmd.Node, cfg.Fingerprint())
		})
	}

	host, err := buildHost(buildConfig{
		id: msg.Loc(*id), role: *role, engine: *engine, registry: *registry,
		rows: *rows, spare: *spare, members: *members,
		batch: *batch, batchDelay: *batchDelay, pipeline: *pipeline,
		replicas: replicaLocs, bcast: bcastLocs, tr: tr, stable: prov, top: top,
		view: view, joiner: *joiner,
		lease: *lease, leaseDur: *leaseDur, maxStale: *maxStale,
		groupCommit: groupWindow(*dataDir, *fsync, *pipeline),
		maxInflight: *maxInflight, retryBudget: *retryBudget,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	host.Start()
	defer func() { _ = host.Close() }()
	if top != nil {
		lg.Infof("shadowdb %s (%s) listening on %s; %d shards, router=%v",
			*id, *role, tcp.Addr(), top.Shards, top.Routers[0])
	} else {
		lg.Infof("shadowdb %s (%s) listening on %s; epoch %d, replicas=%v broadcast=%v",
			*id, *role, tcp.Addr(), topo.Epoch, replicaLocs, bcastLocs)
	}

	if *trace {
		obs.Default.EnableTracing(true)
	}
	var checker *dist.Checker
	if *check {
		checker = dist.NewChecker()
		checker.SetGroupOf(shard.GroupOf)
		checker.Watch(obs.Default)
	}

	// The flight recorder dumps a postmortem bundle on checker violation,
	// panic, SIGQUIT, or POST /flight/dump. It defaults on whenever the
	// node has a data dir to keep evidence in.
	fdir := *flightDir
	if fdir == "" && *dataDir != "" {
		fdir = filepath.Join(*dataDir, "flight")
	}
	var rec *obs.Recorder
	if fdir != "" {
		if rec, err = obs.NewRecorder(obs.Default, fdir, msg.Loc(*id)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfgMap := map[string]string{
			"role": *role, "engine": *engine, "registry": *registry,
			"topology": *topology, "epoch": fmt.Sprint(topo.Epoch),
		}
		if *joiner {
			// Merge tooling baselines a joiner's checker at its bootstrap
			// slot instead of slot 0.
			cfgMap["joiner"] = "true"
		}
		rec.SetConfig(cfgMap)
		if checker != nil {
			rec.SetCheckerStatus(func() any { return checker.Status() })
			checker.OnViolation(func(v dist.Violation) {
				if path, err := rec.TryDump("violation-" + v.Property); err == nil && path != "" {
					lg.Errorf("checker violation %s: postmortem bundle at %s", v.Property, path)
				}
			})
		}
		defer rec.NotifySignals()()
		defer func() {
			if r := recover(); r != nil {
				rec.OnPanic()
				panic(r)
			}
		}()
		lg.Infof("flight recorder armed: bundles under %s", fdir)
	}

	if *admin != "" {
		var base http.Handler
		if checker != nil {
			base = dist.HandlerWith(obs.Default, checker, rec)
		} else {
			base = obs.HandlerWith(obs.Default, rec)
		}
		mux := http.NewServeMux()
		mux.Handle("/", base)
		extra := ""
		if checker != nil {
			extra = " /checker /spans"
		}
		if view != nil {
			// Membership admin: propose ordered configuration changes and
			// inspect the derived epoch schedule. The join/leave/status
			// verbs are clients of these endpoints.
			mux.Handle("/member/propose", proposeHandler(host, view))
			mux.Handle("/member/status", statusHandler(view))
			extra += " /member/status, POST /member/propose"
		}
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer func() { _ = srv.Close() }()
		lg.Infof("admin endpoint on http://%s (GET /metrics /logs /trace /trace.json%s, POST /trace/start /trace/stop /flight/dump, /debug/pprof/)", ln.Addr(), extra)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	lg.Infof("shutting down")
	return 0
}

type buildConfig struct {
	id         msg.Loc
	role       string
	engine     string
	registry   string
	rows       int
	spare      bool
	members    int
	batch      int
	batchDelay time.Duration
	pipeline   int
	replicas   []msg.Loc
	bcast      []msg.Loc
	tr         network.Transport
	// stable, when set, backs this node's state with WAL + snapshots
	// (recovered on restart); nil keeps the node volatile.
	stable store.Provider
	// top is the validated sharded topology (roles shard/router only).
	top *shard.Topology
	// view is the shared membership epoch schedule (roles broadcast/smr).
	view *member.View
	// joiner marks a node joining a running cluster: it stays passive
	// until the ordered add command admits it.
	joiner bool
	// lease enables lease-based local reads on SMR replicas; leaseDur
	// and maxStale parameterize the protocol (DESIGN.md §13).
	lease    bool
	leaseDur time.Duration
	maxStale time.Duration
	// groupCommit, when > 1, coalesces the SMR journal's fsyncs: acks
	// park until one fsync covers up to this many ack-bearing slots.
	groupCommit int
	// maxInflight, when > 0, arms admission control: the sequencer's
	// bounded admission queue (broadcast roles) or the router's bound on
	// concurrent cross-shard transactions. Excess work is answered with
	// an explicit flow.Reject instead of queueing without bound.
	maxInflight int
	// retryBudget, when > 0, is the router's 2PC re-drive token rate
	// per second (DESIGN.md §14): re-drives beyond the budget wait for
	// the next timer instead of amplifying an overload.
	retryBudget float64
}

// wallClock is the live deployment clock deadlines are stamped on and
// compared against: absolute wall nanoseconds, so every hop in the
// deployment reads a comparable value (NTP-grade skew tolerated —
// deadlines are hundreds of milliseconds, not microseconds).
func wallClock() time.Duration { return time.Duration(time.Now().UnixNano()) }

// groupWindow caps the SMR group-commit window: with a durable store
// under the batch sync policy, acks are parked until one fsync covers
// the slots the replica has in hand (DESIGN.md §8), at most this many.
// The cap tracks the sequencer's pipeline (concurrent slots arrive back
// to back) with a floor of 4.
func groupWindow(dataDir, fsync string, pipeline int) int {
	if dataDir == "" || fsync != "batch" {
		return 0
	}
	if pipeline > 4 {
		return pipeline
	}
	return 4
}

// enableLease wires lease-based local reads onto an SMR replica. Live
// processes use wall-clock Unix time as the lease clock: issue
// timestamps travel inside ordered renewals and are compared against
// the local clock, so validity tolerates NTP-grade skew — keep
// -lease-dur comfortably above the deployment's clock error bound.
func enableLease(r *core.SMRReplica, c buildConfig) error {
	if !c.lease {
		return nil
	}
	if c.registry != "bank" {
		return fmt.Errorf("-lease serves the bank read registry only (got -registry %q)", c.registry)
	}
	if len(c.bcast) == 0 {
		return fmt.Errorf("-lease requires broadcast nodes in the topology")
	}
	// The fast-path registry keeps the ordered apply loop on the same
	// allocation budget the readpath experiment certifies.
	r.Executor().Fast = core.BankFastRegistry()
	r.EnableLease(core.LeaseConfig{
		Dur: c.leaseDur, MaxStale: c.maxStale, Bcast: c.bcast[0],
		Now: func() time.Duration { return time.Duration(time.Now().UnixNano()) },
	}, core.BankReadRegistry())
	return nil
}

func buildHost(c buildConfig) (*runtime.Host, error) {
	reg := core.BankRegistry()
	setup := func(db *sqldb.DB) error { return core.BankSetup(db, c.rows) }
	if c.registry == "tpcc" {
		sc := tpcc.Full()
		reg = tpcc.Registry(sc)
		setup = tpcc.SetupFunc(sc)
	}
	switch c.role {
	case "broadcast":
		// Nodes is every broadcast process the topology can dial — the
		// view, not this list, decides which of them an instance's quorum
		// is drawn from, so a joiner can host its acceptor before its
		// epoch activates.
		cfg := broadcast.Config{
			Nodes: c.bcast, Subscribers: c.replicas,
			MaxBatch: c.batch, MaxDelay: c.batchDelay, Pipeline: c.pipeline,
			View: c.view,
		}
		if c.maxInflight > 0 {
			cfg.FlowLimit = c.maxInflight
			cfg.Classify = core.FlowClass
			cfg.FlowNow = wallClock
		}
		var stable func(msg.Loc) store.Stable
		if c.stable != nil {
			// Journal the sequencer's decided slots and the Synod
			// acceptors' promises; a restart resumes from both.
			cfg.Stable = c.openStable("seq")
			stable = c.openStable("acc")
		}
		// The dynamic module resolves acceptor sets per instance and the
		// Decide fan-out per decision through the view, so quorums switch
		// epochs atomically at their activation slot.
		cfg.Modules = []broadcast.Module{broadcast.PaxosDynamic(c.pipeline, stable, c.view)}
		return runtime.NewHost(c.id, c.tr, broadcast.Spec(cfg).Generator()(c.id)), nil
	case "pbr":
		db, err := sqldb.Open(c.engine + ":mem:" + string(c.id))
		if err != nil {
			return nil, err
		}
		if !c.spare {
			// Seeded before replica construction: with a fresh store the
			// baseline snapshot must capture the initial rows; with an
			// existing store, recovery restores over this population.
			if err := setup(db); err != nil {
				return nil, err
			}
		}
		dep := core.PBRDeployment{
			Pool:           c.replicas,
			InitialMembers: c.members,
			BcastNodes:     c.bcast,
			Timing:         core.DefaultTiming(),
		}
		var r *core.PBRReplica
		if c.stable != nil {
			st, err := c.stable.Open("pbr-" + string(c.id))
			if err != nil {
				return nil, err
			}
			var restored bool
			if r, restored, err = core.NewDurablePBRReplica(c.id, db, reg, dep, st, core.DefaultSnapEvery); err != nil {
				return nil, err
			}
			if restored {
				lg.Infof("%s: recovered durable state from %s", c.id, "pbr-"+string(c.id))
			}
		} else {
			r = core.NewPBRReplica(c.id, db, reg, dep)
		}
		h := runtime.NewHost(c.id, c.tr, r)
		h.Emit(r.Start())
		return h, nil
	case "smr":
		db, err := sqldb.Open(c.engine + ":mem:" + string(c.id))
		if err != nil {
			return nil, err
		}
		if !c.joiner {
			// A joiner's database stays empty: schema and rows arrive with
			// the bootstrap state transfer.
			if err := setup(db); err != nil {
				return nil, err
			}
		}
		var r *core.SMRReplica
		if c.stable == nil {
			if c.joiner {
				r = core.NewJoiningSMRReplica(c.id, db, reg)
			} else {
				r = core.NewSMRReplica(c.id, db, reg)
			}
			r.SetView(c.view)
			if err := enableLease(r, c); err != nil {
				return nil, err
			}
			h := runtime.NewHost(c.id, c.tr, r)
			h.Emit(r.LeaseDirectives())
			return h, nil
		}
		st, err := c.stable.Open("smr-" + string(c.id))
		if err != nil {
			return nil, err
		}
		if c.joiner {
			r, err = core.NewJoiningDurableSMRReplica(c.id, db, reg, st, c.replicas)
		} else {
			r, err = core.NewDurableSMRReplica(c.id, db, reg, st, c.replicas)
		}
		if err != nil {
			return nil, err
		}
		r.SetView(c.view)
		if c.groupCommit > 1 {
			r.SetGroupCommit(c.groupCommit, 0)
		}
		if err := enableLease(r, c); err != nil {
			return nil, err
		}
		h := runtime.NewHost(c.id, c.tr, r)
		h.Emit(r.LeaseDirectives())
		if r.Recovered() {
			lg.Infof("%s: recovered durable state through slot %d; requesting downtime delta from peers",
				c.id, r.LastSlot())
		}
		if !c.joiner || r.Recovered() {
			// Ask the peers for anything ordered while this node was down
			// (an empty delta comes back on a fresh, in-sync group). A
			// fresh joiner instead waits for the ordered add command to
			// trigger the bootstrap push.
			h.Emit(r.RecoveryDirectives())
		}
		return h, nil
	case "shard":
		if c.registry != "bank" {
			return nil, fmt.Errorf("the sharded deployment supports the bank registry only (got %q)", c.registry)
		}
		k, part, _ := shard.IsShardLoc(c.id)
		if part == 'b' {
			cfg := broadcast.Config{
				Nodes: c.top.Bcast[k], Subscribers: c.top.Replicas[k],
				MaxBatch: c.batch, MaxDelay: c.batchDelay, Pipeline: c.pipeline,
			}
			if c.maxInflight > 0 {
				cfg.FlowLimit = c.maxInflight
				cfg.Classify = core.FlowClass
				cfg.FlowNow = wallClock
			}
			if c.stable != nil {
				cfg.Stable = c.openStable("seq")
				cfg.Modules = []broadcast.Module{broadcast.PaxosDurable(c.pipeline, c.openStable("acc"))}
			}
			return runtime.NewHost(c.id, c.tr, broadcast.Spec(cfg).Generator()(c.id)), nil
		}
		db, err := sqldb.Open(c.engine + ":mem:" + string(c.id))
		if err != nil {
			return nil, err
		}
		// Every shard seeds the full bank; placement decides which rows a
		// shard ever mutates, so unowned rows just stay at their seed value.
		if err := setup(db); err != nil {
			return nil, err
		}
		return runtime.NewHost(c.id, c.tr, shard.NewReplica(c.id, k, db, reg, shard.Bank())), nil
	case "router":
		if c.registry != "bank" {
			return nil, fmt.Errorf("the sharded deployment supports the bank registry only (got %q)", c.registry)
		}
		rcfg := shard.Config{
			Slf:    c.id,
			Part:   shard.NewHash(c.top.Shards),
			App:    shard.Bank(),
			Shards: c.top.Bcast,
		}
		if c.maxInflight > 0 || c.retryBudget > 0 {
			rcfg.MaxInflight = c.maxInflight
			rcfg.Now = wallClock
			if c.retryBudget > 0 {
				rcfg.Budget = &flow.RetryBudget{Rate: c.retryBudget}
			}
		}
		if c.stable != nil {
			st, err := c.stable.Open("journal")
			if err != nil {
				return nil, err
			}
			rcfg.Stable = st
		}
		rt, err := shard.NewRouter(rcfg)
		if err != nil {
			return nil, err
		}
		h := runtime.NewHost(c.id, c.tr, rt)
		if open := rt.Recovered(); len(open) > 0 {
			lg.Infof("%s: journal recovered %d open cross-shard transaction(s); re-driving %v",
				c.id, len(open), open)
		}
		h.Emit(rt.RecoveryDirectives())
		return h, nil
	default:
		return nil, fmt.Errorf("unknown role %q", c.role)
	}
}

// openStable maps component locations to named stores under the node's
// data directory ("seq-b1", "acc-b1").
func (c buildConfig) openStable(prefix string) func(msg.Loc) store.Stable {
	return func(l msg.Loc) store.Stable {
		st, err := c.stable.Open(prefix + "-" + string(l))
		if err != nil {
			// Called from inside process construction, where there is no
			// error path; a data directory that cannot be opened is fatal.
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return st
	}
}

// without returns ls minus l.
func without(ls []msg.Loc, l msg.Loc) []msg.Loc {
	out := make([]msg.Loc, 0, len(ls))
	for _, x := range ls {
		if x != l {
			out = append(out, x)
		}
	}
	return out
}

// splitRoles partitions the directory into replica ids (r*) and broadcast
// ids (b*), sorted for deterministic configuration.
func splitRoles(dir map[msg.Loc]string) (replicas, bcast []msg.Loc) {
	for l := range dir {
		switch {
		case strings.HasPrefix(string(l), "b"):
			bcast = append(bcast, l)
		case strings.HasPrefix(string(l), "r"):
			replicas = append(replicas, l)
		}
	}
	sort.Slice(replicas, func(i, j int) bool { return replicas[i] < replicas[j] })
	sort.Slice(bcast, func(i, j int) bool { return bcast[i] < bcast[j] })
	return replicas, bcast
}
