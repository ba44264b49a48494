package deploy

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"time"

	"shadowdb/internal/bench/tpcc"
	"shadowdb/internal/core"
	"shadowdb/internal/flow"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/shard"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// Node is every setting of one server process. Each field is the flag
// RegisterFlags declares for it, and there is no other field: what a
// flight bundle records (Settings) is the whole deployment of the node.
type Node struct {
	ID, Role, Topology, Engine, Registry string
	Rows                                 int
	Spare                                bool
	Members                              int
	Batch                                int
	BatchDelay                           time.Duration
	Pipeline, Alpha                      int
	Module                               string
	Joiner                               bool
	DataDir, Fsync                       string
	Lease                                bool
	LeaseDur, MaxStale                   time.Duration
	MaxInflight                          int
	RetryBudget                          float64
	Admin                                string
	Trace, Check                         bool
	FaultPlan, LogLevel, FlightDir       string
}

// Default returns the settings a node runs under when no flag is given.
func Default() Node {
	return Node{
		Role: "pbr", Engine: "h2", Registry: "bank", Rows: 10_000, Members: 2,
		Alpha: 16, Module: "paxos", Fsync: "batch", LeaseDur: 2 * time.Second, LogLevel: "info",
	}
}

// RegisterFlags declares one flag per field on fs; a flag's default is
// the field's current value, so start from Default.
func (n *Node) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&n.ID, "id", n.ID, "this node's location id (must appear in the topology)")
	fs.StringVar(&n.Role, "role", n.Role, "pbr|smr|broadcast|shard|router; the id must match: r<n> for pbr/smr, b<n> for broadcast, s<k>b<i>/s<k>r<i> for shard, rt1 for router")
	fs.StringVar(&n.Topology, "topology", n.Topology, "epoch-stamped topology file (JSON {\"epoch\": N, \"nodes\": {id: host:port}})")
	fs.StringVar(&n.Engine, "engine", n.Engine, "database engine: h2|hsqldb|derby|mysql-mem|mysql-innodb")
	fs.StringVar(&n.Registry, "registry", n.Registry, "transaction registry: bank|tpcc")
	fs.IntVar(&n.Rows, "rows", n.Rows, "initial bank rows (bank registry, non-spare)")
	fs.BoolVar(&n.Spare, "spare", n.Spare, "start with an empty database (PBR spare)")
	fs.IntVar(&n.Members, "members", n.Members, "initial PBR configuration size")
	fs.IntVar(&n.Batch, "batch", n.Batch, "broadcast role: max messages per ordered batch (0 = unbatched)")
	fs.DurationVar(&n.BatchDelay, "batch-delay", n.BatchDelay, "broadcast role: max time a message may wait for its batch to fill (0 = cut eagerly)")
	fs.IntVar(&n.Pipeline, "pipeline", n.Pipeline, "broadcast role: max concurrent consensus instances (0 or 1 = stop-and-wait)")
	fs.IntVar(&n.Alpha, "alpha", n.Alpha, "membership: acceptor activation lag in slots; must be identical on every node (it is part of the derived epoch schedule) and exceed twice the sequencer's -pipeline window")
	fs.StringVar(&n.Module, "module", n.Module, "broadcast role: ordering module paxos|twothird (twothird: static membership, -data-dir covers the sequencer journal only)")
	fs.BoolVar(&n.Joiner, "joiner", n.Joiner, "broadcast|smr role: this node is joining a running cluster: excluded from its own initial epoch, passive until the ordered add command admits it")
	fs.StringVar(&n.DataDir, "data-dir", n.DataDir, "durable storage root: WAL + snapshots for this node's state, recovered on restart (empty = volatile); sharded roles use the per-shard layout <data-dir>/shard<k>/ and <data-dir>/router/")
	fs.StringVar(&n.Fsync, "fsync", n.Fsync, "WAL sync policy with -data-dir: always|batch|never")
	fs.BoolVar(&n.Lease, "lease", n.Lease, "smr role: enable lease-based local reads (DESIGN.md §13); must be set uniformly across the replica group, bank registry only")
	fs.DurationVar(&n.LeaseDur, "lease-dur", n.LeaseDur, "lease duration with -lease; the holder proposes renewals every third of it")
	fs.DurationVar(&n.MaxStale, "max-stale", n.MaxStale, "staleness bound for follower reads with -lease (0 = -lease-dur)")
	fs.IntVar(&n.MaxInflight, "max-inflight", n.MaxInflight, "admission bound (DESIGN.md §14): broadcast roles cap the sequencer's admission queue, the router role caps concurrent cross-shard transactions; excess work is answered with an explicit rejection. Also arms receive-side deadline enforcement on the transport. 0 = unbounded")
	fs.Float64Var(&n.RetryBudget, "retry-budget", n.RetryBudget, "router role: 2PC re-drive tokens per second (0 = unbounded)")
	fs.StringVar(&n.Admin, "admin", n.Admin, "admin HTTP address (metrics, trace, pprof), e.g. 127.0.0.1:7070")
	fs.BoolVar(&n.Trace, "trace", n.Trace, "start with causal trace recording enabled")
	fs.BoolVar(&n.Check, "check", n.Check, "run the online invariant checker, armed from these settings (turns tracing on); serves /checker and /spans on -admin")
	fs.StringVar(&n.FaultPlan, "fault-plan", n.FaultPlan, "JSON fault plan: inject its message faults, partitions, and crash (blackhole) windows on this node's transport")
	fs.StringVar(&n.LogLevel, "log-level", n.LogLevel, "structured log level: debug|info|warn|error|off")
	fs.StringVar(&n.FlightDir, "flight-dir", n.FlightDir, "postmortem bundle directory (default <data-dir>/flight when -data-dir is set; empty without it disables the recorder)")
}

// Settings returns every effective setting keyed by flag name — the
// deployment record a flight bundle carries. (Registering this copy
// makes its current values the flags' values.)
func (n Node) Settings() map[string]string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	n.RegisterFlags(fs)
	out := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { out[f.Name] = f.Value.String() })
	return out
}

// Role is what an id says its holder is, named by the id form.
type Role string

// The id classes; an id that names no member is a client entry.
const (
	RoleClient  Role = "client"
	RoleBcast   Role = "b<n>"
	RoleReplica Role = "r<n>"
	RoleShard   Role = "s<k>b<i> or s<k>r<i>"
	RoleRouter  Role = Role(shard.RouterLoc)
)

var flatRe = regexp.MustCompile(`^([br])\d+$`)

// RoleOf classifies an id. It is the only place the naming convention
// is read: a topology's quorums, replica pool and clients all follow
// from it, so a client listed as "bench" or a router listed as "rt1"
// is never mistaken for a member by its first letter.
func RoleOf(l msg.Loc) Role {
	if m := flatRe.FindStringSubmatch(string(l)); m != nil {
		if m[1] == "b" {
			return RoleBcast
		}
		return RoleReplica
	}
	if l == shard.RouterLoc {
		return RoleRouter
	}
	if _, _, ok := shard.IsShardLoc(l); ok {
		return RoleShard
	}
	return RoleClient
}

// idOf maps each -role to the id class its node must carry.
var idOf = map[string]Role{
	"pbr": RoleReplica, "smr": RoleReplica, "broadcast": RoleBcast, "shard": RoleShard, "router": RoleRouter,
}

// Cluster is what every node of one deployment shares, read once: the
// topology, the application its replicas run, the PBR failure-detection
// timing, and the clock. The binaries load it from the -topology file
// (Node.Load); the public API and the simulator build it in memory.
type Cluster struct {
	Topology member.Topology
	App      App
	Timing   core.Timing
	// Clock stamps leases, admission deadlines and the router's in-flight
	// bound; nil is the wall clock. The simulator passes its virtual one.
	Clock func() time.Duration
}

// now is the deployment clock.
func (c *Cluster) now() func() time.Duration {
	if c.Clock != nil {
		return c.Clock
	}
	return wallClock
}

// App is the application a deployment replicates: its procedures and the
// seed a non-spare replica starts from (nil seeds nothing).
type App struct {
	Procedures core.Registry
	Setup      func(*sqldb.DB) error
}

// Load reads what n's deployment shares: the topology file, the built-in
// application -registry and -rows select, and the default timing.
func (n Node) Load() (*Cluster, error) {
	topo, err := loadTopology(n.Topology)
	if err != nil {
		return nil, err
	}
	app := App{core.BankRegistry(), func(db *sqldb.DB) error { return core.BankSetup(db, n.Rows) }}
	if n.Registry == "tpcc" {
		sc := tpcc.Full()
		app = App{tpcc.Registry(sc), tpcc.SetupFunc(sc)}
	}
	return &Cluster{Topology: topo, App: app, Timing: core.DefaultTiming()}, nil
}

// loadTopology reads the topology file a -topology flag names.
func loadTopology(path string) (member.Topology, error) {
	if path == "" {
		return member.Topology{}, errors.New("missing -topology")
	}
	return member.LoadTopology(path)
}

// members is a topology's ids split by role.
type members struct {
	// replicas and bcast are the r<n> and b<n> ids in numeric order.
	replicas, bcast []msg.Loc
	// shards is the validated sharded member list (roles shard, router).
	shards *shard.Topology
}

// members splits the topology's ids by role.
func (c *Cluster) members() *members {
	m := &members{}
	for _, id := range c.Topology.IDs() {
		switch l := msg.Loc(id); RoleOf(l) {
		case RoleBcast:
			m.bcast = append(m.bcast, l)
		case RoleReplica:
			m.replicas = append(m.replicas, l)
		}
	}
	// r2 before r10: the pool order decides PBR's initial members.
	byNumber := func(a, b msg.Loc) int { return cmp.Or(cmp.Compare(len(a), len(b)), cmp.Compare(a, b)) }
	slices.SortFunc(m.bcast, byNumber)
	slices.SortFunc(m.replicas, byNumber)
	return m
}

// ordered reports whether the node runs under the membership view: the
// broadcast and smr roles, except under the statically configured
// twothird module.
func (n Node) ordered() bool {
	return (n.Role == "broadcast" || n.Role == "smr") && n.Module != "twothird"
}

// Validate reports the first reason these settings cannot be run as
// given. It reads the topology file and creates the data directory, and
// has no other effect.
func (n Node) Validate() error {
	cl, err := n.Load()
	if err == nil {
		_, err = n.check(cl)
	}
	return err
}

// check validates the settings against each other and against cl, and
// splits cl's topology by role.
func (n Node) check(cl *Cluster) (*members, error) {
	want, ok := idOf[n.Role]
	sharded := want == RoleShard || want == RoleRouter
	switch {
	case n.ID == "":
		return nil, errors.New("missing -id")
	case !ok:
		return nil, fmt.Errorf("unknown -role %q (pbr|smr|broadcast|shard|router)", n.Role)
	case RoleOf(msg.Loc(n.ID)) != want:
		return nil, fmt.Errorf("-role %s requires an id of the form %s, got %q", n.Role, want, n.ID)
	case n.Registry != "bank" && n.Registry != "tpcc":
		return nil, fmt.Errorf("unknown -registry %q (bank|tpcc)", n.Registry)
	case n.Module != "paxos" && n.Module != "twothird":
		return nil, fmt.Errorf("unknown -module %q (paxos|twothird)", n.Module)
	case n.Module == "twothird" && n.Role != "broadcast":
		return nil, fmt.Errorf("-module twothird applies to -role broadcast only (got -role %s)", n.Role)
	case n.Joiner && n.Role != "broadcast" && n.Role != "smr":
		return nil, fmt.Errorf("-joiner applies to -role broadcast|smr only (got -role %s): other roles have no ordered membership to join", n.Role)
	case n.Joiner && n.Module == "twothird":
		return nil, errors.New("-joiner needs -module paxos: the twothird module runs a static member list")
	case n.Lease && n.Role != "smr":
		return nil, fmt.Errorf("-lease applies to -role smr only (got -role %s)", n.Role)
	case n.Lease && n.Registry != "bank":
		return nil, fmt.Errorf("-lease serves the bank read registry only (got -registry %q)", n.Registry)
	case sharded && n.Registry != "bank":
		return nil, fmt.Errorf("the sharded deployment supports the bank registry only (got -registry %q)", n.Registry)
	case n.ordered() && n.Alpha <= 2*n.Pipeline:
		// Alpha is part of the schedule every node derives independently;
		// it is a flag (not derived from -pipeline) because replicas do
		// not know the sequencer's window.
		return nil, fmt.Errorf("-alpha %d must exceed twice the -pipeline window %d", n.Alpha, n.Pipeline)
	}
	if _, ok := sqldb.Engines()[strings.ToLower(n.Engine)]; !ok {
		return nil, fmt.Errorf("unknown -engine %q", n.Engine)
	}
	if _, err := obs.ParseLevel(n.LogLevel); err != nil {
		return nil, err
	}
	if _, ok := cl.Topology.Nodes[n.ID]; !ok {
		return nil, fmt.Errorf("id %q not in topology %s", n.ID, n.Topology)
	}
	m := cl.members()
	if n.Lease && len(m.bcast) == 0 {
		return nil, errors.New("-lease requires broadcast nodes in the topology")
	}
	if sharded {
		// The whole member list is validated before anything opens: a
		// malformed directory must be a startup error, not a late panic.
		var err error
		if m.shards, err = shard.FromDirectory(cl.Topology.IDs()); err != nil {
			return nil, err
		}
	}
	if _, err := n.provider(); err != nil {
		return nil, err
	}
	return m, nil
}

// provider creates the node's data directory (no store in it is opened)
// and returns its store provider; nil without -data-dir. Sharded members
// store under the per-shard layout so several members can share one
// -data-dir root on the same host.
func (n Node) provider() (store.Provider, error) {
	pol, err := store.ParsePolicy(n.Fsync)
	if err != nil || n.DataDir == "" {
		return nil, err
	}
	root := n.DataDir
	switch n.Role {
	case "router":
		root = filepath.Join(root, shard.RouterSubdir)
	case "shard":
		k, _, _ := shard.IsShardLoc(msg.Loc(n.ID))
		root = filepath.Join(root, shard.DataSubdir(k))
	}
	return store.NewDir(root, pol)
}

// View returns a fresh copy of cl's initial membership epoch for a node
// under dynamic membership, nil for every other node. A joiner excludes
// itself: until the ordered add command derives the epoch that admits
// it, it is not a member — merely a process the members can already dial.
func (n Node) View(cl *Cluster) (*member.View, error) {
	m, err := n.check(cl)
	if err != nil || !n.ordered() {
		return nil, err
	}
	return member.NewView(n.initial(m), n.Alpha), nil
}

// initial is the membership epoch a node under dynamic membership starts
// from: the topology's broadcast and replica ids, less the node itself
// when it joins.
func (n Node) initial(m *members) member.Config {
	initial := member.Config{Bcast: m.bcast, Replicas: m.replicas}
	if n.Joiner {
		self := func(l msg.Loc) bool { return l == msg.Loc(n.ID) }
		initial.Bcast = slices.DeleteFunc(slices.Clone(m.bcast), self)
		initial.Replicas = slices.DeleteFunc(slices.Clone(m.replicas), self)
	}
	return initial
}

// Facts are the deployment facts the online checker needs, read from the
// settings Settings records: the lease window, the initial epoch as View
// builds it from cl (unknown when cl is nil), and the bound the
// node's admission queue reports under -max-inflight — a sequencer's is
// flow.NewQueue's, the router's keeps a control slot above the limit
// (shard.NewRouter).
func (n Node) Facts(cl *Cluster) dist.Facts {
	var f dist.Facts
	if n.Lease {
		f.LeaseDur, f.MaxStale = n.LeaseDur, n.MaxStale
	}
	if n.ordered() && cl != nil {
		f.Initial, f.Alpha = n.initial(cl.members()), n.Alpha
	}
	if n.MaxInflight > 0 {
		f.MaxQueue = flow.NewQueue(n.MaxInflight).Cap()
		if n.Role == "router" {
			f.MaxQueue = max(n.MaxInflight, 2) + 1
		}
	}
	return f
}
