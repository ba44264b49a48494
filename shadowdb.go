// Package shadowdb is the public API of this repository: an embeddable,
// replicated, strictly serializable SQL database in the architecture of
// the paper "Developing Correctly Replicated Databases Using Formal
// Tools" (DSN 2014).
//
// A Cluster bundles database replicas, a Paxos-backed total order
// broadcast service, and either primary-backup (PBR) or state machine
// replication (SMR), all running in-process over the channel network.
// Its nodes are the ones cmd/shadowdb runs over TCP: each is built by
// internal/deploy (deploy.Node.Process) from the same settings, so the
// examples and tests run the shipped wiring. Transactions are typed,
// deterministic procedures registered by name; clients get exactly-once
// execution under retry and strict serializability.
//
//	cluster, err := shadowdb.Open(shadowdb.Config{
//	    Replication: shadowdb.SMR,
//	    Procedures:  myRegistry,
//	    Setup:       mySchemaSetup,
//	})
//	defer cluster.Close()
//	cli := cluster.Client()
//	res, err := cli.Exec("deposit", int64(42), int64(10))
//
// The internal packages expose the layers this API is built from: the
// LoE specification combinators (internal/loe), the term interpreter and
// optimizer (internal/interp), the verified-by-checking consensus
// protocols (internal/consensus/...), the broadcast service
// (internal/broadcast), the replication core (internal/core), and the
// per-node construction (internal/deploy).
package shadowdb

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/obs"
	"shadowdb/internal/runtime"
	"shadowdb/internal/sqldb"
)

// Mode selects the replication protocol.
type Mode int

// The replication protocols of the paper.
const (
	// PBR is primary-backup replication: a hand-written normal case with
	// recovery driven by the total order broadcast service.
	PBR Mode = iota + 1
	// SMR is state machine replication: every transaction is ordered by
	// the broadcast service and executed by every replica.
	SMR
)

// Registry maps transaction type names to procedures; see core.Procedure.
type Registry = core.Registry

// Procedure is a deterministic transaction body.
type Procedure = core.Procedure

// ProcResult is a procedure's result set.
type ProcResult = core.ProcResult

// ErrAbort requests a deterministic transaction abort from a procedure.
var ErrAbort = core.ErrAbort

// DB is the SQL database handle procedures operate on.
type DB = sqldb.DB

// Result is a completed transaction's outcome.
type Result struct {
	// Aborted reports a deterministic abort (not an error).
	Aborted bool
	// Cols and Rows hold the procedure's result set.
	Cols []string
	Rows [][]any
}

// Config describes a cluster.
type Config struct {
	// Replication selects PBR or SMR; the default is PBR.
	Replication Mode
	// Replicas is the number of database replicas; default 3 (for PBR:
	// primary + backup + spare).
	Replicas int
	// Engines lists the database engine per replica ("h2", "hsqldb",
	// "derby", ...). Shorter lists repeat the last entry; empty means
	// the paper's diverse deployment h2/hsqldb/derby.
	Engines []string
	// Procedures is the transaction registry shared by all replicas.
	Procedures Registry
	// Setup installs the initial schema and population on every replica
	// that starts with data.
	Setup func(*DB) error
	// Timing overrides the failure-detection knobs (zero = defaults).
	Timing core.Timing
	// Obs receives the cluster's runtime metrics and causal trace events.
	// Nil means the process-wide obs.Default; obs.Nop() disables
	// collection entirely (one atomic load per step on the hot path).
	Obs *obs.Obs
}

// Errors of the public API.
var (
	// ErrTimeout is returned when a transaction gets no answer in time.
	ErrTimeout = errors.New("shadowdb: transaction timed out")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("shadowdb: cluster closed")
)

// Cluster is a running in-process deployment. Each node runs on its own
// runtime.Host, whose lock is the only one its process has, so the
// nodes step concurrently, as they do as separate cmd/shadowdb
// processes.
type Cluster struct {
	cfg    Config
	shared *deploy.Cluster
	hub    *network.Hub
	hosts  []*runtime.Host
	// replicas are the replicas' hosts and dbs their databases, r1 first.
	replicas []*runtime.Host
	dbs      []*DB

	mu      sync.Mutex
	clients int
	closed  bool
}

// role is the -role a replica runs under m, and the -mode of its clients.
func (m Mode) role() string { return map[Mode]string{PBR: "pbr", SMR: "smr"}[m] }

// Open starts a cluster: three broadcast service nodes b1..b3 and the
// replicas r1..rN, each built as cmd/shadowdb builds it.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Replication == 0 {
		cfg.Replication = PBR
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if len(cfg.Engines) == 0 {
		cfg.Engines = []string{"h2", "hsqldb", "derby"}
	}
	if cfg.Procedures == nil {
		return nil, fmt.Errorf("shadowdb: Config.Procedures is required")
	}
	if cfg.Replication.role() == "" {
		return nil, fmt.Errorf("shadowdb: unknown replication mode %d", cfg.Replication)
	}
	if cfg.Timing == (core.Timing{}) {
		cfg.Timing = core.Timing{
			HeartbeatEvery: 50 * time.Millisecond,
			SuspectAfter:   500 * time.Millisecond,
			ClientRetry:    500 * time.Millisecond,
		}
	}

	// The hub routes by id, so each node's topology address is its id.
	shared := &deploy.Cluster{
		Topology: member.Topology{Nodes: map[string]string{}},
		App:      deploy.App{Procedures: cfg.Procedures, Setup: cfg.Setup},
		Timing:   cfg.Timing,
	}
	node := func(id, role string) deploy.Node {
		n := deploy.Default()
		n.ID, n.Role = id, role
		shared.Topology.Nodes[id] = id
		return n
	}
	nodes := []deploy.Node{node("b1", "broadcast"), node("b2", "broadcast"), node("b3", "broadcast")}
	for i := 0; i < cfg.Replicas; i++ {
		n := node(fmt.Sprintf("r%d", i+1), cfg.Replication.role())
		n.Engine = cfg.Engines[min(i, len(cfg.Engines)-1)]
		// Under PBR the replicas past the initial members are spares.
		n.Spare = cfg.Replication == PBR && i >= n.Members
		nodes = append(nodes, n)
	}
	c := &Cluster{cfg: cfg, shared: shared, hub: network.NewHub()}
	for _, n := range nodes {
		if err := c.host(n); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("shadowdb: %s: %w", n.ID, err)
		}
	}
	return c, nil
}

// host builds n's process and runs it on the hub.
func (c *Cluster) host(n deploy.Node) error {
	view, err := n.View(c.shared)
	if err != nil {
		return err
	}
	proc, boot, err := n.Process(c.shared, nil, view)
	if err != nil {
		return err
	}
	tr, err := c.hub.Register(msg.Loc(n.ID))
	if err != nil {
		return err
	}
	h := runtime.NewHost(msg.Loc(n.ID), tr, proc)
	if c.cfg.Obs != nil {
		h.Obs = c.cfg.Obs
	}
	h.Emit(boot)
	h.Start()
	c.hosts = append(c.hosts, h)
	if r, ok := proc.(interface{ Executor() *core.Executor }); ok {
		c.replicas = append(c.replicas, h)
		c.dbs = append(c.dbs, r.Executor().DB)
	}
	return nil
}

// Close stops the cluster.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	for _, h := range c.hosts {
		_ = h.Close()
	}
	return c.hub.Close()
}

// Crash kills replica i (0-based), dropping all its traffic — for
// exercising recovery.
func (c *Cluster) Crash(i int) error {
	loc := msg.Loc(fmt.Sprintf("r%d", i+1))
	for _, h := range c.hosts {
		if h.Self() == loc {
			return h.Close()
		}
	}
	return fmt.Errorf("shadowdb: no replica %d", i)
}

// ReplicaDB exposes replica i's database for inspection (tests, audits).
// The returned handle is shared with the running replica, and locks
// itself; use read-only.
func (c *Cluster) ReplicaDB(i int) (*DB, error) {
	if i < 0 || i >= len(c.dbs) {
		return nil, fmt.Errorf("shadowdb: no replica %d", i)
	}
	return c.dbs[i], nil
}

// Client creates a synchronous client for the cluster: the session
// cmd/shadowdb-client runs, over the hub. Clients are not safe for
// concurrent use; create one per goroutine.
func (c *Cluster) Client() (*Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.clients++
	set := deploy.DefaultClient()
	set.ID, set.Mode = fmt.Sprintf("client%d", c.clients), c.cfg.Replication.role()
	tr, err := c.hub.Register(msg.Loc(set.ID))
	if err != nil {
		return nil, err
	}
	s, err := set.Session(c.shared, tr)
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	return &Client{s: s}, nil
}

// Client is a synchronous ShadowDB client.
type Client struct {
	s *deploy.Session
}

// Exec runs one registered transaction and waits for its result.
func (cl *Client) Exec(txType string, args ...any) (Result, error) {
	return cl.ExecTimeout(30*time.Second, txType, args...)
}

// ExecTimeout is Exec with an explicit deadline. An argument of a type
// the wire codec has no kind for (an int16, a uint64, a []byte, …) is
// refused before anything is sent; an int32 or a float32 travels
// widened to int64 or float64, as the SQL layer widens it.
func (cl *Client) ExecTimeout(timeout time.Duration, txType string, args ...any) (Result, error) {
	if err := msg.CheckValues(args); err != nil {
		return Result{}, fmt.Errorf("shadowdb: %s: %w", txType, err)
	}
	cl.s.Timeout = timeout
	res, err := cl.s.Exec(txType, args)
	switch {
	case errors.Is(err, deploy.ErrClosed):
		return Result{}, ErrClosed
	case err != nil:
		return Result{}, fmt.Errorf("%w: %s after %v", ErrTimeout, txType, timeout)
	case res.Err != "":
		return Result{}, fmt.Errorf("shadowdb: %s", res.Err)
	}
	return Result{Aborted: res.Aborted, Cols: res.Cols, Rows: res.Rows}, nil
}

// Close releases the client.
func (cl *Client) Close() error { return cl.s.Close() }
