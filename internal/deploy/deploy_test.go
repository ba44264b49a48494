package deploy_test

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/gpm"
	"shadowdb/internal/leaktest"
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

// The tests below boot the shipped wiring: every process comes out of a
// deploy.Node through View and Process — the calls Serve makes — onto
// loopback TCP, and is driven by the client cmd/shadowdb-client ships
// (deploy.Client).

// writeTopology reserves a free loopback port per id and writes the
// topology file naming them. The ports are released on return, so each
// endpoint binds its own entry the way a deployed process does.
func writeTopology(t *testing.T, ids ...string) string {
	t.Helper()
	topo := member.Topology{Nodes: map[string]string{}}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ln.Close() }()
		topo.Nodes[id] = ln.Addr().String()
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := topo.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// node is one process of a test cluster. It is its own store.Provider,
// so stop can close what the process opened (a deployed process leaves
// that to exit).
type node struct {
	n      deploy.Node
	cl     *deploy.Cluster
	view   *member.View
	proc   gpm.Process
	boot   []msg.Directive
	host   *runtime.Host
	stores []store.Stable
	// o and ck are the node's own trace and online checker (armed).
	o  *obs.Obs
	ck *dist.Checker
	// executed republishes an SMR replica's executed count after every
	// step, and open a shard replica's open prepares, so the test can wait
	// on them without racing the host goroutine.
	executed, open atomic.Int64
}

// ledger returns a shard replica's 2PC ledger.
func (nd *node) ledger() *shard.Ledger {
	return nd.proc.(*core.SMRReplica).Extension().(*shard.Ledger)
}

func (nd *node) Open(name string) (store.Stable, error) {
	dir, err := store.NewDir(nd.n.DataDir, store.SyncBatch)
	if err != nil {
		return nil, err
	}
	st, err := dir.Open(name)
	if err == nil {
		nd.stores = append(nd.stores, st)
	}
	return st, err
}

// build constructs n's process without starting it.
func build(t *testing.T, n deploy.Node) *node {
	t.Helper()
	nd := &node{n: n}
	var prov store.Provider
	if n.DataDir != "" {
		prov = nd
	}
	cl, err := n.Load()
	if err == nil {
		nd.cl = cl
		nd.view, err = n.View(cl)
	}
	if err == nil {
		nd.proc, nd.boot, err = n.Process(cl, prov, nd.view)
	}
	if err != nil {
		t.Fatalf("%s: %v", n.ID, err)
	}
	return nd
}

// armed gives the node a trace of its own and arms its online checker
// over it, as Serve does with -check.
func (nd *node) armed() *node {
	nd.o = obs.New(1 << 10)
	nd.ck = nd.n.Arm(nd.cl, nd.o, nd.proc)
	return nd
}

// start binds the node's topology address and runs the process on it.
func (nd *node) start(t *testing.T) *node {
	t.Helper()
	tcp, err := network.NewTCP(msg.Loc(nd.n.ID), nd.cl.Topology.Directory())
	if err != nil {
		t.Fatal(err)
	}
	nd.host = runtime.NewHost(msg.Loc(nd.n.ID), tcp, nd.proc)
	if nd.o != nil {
		nd.host.Obs = nd.o
	}
	if nd.view != nil {
		// As Serve's hook: the ordered add carries a joiner's address.
		nd.view.OnApply(func(cmd member.Command, _ member.Config) {
			if cmd.Addr != "" {
				tcp.SetPeer(cmd.Node, cmd.Addr)
			}
		})
	}
	if r, ok := nd.proc.(*core.SMRReplica); ok {
		l, _ := r.Extension().(*shard.Ledger)
		publish := func(msg.Msg, []msg.Directive) {
			nd.executed.Store(r.Executor().Executed)
			if l != nil {
				nd.open.Store(int64(l.OpenPrepares()))
			}
		}
		publish(msg.Msg{}, nil)
		nd.host.OnStep = publish
	}
	nd.host.Emit(nd.boot)
	nd.host.Start()
	t.Cleanup(nd.stop)
	return nd
}

func (nd *node) stop() {
	_ = nd.host.Close()
	for _, st := range nd.stores {
		_ = st.Close()
	}
	nd.stores = nil
}

// session opens the shipped client against the topology.
func session(t *testing.T, topology, id, mode, read string) *deploy.Session {
	t.Helper()
	c := deploy.DefaultClient()
	c.Topology, c.ID, c.Mode, c.Read, c.Timeout = topology, id, mode, read, 20*time.Second
	s, err := c.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// exec runs one transaction that must commit and returns its rows.
func exec(t *testing.T, s *deploy.Session, tx string, args ...any) string {
	t.Helper()
	res, err := s.Exec(tx, args)
	if err != nil || res.Err != "" || res.Aborted {
		t.Fatalf("%s%v: err=%v result=%+v", tx, args, err, res)
	}
	return fmt.Sprint(res.Rows)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func checkLeaks(t *testing.T) {
	leaktest.Check(t, "shadowdb/internal/runtime.", "shadowdb/internal/network.")
}

// SMR, 3 b + 3 r, durable, lease reads on: a deposit through the order,
// a lease read at the holder, then r2 is stopped and rebuilt from the
// same Node over the same data directory. The client is listed as
// "bench": a first-letter rule would make it a fourth broadcast node in
// every quorum.
func TestSMRLeaseAndRestart(t *testing.T) {
	checkLeaks(t)
	topology := writeTopology(t, "b1", "b2", "b3", "r1", "r2", "r3", "bench")
	data := t.TempDir()
	nodes := map[string]*node{}
	settings := func(id string) deploy.Node {
		n := deploy.Default()
		n.ID, n.Topology, n.Rows, n.DataDir = id, topology, 100, filepath.Join(data, id)
		n.Role, n.Lease = "smr", true
		if id[0] == 'b' {
			n.Role, n.Lease = "broadcast", false
		}
		return n
	}
	for _, id := range []string{"b1", "b2", "b3", "r1", "r2", "r3"} {
		nodes[id] = build(t, settings(id)).start(t)
	}
	s := session(t, topology, "bench", "smr", "lease")
	exec(t, s, "deposit", int64(1), int64(10))
	res, err := s.Read("balance", []any{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Vals); got != "[1010]" {
		t.Fatalf("lease read of account 1 = %s, want [1010]", got)
	}
	core.ReleaseReadResult(res)

	waitFor(t, "r2 to execute the deposit", func() bool { return nodes["r2"].executed.Load() == 1 })
	nodes["r2"].stop()
	r2 := build(t, settings("r2"))
	rep := r2.proc.(*core.SMRReplica)
	if !rep.Recovered() || rep.Executor().Executed != 1 {
		t.Fatalf("rebuilt r2: recovered=%v executed=%d, want true and 1", rep.Recovered(), rep.Executor().Executed)
	}
	r2.start(t)
	exec(t, s, "deposit", int64(2), int64(5))
	waitFor(t, "r1 and the restarted r2 to execute the second deposit", func() bool {
		return nodes["r1"].executed.Load() == 2 && r2.executed.Load() == 2
	})
	nodes["r1"].stop()
	r2.stop()
	if !sqldb.Equal(nodes["r1"].proc.(*core.SMRReplica).Executor().DB, rep.Executor().DB) {
		t.Fatal("restarted r2 and r1 hold different databases")
	}
}

// SMR, 3 b + 3 r, durable, with -check -lease -max-inflight 1: every
// node's checker is armed from its own settings as Serve arms it. r4
// joins through an ordered add that nobody announces to any checker, r1
// (the lease holder) restarts over its data directory under a fresh
// checker, and a burst overflows the sequencer's admission queue. Every
// checker stays clean, and between them they check read/*, member/* and
// flow/queue-bound over events of the run, none waiting for a fact.
func TestCheckedJoinAndRestart(t *testing.T) {
	checkLeaks(t)
	topology := writeTopology(t, "b1", "b2", "b3", "r1", "r2", "r3", "bench", "reader", "burst")
	// The joiner's own topology lists it too; the members learn its
	// address from the ordered add.
	topo, err := member.LoadTopology(topology)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	topo.Nodes["r4"] = ln.Addr().String()
	_ = ln.Close()
	joinerTopology := filepath.Join(t.TempDir(), "joiner.json")
	if err := topo.Save(joinerTopology); err != nil {
		t.Fatal(err)
	}
	data := t.TempDir()
	settings := func(id string) deploy.Node {
		n := deploy.Default()
		n.ID, n.Topology, n.Rows, n.DataDir = id, topology, 100, filepath.Join(data, id)
		n.Role, n.Lease, n.Check, n.MaxInflight = "smr", true, true, 1
		n.LeaseDur = 600 * time.Millisecond
		if id[0] == 'b' {
			n.Role, n.Lease = "broadcast", false
		}
		return n
	}
	nodes := map[string]*node{}
	var all []*node // every incarnation, restarted ones included
	// Replicas listen before anything is ordered: a Deliver sent to a
	// replica not yet listening is lost, a real hole its checker reports.
	for _, id := range []string{"r1", "r2", "r3", "b1", "b2", "b3"} {
		nodes[id] = build(t, settings(id)).armed().start(t)
		all = append(all, nodes[id])
	}
	s := session(t, topology, "bench", "smr", "lease")
	exec(t, s, "deposit", int64(1), int64(10))
	readAt := func(s *deploy.Session) {
		t.Helper()
		res, err := s.Read("balance", []any{int64(1)})
		if err != nil {
			t.Fatal(err)
		}
		core.ReleaseReadResult(res)
	}
	readAt(s)
	follower := deploy.DefaultClient()
	follower.Topology, follower.ID, follower.Mode, follower.Read, follower.ReadTarget = topology, "reader", "smr", "follower", "r2"
	follower.Timeout = 20 * time.Second
	fs, err := follower.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fs.Close() })
	readAt(fs)

	// r4 joins: started passive, admitted by the ordered add.
	joiner := settings("r4")
	joiner.Topology, joiner.Joiner = joinerTopology, true
	nodes["r4"] = build(t, joiner).armed().start(t)
	all = append(all, nodes["r4"])
	add := member.Command{Op: member.AddReplica, Node: "r4", Addr: topo.Nodes["r4"]}
	nodes["b1"].host.Emit([]msg.Directive{msg.Send("b1", msg.M(broadcast.HdrBcast,
		broadcast.Bcast{From: "admin:b1", Seq: 1, Payload: member.EncodeCommand(add)}))})
	exec(t, s, "deposit", int64(2), int64(5))
	waitFor(t, "r4 to bootstrap and apply the second deposit", func() bool { return nodes["r4"].executed.Load() == 2 })

	// r1, the lease holder, restarts over its data directory; its lease
	// reads resume once a fresh renewal of its own is ordered.
	nodes["r1"].stop()
	nodes["r1"] = build(t, settings("r1")).armed().start(t)
	all = append(all, nodes["r1"])
	if !nodes["r1"].proc.(*core.SMRReplica).Recovered() {
		t.Fatal("restarted r1 did not recover its data directory")
	}
	readAt(s)
	exec(t, s, "deposit", int64(3), int64(1))
	waitFor(t, "every replica to apply the third deposit", func() bool {
		for _, id := range []string{"r1", "r2", "r3", "r4"} {
			if nodes[id].executed.Load() != 3 {
				return false
			}
		}
		return true
	})

	// A burst of writes overflows b1's admission queue: some are shed.
	burst, err := network.NewTCP("burst", topo.Directory())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = burst.Close() }()
	for seq := int64(1); seq <= 32; seq++ {
		pay, err := core.EncodeTx(core.TxRequest{Client: "burst", Seq: seq, Type: "deposit", Args: []any{int64(4), int64(1)}})
		if err != nil {
			t.Fatal(err)
		}
		_ = burst.Send(msg.Envelope{From: "burst", To: "b1", M: msg.M(broadcast.HdrBcast, broadcast.Bcast{From: "burst", Seq: seq, Payload: pay})})
	}
	seen := func(name string) (n int64) {
		for _, nd := range all {
			for _, c := range nd.ck.Status().Invariants {
				if c.Name == name {
					n += c.Seen
				}
			}
		}
		return n
	}
	waitFor(t, "b1 to shed part of the burst", func() bool { return seen("flow/queue-bound") > 0 })

	for _, nd := range all {
		st := nd.ck.Status()
		if len(st.Violations) > 0 {
			t.Errorf("%s: checker flagged %v", nd.n.ID, st.Violations)
		}
		for _, c := range st.Invariants {
			if c.Skipped != "" && !strings.HasPrefix(c.Name, "read/") || c.Skipped != "" && nd.n.Lease {
				t.Errorf("%s: %s waits for the %s", nd.n.ID, c.Name, c.Skipped)
			}
		}
	}
	for _, name := range []string{"read/lease-linearizability", "read/lease-expiry", "read/follower-staleness",
		"member/epoch-config", "member/stale-quorum", "flow/queue-bound"} {
		if seen(name) == 0 {
			t.Errorf("no checker saw an event in the scope of %s", name)
		}
	}
}

// PBR, two members and a spare: the client is not in the topology
// (members answer over its own connection).
func TestPBRDeposit(t *testing.T) {
	checkLeaks(t)
	topology := writeTopology(t, "b1", "r1", "r2", "r3")
	for _, id := range []string{"b1", "r1", "r2", "r3"} {
		n := deploy.Default()
		n.ID, n.Topology, n.Rows, n.Spare = id, topology, 100, id == "r3"
		if id == "b1" {
			n.Role = "broadcast"
		}
		build(t, n).start(t)
	}
	s := session(t, topology, "cli", "pbr", "")
	exec(t, s, "deposit", int64(1), int64(10))
	if got := exec(t, s, "balance", int64(1)); !strings.Contains(got, "1010") {
		t.Fatalf("balance of account 1 = %s, want 1010", got)
	}
}

// Every ordered-unit journal holds the wire body of the unit it
// journals: once a durable SMR cluster and a durable PBR pair have
// committed deposits, each record of every acceptor, sequencer and
// replica journal decodes with msg.DecodeBody to its client's body — a
// P1a or P2a, a synod.Decide, a broadcast.Deliver, a core.Repl.
func TestJournalsHoldWireBodies(t *testing.T) {
	checkLeaks(t)
	const deposits = 20
	t.Run("smr", func(t *testing.T) {
		topology := writeTopology(t, "b1", "b2", "b3", "r1", "r2", "r3", "bench")
		data := t.TempDir()
		var nodes []*node
		for _, id := range []string{"r1", "r2", "r3", "b1", "b2", "b3"} {
			n := deploy.Default()
			n.ID, n.Topology, n.Rows, n.DataDir = id, topology, 100, filepath.Join(data, id)
			n.Role = "smr"
			if id[0] == 'b' {
				n.Role = "broadcast"
			}
			nodes = append(nodes, build(t, n).start(t))
		}
		s := session(t, topology, "bench", "smr", "")
		for i := 0; i < deposits; i++ {
			exec(t, s, "deposit", int64(i), int64(1))
		}
		waitFor(t, "every replica to execute the deposits", func() bool {
			return nodes[0].executed.Load() == deposits && nodes[1].executed.Load() == deposits &&
				nodes[2].executed.Load() == deposits
		})
		for _, nd := range nodes {
			nd.stop()
		}
		for _, id := range []string{"r1", "r2", "r3"} {
			journalBodies[broadcast.Deliver](t, filepath.Join(data, id), "smr-"+id)
		}
		for _, id := range []string{"b1", "b2", "b3"} {
			journalBodies[synod.Decide](t, filepath.Join(data, id), "seq-"+id)
			for i, body := range journalBodies[any](t, filepath.Join(data, id), "acc-"+id) {
				switch body.(type) {
				case synod.P1a, synod.P2a:
				default:
					t.Errorf("acc-%s: record %d is a %T, want a P1a or a P2a", id, i, body)
				}
			}
		}
	})
	t.Run("pbr", func(t *testing.T) {
		topology := writeTopology(t, "b1", "r1", "r2")
		data := t.TempDir()
		var nodes []*node
		for _, id := range []string{"b1", "r1", "r2"} {
			n := deploy.Default()
			n.ID, n.Topology, n.Rows, n.DataDir = id, topology, 100, filepath.Join(data, id)
			if id == "b1" {
				n.Role = "broadcast"
			}
			nodes = append(nodes, build(t, n).start(t))
		}
		s := session(t, topology, "cli", "pbr", "")
		for i := 0; i < deposits; i++ {
			exec(t, s, "deposit", int64(i), int64(1))
		}
		for _, nd := range nodes {
			nd.stop()
		}
		for _, id := range []string{"r1", "r2"} {
			if recs := journalBodies[core.Repl](t, filepath.Join(data, id), "pbr-"+id); len(recs) != deposits {
				t.Errorf("pbr-%s holds %d records for %d deposits", id, len(recs), deposits)
			}
		}
	})
}

// journalBodies reads back every record of the journal name in the data
// directory dir, each of which must be exactly one wire body of type T,
// and fails the test on a journal that holds none.
func journalBodies[T any](t *testing.T, dir, name string) []T {
	t.Helper()
	d, err := store.NewDir(dir, store.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	var bodies []T
	err = st.Replay(func(rec []byte) error {
		body, err := msg.DecodeBody[T](rec)
		if err != nil {
			return fmt.Errorf("record %d: %w", len(bodies), err)
		}
		bodies = append(bodies, body)
		return nil
	})
	if err != nil {
		t.Errorf("journal %s: %v", name, err)
	}
	if len(bodies) == 0 {
		t.Errorf("journal %s holds no record", name)
	}
	return bodies
}

// -module twothird: three service nodes order one Bcast for the
// topology's replica id, here a bare endpoint.
func TestTwoThirdOrdersForSubscriber(t *testing.T) {
	checkLeaks(t)
	topology := writeTopology(t, "b1", "b2", "b3", "r1")
	for _, id := range []string{"b1", "b2", "b3"} {
		n := deploy.Default()
		n.ID, n.Role, n.Topology, n.Module = id, "broadcast", topology, "twothird"
		nd := build(t, n)
		if nd.view != nil {
			t.Fatal("a twothird node has a membership view")
		}
		nd.start(t)
	}
	topo, err := member.LoadTopology(topology)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := network.NewTCP("r1", topo.Directory())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	err = sub.Send(msg.Envelope{From: "r1", To: "b1", M: msg.M(broadcast.HdrBcast,
		broadcast.Bcast{From: "r1", Seq: 1, Payload: []byte("ordered")})})
	if err != nil {
		t.Fatal(err)
	}
	timeout := time.After(20 * time.Second)
	for {
		select {
		case env := <-sub.Receive():
			if d, ok := env.M.Body.(broadcast.Deliver); ok && len(d.Msgs) == 1 && string(d.Msgs[0].Payload) == "ordered" {
				return
			}
		case <-timeout:
			t.Fatal("no Deliver reached the subscriber")
		}
	}
}

// Two shards and the router: one cross-shard transfer, read back
// through the router from both shards.
func TestShardedTransfer(t *testing.T) {
	checkLeaks(t)
	topology := writeTopology(t, "s0b1", "s0r1", "s1b1", "s1r1", "rt1", "cli")
	data := t.TempDir()
	for _, id := range []string{"s0b1", "s0r1", "s1b1", "s1r1", "rt1"} {
		n := deploy.Default()
		n.ID, n.Role, n.Topology, n.Rows, n.DataDir = id, "shard", topology, 100, filepath.Join(data, id)
		if id == "rt1" {
			n.Role = "router"
		}
		build(t, n).start(t)
	}
	// Two accounts the hash partitioner places on different shards.
	part, from, to := shard.NewHash(2), int64(1), int64(2)
	for part.Shard(shard.BankKey(to)) == part.Shard(shard.BankKey(from)) {
		to++
	}
	s := session(t, topology, "cli", "shard", "")
	exec(t, s, "transfer", from, to, int64(50))
	if got := exec(t, s, "balance", from); !strings.Contains(got, "950") {
		t.Fatalf("balance of the debited account = %s, want 950", got)
	}
	if got := exec(t, s, "balance", to); !strings.Contains(got, "1050") {
		t.Fatalf("balance of the credited account = %s, want 1050", got)
	}
}

// A shard replica stopped between a transfer's prepare and its decision
// and rebuilt from the same Node and data directory comes back holding
// the reservation it voted for, and the transfer then commits exactly
// once. The credited shard's service node starts late, so the router
// keeps re-driving the prepare and cannot decide before the restart.
func TestShardReplicaRestartMid2PC(t *testing.T) {
	checkLeaks(t)
	part, from, to, amount := shard.NewHash(2), int64(1), int64(2), int64(50)
	for part.Shard(shard.BankKey(to)) == part.Shard(shard.BankKey(from)) {
		to++
	}
	src, dst := part.Shard(shard.BankKey(from)), part.Shard(shard.BankKey(to))
	id := func(k int, role string, i int) string { return fmt.Sprintf("s%d%s%d", k, role, i) }
	ids := []string{id(src, "b", 1), id(src, "r", 1), id(src, "r", 2), id(dst, "r", 1), id(dst, "r", 2), "rt1", id(dst, "b", 1)}
	topology := writeTopology(t, append(ids, "cli")...)
	data := t.TempDir()
	settings := func(id string) deploy.Node {
		n := deploy.Default()
		n.ID, n.Role, n.Topology, n.Rows, n.DataDir = id, "shard", topology, 100, filepath.Join(data, id)
		if id == "rt1" {
			n.Role = "router"
		}
		return n
	}
	nodes := map[string]*node{}
	for _, id := range ids[:6] {
		nodes[id] = build(t, settings(id)).start(t)
	}
	s := session(t, topology, "cli", "shard", "")
	type outcome struct {
		res core.TxResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.Exec("transfer", []any{from, to, amount})
		done <- outcome{res, err}
	}()

	victim := id(src, "r", 1)
	waitFor(t, victim+" to vote on the prepare", func() bool { return nodes[victim].open.Load() == 1 })
	nodes[victim].stop()
	rebuilt := build(t, settings(victim))
	if held, open := rebuilt.ledger().HeldOn(shard.BankKey(from)), rebuilt.ledger().OpenPrepares(); held != amount || open != 1 {
		t.Fatalf("rebuilt %s: held %d with %d open prepares, want %d and 1", victim, held, open, amount)
	}
	rebuilt.start(t)
	build(t, settings(id(dst, "b", 1))).start(t)

	out := <-done
	if out.err != nil || out.res.Aborted || out.res.Err != "" {
		t.Fatalf("transfer: err=%v result=%+v", out.err, out.res)
	}
	peer := nodes[id(src, "r", 2)]
	waitFor(t, "both replicas of the debited shard to apply the decision", func() bool {
		return rebuilt.open.Load() == 0 && peer.open.Load() == 0
	})
	if got := exec(t, s, "balance", from); !strings.Contains(got, "950") {
		t.Fatalf("balance of the debited account = %s, want 950", got)
	}
	if got := exec(t, s, "balance", to); !strings.Contains(got, "1050") {
		t.Fatalf("balance of the credited account = %s, want 1050", got)
	}
	rebuilt.stop()
	peer.stop()
	if held := rebuilt.ledger().HeldOn(shard.BankKey(from)); held != 0 {
		t.Errorf("reservation still held after the decision: %d", held)
	}
	db := rebuilt.proc.(*core.SMRReplica).Executor().DB
	if !sqldb.Equal(db, peer.proc.(*core.SMRReplica).Executor().DB) {
		t.Error("the rebuilt replica and its peer hold different databases: the debit was applied a different number of times")
	}
}
