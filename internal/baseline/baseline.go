// Package baseline implements the comparison systems of the paper's
// evaluation (Section IV-B): a standalone database, H2-style built-in
// replication (synchronous statement shipping under table locks — "H2
// does not offer row-level locks", so it collapses under contention), and
// MySQL-style replication (primary commit under the storage engine's lock
// granularity, asynchronous shipping to the slave).
//
// The baselines run on the discrete-event simulator: transactions execute
// for real against sqldb instances (so state and aborts are genuine), and
// the simulator models lock waiting, lock-wait timeouts, multi-core
// execution, and replication round trips in virtual time.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// LockSpec names the lock keys a transaction needs, given the engine's
// granularity. Keys are acquired in sorted order (no deadlocks).
type LockSpec func(req core.TxRequest, mode sqldb.LockMode) []string

// BankLocks is the lock specification of the bank micro-benchmark.
func BankLocks(req core.TxRequest, mode sqldb.LockMode) []string {
	if mode == sqldb.TableLock {
		return []string{"accounts"}
	}
	if len(req.Args) > 0 {
		return []string{fmt.Sprintf("accounts/%v", req.Args[0])}
	}
	return []string{"accounts"}
}

// Mode selects a baseline replication scheme.
type Mode int

// The baseline modes.
const (
	// Standalone runs a single database with no replication.
	Standalone Mode = iota + 1
	// H2Repl ships every transaction synchronously to the backup while
	// the primary still holds its locks (the H2 replication behaviour
	// that saturates early).
	H2Repl
	// MySQLRepl commits locally under the engine's locks, answers the
	// client, and ships the transaction to the slave asynchronously.
	MySQLRepl
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Standalone:
		return "standalone"
	case H2Repl:
		return "h2-repl"
	case MySQLRepl:
		return "mysql-repl"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Server is a simulated database server (primary or backup).
type Server struct {
	Name msg.Loc
	sim  *des.Sim
	clu  *des.Cluster
	db   *sqldb.DB
	reg  core.Registry
	spec LockSpec
	mode Mode
	// backup is the replication target (primaries only).
	backup msg.Loc
	// lockTimeout overrides the engine's timeout when non-zero.
	lockTimeout time.Duration
	locks       map[string]*des.Resource
	cpu         *des.Semaphore
	ackWait     []ackEntry
	syncOrder   int64
	// Committed and Aborted count transaction outcomes.
	Committed int64
	Aborted   int64
}

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	Name        msg.Loc
	DB          *sqldb.DB
	Reg         core.Registry
	Locks       LockSpec
	Mode        Mode
	Backup      msg.Loc
	LockTimeout time.Duration // 0 = engine default
}

// serverCores is a server's CPU count: the paper's quad-core Xeons.
const serverCores = 4

// NewServer wires a database server into the cluster. The returned node
// has zero intake service time; CPU usage is modeled by the lock-held
// execution windows.
func NewServer(sim *des.Sim, clu *des.Cluster, cfg ServerConfig) *Server {
	s := &Server{
		Name: cfg.Name, sim: sim, clu: clu,
		db: cfg.DB, reg: cfg.Reg, spec: cfg.Locks, mode: cfg.Mode,
		backup: cfg.Backup, lockTimeout: cfg.LockTimeout,
		locks: make(map[string]*des.Resource),
		cpu:   des.NewSemaphore(sim, serverCores),
	}
	clu.AddCostedNode(cfg.Name, 64, s.handle)
	return s
}

// DB exposes the server's database (state checks in tests).
func (s *Server) DB() *sqldb.DB { return s.db }

func (s *Server) timeout() time.Duration {
	if s.lockTimeout > 0 {
		return s.lockTimeout
	}
	return s.db.Engine().LockTimeout
}

func (s *Server) lock(key string) *des.Resource {
	r, ok := s.locks[key]
	if !ok {
		r = des.NewResource(s.sim)
		s.locks[key] = r
	}
	return r
}

// handle dispatches incoming messages. Client transactions start a lock
// flow; replicated transactions from a primary apply under this server's
// own locks.
func (s *Server) handle(env msg.Envelope) ([]msg.Directive, time.Duration) {
	switch env.M.Hdr {
	case core.HdrTx:
		req := env.M.Body.(core.TxRequest)
		s.runTx(req, nil)
	case core.HdrRepl:
		rep := env.M.Body.(core.Repl)
		primary := env.From
		s.runTx(rep.Req, func(committed bool) {
			s.clu.Send(s.Name, primary, msg.M(core.HdrReplAck, core.ReplAck{
				Order: rep.Order, From: s.Name,
			}))
			_ = committed
		})
	case core.HdrReplAck:
		ack := env.M.Body.(core.ReplAck)
		s.onAck(ack)
	}
	return nil, 0
}

// runTx executes one transaction through the lock flow. done (if non-nil)
// runs at commit/abort instead of answering a client.
func (s *Server) runTx(req core.TxRequest, done func(committed bool)) {
	keys := s.spec(req, s.db.Engine().Lock)
	sort.Strings(keys)
	s.acquireAll(keys, 0, func() {
		// All locks held: burn a CPU core for the execution cost.
		s.cpu.Acquire(func() {
			before := s.db.Stats()
			res := core.RunProc(s.db, s.reg, req)
			cost := s.db.Engine().CostOf(s.db.Stats().Sub(before))
			s.sim.After(cost, func() {
				s.cpu.Release()
				s.finish(req, keys, res, done)
			})
		})
	}, func() {
		// Lock wait timed out: abort.
		s.Aborted++
		if done != nil {
			done(false)
			return
		}
		s.clu.Send(s.Name, req.Client, msg.M(core.HdrTxResult, core.TxResult{
			Client: req.Client, Seq: req.Seq, Aborted: true, Err: "lock timeout",
		}))
	})
}

// finish commits: replicates per the mode, releases locks, and answers.
func (s *Server) finish(req core.TxRequest, keys []string, res core.TxResult, done func(bool)) {
	release := func() {
		for i := len(keys) - 1; i >= 0; i-- {
			s.locks[keys[i]].Release()
		}
	}
	reply := func() {
		s.Committed++
		if done != nil {
			done(true)
			return
		}
		s.clu.Send(s.Name, req.Client, msg.M(core.HdrTxResult, res))
	}
	switch {
	case s.mode == H2Repl && s.backup != "":
		// Synchronous shipping while HOLDING the locks: the backup's ack
		// releases them. This serialization across the network round
		// trip is what caps H2 replication so early.
		s.syncOrder++
		order := s.syncOrder
		s.clu.Send(s.Name, s.backup, msg.M(core.HdrRepl, core.Repl{Order: order, Req: req}))
		// reply/release happen in onAck.
		s.ackWait = append(s.ackWait, ackEntry{order: order, release: release, reply: reply})
	case s.mode == MySQLRepl && s.backup != "":
		// Commit locally, answer, ship asynchronously.
		release()
		reply()
		s.clu.Send(s.Name, s.backup, msg.M(core.HdrRepl, core.Repl{Order: s.Committed, Req: req}))
	default:
		release()
		reply()
	}
}

type ackEntry struct {
	order   int64
	release func()
	reply   func()
}

func (s *Server) onAck(ack core.ReplAck) {
	for i, e := range s.ackWait {
		if e.order == ack.Order {
			s.ackWait = append(s.ackWait[:i], s.ackWait[i+1:]...)
			e.release()
			e.reply()
			return
		}
	}
}

// acquireAll takes keys[i:] in order, then runs ok; a timeout anywhere
// releases what was taken and runs fail.
func (s *Server) acquireAll(keys []string, i int, ok, fail func()) {
	if i == len(keys) {
		ok()
		return
	}
	s.lock(keys[i]).Acquire(s.timeout(), func() {
		s.acquireAll(keys, i+1, ok, func() {
			s.locks[keys[i]].Release()
			fail()
		})
	}, fail)
}
