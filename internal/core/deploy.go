package core

import (
	"fmt"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// Deployment helpers: wire broadcast service nodes, replicas and clients
// into one gpm.System for the reference runner, the verifier, and the
// examples. The simulator (package des) hosts the same pieces with its
// own adapters in package bench.

// HdrSubmit drives a client: the body names the transaction to run next.
const HdrSubmit = "cli.submit"

// SubmitBody is the workload injection for ClientProc.
type SubmitBody struct {
	Type string
	Args []any
}

// ClientProc wraps a Client state machine as a gpm process. Each
// HdrSubmit message starts one transaction; onResult (if non-nil) runs at
// completion.
func ClientProc(c *Client, onResult func(TxResult)) gpm.Process {
	var step gpm.StepFunc
	step = func(in msg.Msg) (gpm.Process, []msg.Directive) {
		if in.Hdr == HdrSubmit {
			b := in.Body.(SubmitBody)
			return step, c.Submit(b.Type, b.Args)
		}
		res, outs := c.Handle(in)
		if res != nil && onResult != nil {
			onResult(*res)
		}
		return step, outs
	}
	return step
}

// PBRSystem is a fully wired primary-backup deployment.
type PBRSystem struct {
	Dep      PBRDeployment
	Replicas map[msg.Loc]*PBRReplica
	Bcast    broadcast.Config
}

// NewPBRSystem builds the replicas (each with its own database from
// mkDB) and the broadcast service configuration. Replicas subscribe to
// the broadcast service for recovery proposals.
func NewPBRSystem(dep PBRDeployment, reg Registry, mkDB func(slf msg.Loc) *sqldb.DB) *PBRSystem {
	sys := &PBRSystem{Dep: dep, Replicas: make(map[msg.Loc]*PBRReplica, len(dep.Pool))}
	for _, l := range dep.Pool {
		sys.Replicas[l] = NewPBRReplica(l, mkDB(l), reg, dep)
	}
	sys.Bcast = broadcast.Config{
		Nodes:       dep.BcastNodes,
		Subscribers: append([]msg.Loc(nil), dep.Pool...),
	}
	return sys
}

// System assembles the gpm.System hosting broadcast nodes and replicas.
// Extra generators (clients) are consulted for unknown locations.
func (s *PBRSystem) System(extraLocs []msg.Loc, extra gpm.Generator) gpm.System {
	bgen := broadcast.Spec(s.Bcast).Generator()
	locs := append([]msg.Loc(nil), s.Dep.BcastNodes...)
	locs = append(locs, s.Dep.Pool...)
	locs = append(locs, extraLocs...)
	gen := func(slf msg.Loc) gpm.Process {
		if r, ok := s.Replicas[slf]; ok {
			return r
		}
		for _, b := range s.Dep.BcastNodes {
			if b == slf {
				return bgen(slf)
			}
		}
		if extra != nil {
			return extra(slf)
		}
		return gpm.Halt()
	}
	return gpm.System{Gen: gen, Locs: locs}
}

// StartDirectives returns the boot messages (failure detectors), in
// pool order: map iteration would arm same-instant timers in a
// different order each run, perturbing simulated schedules that must
// replay exactly (the chaos fingerprint check).
func (s *PBRSystem) StartDirectives() []msg.Directive {
	var outs []msg.Directive
	for _, l := range s.Dep.Pool {
		outs = append(outs, s.Replicas[l].Start()...)
	}
	return outs
}

// SMRSystem is a fully wired state-machine-replication deployment.
type SMRSystem struct {
	Nodes    []msg.Loc
	Replicas map[msg.Loc]*SMRReplica
	Bcast    broadcast.Config
}

// NewSMRSystem builds n replicas, each co-located with (and subscribed
// to) one broadcast service node, as in the paper's deployment.
func NewSMRSystem(bcastNodes []msg.Loc, replicaLocs []msg.Loc, reg Registry, mkDB func(slf msg.Loc) *sqldb.DB) *SMRSystem {
	if len(bcastNodes) != len(replicaLocs) {
		panic(fmt.Sprintf("core: %d broadcast nodes for %d replicas", len(bcastNodes), len(replicaLocs)))
	}
	sys := &SMRSystem{Nodes: bcastNodes, Replicas: make(map[msg.Loc]*SMRReplica, len(replicaLocs))}
	local := make(map[msg.Loc][]msg.Loc, len(bcastNodes))
	for i, b := range bcastNodes {
		local[b] = []msg.Loc{replicaLocs[i]}
		r, err := OpenSMRReplica(SMRConfig{Self: replicaLocs[i], DB: mkDB(replicaLocs[i]), Registry: reg})
		if err != nil {
			panic(err) // a volatile replica without an extension cannot fail to open
		}
		sys.Replicas[replicaLocs[i]] = r
	}
	sys.Bcast = broadcast.Config{Nodes: bcastNodes, LocalSubscribers: local}
	return sys
}

// System assembles the gpm.System for the runner.
func (s *SMRSystem) System(extraLocs []msg.Loc, extra gpm.Generator) gpm.System {
	bgen := broadcast.Spec(s.Bcast).Generator()
	locs := append([]msg.Loc(nil), s.Nodes...)
	for l := range s.Replicas {
		locs = append(locs, l)
	}
	locs = append(locs, extraLocs...)
	gen := func(slf msg.Loc) gpm.Process {
		if r, ok := s.Replicas[slf]; ok {
			return r
		}
		for _, b := range s.Nodes {
			if b == slf {
				return bgen(slf)
			}
		}
		if extra != nil {
			return extra(slf)
		}
		return gpm.Halt()
	}
	return gpm.System{Gen: gen, Locs: locs}
}

// --------------------------------------------------------- bank fixture --

// The bank micro-benchmark schema of Section IV-B: accounts with an
// identifier, an owner, and a balance; 16-byte rows.

// BankSetup creates and populates the accounts table.
func BankSetup(db *sqldb.DB, rows int) error {
	if _, err := db.Exec("CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR(8), balance INT)"); err != nil {
		return fmt.Errorf("create accounts: %w", err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec("INSERT INTO accounts (id, owner, balance) VALUES (?, ?, ?)",
			i, fmt.Sprintf("o%06d", i), 1000); err != nil {
			return fmt.Errorf("populate accounts: %w", err)
		}
	}
	return nil
}

// BankRegistry returns the bank transaction types: "deposit" (the
// micro-benchmark's update transaction), "balance" (a read), and
// "transfer" (move funds between two accounts, aborting on insufficient
// funds — the transaction the sharded deployment splits across shards
// when the two accounts live apart).
func BankRegistry() Registry {
	return Registry{
		"transfer": func(db *sqldb.DB, args []any) (ProcResult, error) {
			if len(args) != 3 {
				return ProcResult{}, fmt.Errorf("transfer wants (from, to, amount)")
			}
			from, to, amt := args[0], args[1], args[2]
			// Guard the debit with the balance predicate so the whole
			// transfer is a deterministic abort on insufficient funds.
			res, err := db.Exec(
				"UPDATE accounts SET balance = balance - ? WHERE id = ? AND balance >= ?",
				amt, from, amt)
			if err != nil {
				return ProcResult{}, err
			}
			if res.Affected == 0 {
				return ProcResult{}, ErrAbort // unknown account or insufficient funds
			}
			res, err = db.Exec("UPDATE accounts SET balance = balance + ? WHERE id = ?", amt, to)
			if err != nil {
				return ProcResult{}, err
			}
			if res.Affected == 0 {
				return ProcResult{}, ErrAbort // unknown destination: roll back the debit
			}
			return ProcResult{}, nil
		},
		"deposit": func(db *sqldb.DB, args []any) (ProcResult, error) {
			if len(args) != 2 {
				return ProcResult{}, fmt.Errorf("deposit wants (id, amount)")
			}
			res, err := db.Exec("UPDATE accounts SET balance = balance + ? WHERE id = ?", args[1], args[0])
			if err != nil {
				return ProcResult{}, err
			}
			if res.Affected == 0 {
				return ProcResult{}, ErrAbort // unknown account: deterministic abort
			}
			return ProcResult{}, nil
		},
		"balance": func(db *sqldb.DB, args []any) (ProcResult, error) {
			if len(args) != 1 {
				return ProcResult{}, fmt.Errorf("balance wants (id)")
			}
			res, err := db.Exec("SELECT balance FROM accounts WHERE id = ?", args[0])
			if err != nil {
				return ProcResult{}, err
			}
			return ProcResult{Cols: res.Cols, Rows: res.Rows}, nil
		},
	}
}

// asInt64 widens a procedure argument the way the SQL layer does.
func asInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	}
	return 0, false
}

// BankReadRegistry returns the read-only procedures served on the
// local read path. "balance" answers through sqldb.PointGet into the
// reusable result, so a steady-state serve allocates nothing.
func BankReadRegistry() ReadRegistry {
	return ReadRegistry{
		"balance": func(db *sqldb.DB, args []any, res *ReadResult) error {
			if len(args) != 1 {
				return fmt.Errorf("balance wants (id)")
			}
			id, ok := asInt64(args[0])
			if !ok {
				return fmt.Errorf("balance wants an integer id")
			}
			v, ok := db.PointGet("accounts", id, "balance")
			if !ok {
				return fmt.Errorf("no account %d", id)
			}
			res.Vals = append(res.Vals, v)
			return nil
		},
	}
}

// BankFastRegistry returns the allocation-lean variants of the hot
// bank writes: "deposit" becomes a single in-place point increment
// (identical semantics — a missing account deterministically aborts
// before any mutation).
func BankFastRegistry() FastRegistry {
	return FastRegistry{
		"deposit": func(db *sqldb.DB, args []any) (bool, error) {
			if len(args) != 2 {
				return false, fmt.Errorf("deposit wants (id, amount)")
			}
			id, ok1 := asInt64(args[0])
			amt, ok2 := asInt64(args[1])
			if !ok1 || !ok2 {
				return false, fmt.Errorf("deposit wants integer (id, amount)")
			}
			ok, err := db.PointAddInt("accounts", id, "balance", amt)
			if err != nil {
				return false, err
			}
			return !ok, nil // unknown account: deterministic abort
		},
	}
}
