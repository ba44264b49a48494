package core

import (
	"fmt"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// Deployment fixtures: the client process the reference runner and the
// tests drive, and the bank application. Nodes are built from their
// settings by internal/deploy (Node.Process), which the binaries and the
// public API share; the simulator hosts the same pieces with its own
// adapters in package bench.

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
