package core

import (
	"errors"
	"testing"

	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

func setupBank10(db *sqldb.DB) error { return BankSetup(db, 10) }

// soloPrimary is a PBR primary without backups over a 10-row bank: it
// answers each transaction as soon as it has applied it.
func soloPrimary(t *testing.T) *PBRReplica {
	t.Helper()
	dep := testDeployment()
	dep.InitialMembers = 1
	return NewPBRReplica("r1", bankDB(t, t.Name(), 10), BankRegistry(), dep)
}

// submit runs one transaction through a solo primary and returns its
// answer.
func submit(t *testing.T, r *PBRReplica, req TxRequest) TxResult {
	t.Helper()
	_, outs := r.Step(msg.M(HdrTx, req))
	if len(outs) != 1 || outs[0].M.Hdr != HdrTxResult {
		t.Fatalf("primary answered %v, want one result", outs)
	}
	return outs[0].M.Body.(TxResult)
}

// buildHistory runs a few transactions through a PBR primary and
// returns the answered results.
func buildHistory(t *testing.T) (*PBRReplica, []TxResult) {
	t.Helper()
	r := soloPrimary(t)
	var answered []TxResult
	for _, req := range []TxRequest{
		depositReq("a", 1, 0, 5),
		depositReq("b", 1, 1, 7),
		depositReq("a", 2, 0, 3),
		{Client: "c", Seq: 1, Type: "balance", Args: []any{0}},
	} {
		answered = append(answered, submit(t, r, req))
	}
	return r, answered
}

func TestCheckSerializablePasses(t *testing.T) {
	r, answered := buildHistory(t)
	if err := CheckSerializable(BankRegistry(), setupBank10, r, answered); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSerializableCatchesStateTampering(t *testing.T) {
	r, answered := buildHistory(t)
	// Tamper with the replica's state outside the log.
	if _, err := r.exec.DB.Exec("UPDATE accounts SET balance = 0 WHERE id = 5"); err != nil {
		t.Fatal(err)
	}
	err := CheckSerializable(BankRegistry(), setupBank10, r, answered)
	if !errors.Is(err, ErrSerializability) {
		t.Errorf("err = %v, want ErrSerializability", err)
	}
}

func TestCheckSerializableCatchesForgedResult(t *testing.T) {
	r, answered := buildHistory(t)
	forged := answered[3]
	forged.Rows = [][]sqldb.Value{{int64(999999)}}
	err := CheckSerializable(BankRegistry(), setupBank10, r, []TxResult{forged})
	if !errors.Is(err, ErrSerializability) {
		t.Errorf("err = %v, want ErrSerializability", err)
	}
}

func TestCheckSerializableCatchesUnloggedAnswer(t *testing.T) {
	r, _ := buildHistory(t)
	ghost := TxResult{Client: "ghost", Seq: 1}
	err := CheckSerializable(BankRegistry(), setupBank10, r, []TxResult{ghost})
	if !errors.Is(err, ErrDurability) {
		t.Errorf("err = %v, want ErrDurability", err)
	}
}

func TestCheckSerializableCatchesClientOrderViolation(t *testing.T) {
	r := soloPrimary(t)
	submit(t, r, depositReq("a", 5, 0, 1))
	// Manually force a lower client sequence number later in the log.
	must(r.exec.st.Append(orderRecord(2, depositReq("a", 3, 0, 1))))
	r.exec.Executed = 2
	err := CheckSerializable(BankRegistry(), setupBank10, r, nil)
	if !errors.Is(err, ErrClientOrder) {
		t.Errorf("err = %v, want ErrClientOrder", err)
	}
}

// A history a compaction folded into a snapshot cannot be replayed
// from the journal. Without a snapshot to outgrow, the journal compacts
// at its floor of DefaultSnapEvery records.
func TestCheckSerializableRefusesIncompleteLog(t *testing.T) {
	r := soloPrimary(t)
	var answered []TxResult
	for seq := int64(1); seq < DefaultSnapEvery; seq++ {
		answered = append(answered, submit(t, r, depositReq("a", seq, int(seq%10), 1)))
	}
	if err := CheckSerializable(BankRegistry(), setupBank10, r, answered); err != nil {
		t.Fatalf("a history the journal holds whole: %v", err)
	}
	submit(t, r, depositReq("a", DefaultSnapEvery, 0, 1))
	if err := CheckSerializable(BankRegistry(), setupBank10, r, answered); !errors.Is(err, ErrIncompleteLog) {
		t.Errorf("a history one past the compaction: err = %v, want ErrIncompleteLog", err)
	}
}

func TestCheckDurability(t *testing.T) {
	r, answered := buildHistory(t)
	if err := CheckDurability(answered, r.exec); err != nil {
		t.Fatal(err)
	}
	missing := []TxResult{{Client: "zz", Seq: 9}}
	if err := CheckDurability(missing, r.exec); !errors.Is(err, ErrDurability) {
		t.Errorf("err = %v, want ErrDurability", err)
	}
}

func TestCheckStateAgreement(t *testing.T) {
	a := bankExec(t, 5).DB
	b := bankExec(t, 5).DB
	if err := CheckStateAgreement(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("UPDATE accounts SET balance = 1 WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
	if err := CheckStateAgreement(a, b); !errors.Is(err, ErrStateAgreement) {
		t.Errorf("err = %v, want ErrStateAgreement", err)
	}
}
