package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustOpen(t *testing.T) *DB {
	t.Helper()
	db, err := Open("h2:mem:test")
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustExec(t *testing.T, db *DB, sql string, args ...Value) Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

func setupAccounts(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR(32), balance INT)")
	for i := 0; i < n; i++ {
		mustExec(t, db, "INSERT INTO accounts (id, owner, balance) VALUES (?, ?, ?)",
			i, fmt.Sprintf("owner%d", i), 100)
	}
}

// ----------------------------------------------------------------- lexer --

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT a, 'it''s', 3.5, -7 FROM t WHERE x <= ? -- comment")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	if toks[1].text != "a" {
		t.Errorf("token 1 = %+v", toks[1])
	}
	if toks[3].val != "it's" {
		t.Errorf("string literal = %v", toks[3].val)
	}
	if toks[5].val != 3.5 {
		t.Errorf("float literal = %v", toks[5].val)
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("SELECT #"); err == nil {
		t.Error("bad character accepted")
	}
}

// ---------------------------------------------------------------- parser --

func TestParseStatements(t *testing.T) {
	tests := []string{
		"CREATE TABLE t (a INT PRIMARY KEY, b TEXT, c FLOAT)",
		"CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))",
		"CREATE TABLE IF NOT EXISTS t (a INT PRIMARY KEY)",
		"DROP TABLE t",
		"DROP TABLE IF EXISTS t",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"INSERT INTO t VALUES (1, 2.5, NULL)",
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = 1 AND b <> 'x' ORDER BY b DESC LIMIT 10",
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(DISTINCT a), SUM(b), MIN(c), MAX(c) FROM t WHERE a >= 5",
		"SELECT a FROM t WHERE a = ? FOR UPDATE",
		"UPDATE t SET b = b + 1, c = ? WHERE a = 3",
		"DELETE FROM t WHERE a < 100",
		"BEGIN",
		"START TRANSACTION",
		"COMMIT",
		"ROLLBACK",
		"SELECT a FROM t WHERE a = -5",
		"UPDATE t SET b = (b + 1) * 2 WHERE a = 1",
	}
	for _, sql := range tests {
		t.Run(sql, func(t *testing.T) {
			if _, err := Parse(sql); err != nil {
				t.Errorf("Parse: %v", err)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	tests := []string{
		"",
		"FROBNICATE t",
		"SELECT FROM t",
		"CREATE TABLE t",
		"CREATE TABLE t (a WIBBLE)",
		"INSERT INTO t VALUES",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t extra garbage trailing",
		"UPDATE t SET",
		"SELECT SUM(*) FROM t",
	}
	for _, sql := range tests {
		t.Run(sql, func(t *testing.T) {
			if _, err := Parse(sql); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", sql)
			}
		})
	}
}

// ------------------------------------------------------------------ exec --

func TestCreateInsertSelect(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 3)
	res := mustExec(t, db, "SELECT id, owner, balance FROM accounts WHERE id = 1")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != int64(1) || res.Rows[0][1] != "owner1" || res.Rows[0][2] != int64(100) {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestSelectStar(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 2)
	res := mustExec(t, db, "SELECT * FROM accounts")
	if len(res.Rows) != 2 || len(res.Cols) != 3 {
		t.Errorf("rows=%d cols=%v", len(res.Rows), res.Cols)
	}
	// Scan returns PK order.
	if res.Rows[0][0] != int64(0) || res.Rows[1][0] != int64(1) {
		t.Errorf("scan order = %v", res.Rows)
	}
}

func TestUpdateArithmetic(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 1)
	mustExec(t, db, "UPDATE accounts SET balance = balance + 42 WHERE id = 0")
	res := mustExec(t, db, "SELECT balance FROM accounts WHERE id = 0")
	if res.Rows[0][0] != int64(142) {
		t.Errorf("balance = %v", res.Rows[0][0])
	}
}

func TestUpdateRejectsPKChange(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 1)
	if _, err := db.Exec("UPDATE accounts SET id = 9 WHERE id = 0"); err == nil {
		t.Error("PK update accepted")
	}
}

func TestDelete(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 10)
	res := mustExec(t, db, "DELETE FROM accounts WHERE id >= 5")
	if res.Affected != 5 {
		t.Errorf("Affected = %d", res.Affected)
	}
	if n, _ := db.TableLen("accounts"); n != 5 {
		t.Errorf("remaining = %d", n)
	}
}

func TestDuplicatePK(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 1)
	_, err := db.Exec("INSERT INTO accounts (id, owner, balance) VALUES (0, 'dup', 0)")
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("err = %v, want ErrDuplicate", err)
	}
}

func TestNoTable(t *testing.T) {
	db := mustOpen(t)
	_, err := db.Exec("SELECT * FROM ghosts")
	if !errors.Is(err, ErrNoTable) {
		t.Errorf("err = %v, want ErrNoTable", err)
	}
}

func TestCompositePK(t *testing.T) {
	db := mustOpen(t)
	mustExec(t, db, "CREATE TABLE ol (o_id INT, line INT, item TEXT, PRIMARY KEY (o_id, line))")
	mustExec(t, db, "INSERT INTO ol VALUES (1, 1, 'a'), (1, 2, 'b'), (2, 1, 'c')")
	res := mustExec(t, db, "SELECT item FROM ol WHERE o_id = 1 AND line = 2")
	if len(res.Rows) != 1 || res.Rows[0][0] != "b" {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT COUNT(*) FROM ol WHERE o_id = 1")
	if res.Rows[0][0] != int64(2) {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestOrderByLimit(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 5)
	mustExec(t, db, "UPDATE accounts SET balance = id * 10 WHERE id >= 0")
	res := mustExec(t, db, "SELECT id FROM accounts ORDER BY balance DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0] != int64(4) || res.Rows[1][0] != int64(3) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 4)
	mustExec(t, db, "UPDATE accounts SET balance = id WHERE id >= 0")
	res := mustExec(t, db, "SELECT COUNT(*), SUM(balance), MIN(balance), MAX(balance) FROM accounts")
	row := res.Rows[0]
	if row[0] != int64(4) || row[1] != int64(6) || row[2] != int64(0) || row[3] != int64(3) {
		t.Errorf("aggregates = %v", row)
	}
}

func TestCountDistinct(t *testing.T) {
	db := mustOpen(t)
	mustExec(t, db, "CREATE TABLE s (id INT PRIMARY KEY, item INT)")
	for i := 0; i < 6; i++ {
		mustExec(t, db, "INSERT INTO s VALUES (?, ?)", i, i%3)
	}
	res := mustExec(t, db, "SELECT COUNT(DISTINCT item) FROM s")
	if res.Rows[0][0] != int64(3) {
		t.Errorf("distinct = %v", res.Rows[0][0])
	}
}

func TestTransactionRollback(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 2)
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "UPDATE accounts SET balance = 0 WHERE id = 0")
	mustExec(t, db, "DELETE FROM accounts WHERE id = 1")
	mustExec(t, db, "INSERT INTO accounts VALUES (7, 'new', 1)")
	mustExec(t, db, "ROLLBACK")

	res := mustExec(t, db, "SELECT id, balance FROM accounts ORDER BY id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1] != int64(100) {
		t.Errorf("balance after rollback = %v", res.Rows[0][1])
	}
	if db.Stats().Aborts != 1 {
		t.Errorf("aborts = %d", db.Stats().Aborts)
	}
}

// An UPDATE whose second SET fails has already changed the row; the
// rollback restores the row as it was before the statement.
func TestRollbackUndoesAFailedUpdate(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 1)
	mustExec(t, db, "BEGIN")
	if _, err := db.Exec("UPDATE accounts SET balance = 0, owner = ? WHERE id = 0", 5); err == nil {
		t.Fatal("storing an INT in a VARCHAR column succeeded")
	}
	mustExec(t, db, "ROLLBACK")
	if res := mustExec(t, db, "SELECT balance FROM accounts WHERE id = 0"); res.Rows[0][0] != int64(100) {
		t.Errorf("balance after rollback = %v, want 100", res.Rows[0][0])
	}
}

func TestTransactionCommit(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 1)
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "UPDATE accounts SET balance = 7 WHERE id = 0")
	mustExec(t, db, "COMMIT")
	res := mustExec(t, db, "SELECT balance FROM accounts WHERE id = 0")
	if res.Rows[0][0] != int64(7) {
		t.Errorf("balance = %v", res.Rows[0][0])
	}
}

func TestTxErrors(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec("COMMIT"); !errors.Is(err, ErrNoTx) {
		t.Errorf("COMMIT outside tx: %v", err)
	}
	if _, err := db.Exec("ROLLBACK"); !errors.Is(err, ErrNoTx) {
		t.Errorf("ROLLBACK outside tx: %v", err)
	}
	mustExec(t, db, "BEGIN")
	if _, err := db.Exec("BEGIN"); !errors.Is(err, ErrInTx) {
		t.Errorf("nested BEGIN: %v", err)
	}
}

func TestNullHandling(t *testing.T) {
	db := mustOpen(t)
	mustExec(t, db, "CREATE TABLE n (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO n VALUES (1, NULL), (2, 5)")
	res := mustExec(t, db, "SELECT COUNT(v), SUM(v) FROM n")
	if res.Rows[0][0] != int64(1) || res.Rows[0][1] != int64(5) {
		t.Errorf("aggregates over null = %v", res.Rows[0])
	}
}

func TestFloatColumns(t *testing.T) {
	db := mustOpen(t)
	mustExec(t, db, "CREATE TABLE d (id INT PRIMARY KEY, amount DECIMAL(12,2))")
	mustExec(t, db, "INSERT INTO d VALUES (1, 10), (2, 2.5)")
	mustExec(t, db, "UPDATE d SET amount = amount * 2 WHERE id = 2")
	res := mustExec(t, db, "SELECT SUM(amount) FROM d")
	if res.Rows[0][0] != 15.0 {
		t.Errorf("sum = %v", res.Rows[0][0])
	}
}

func TestParamNormalization(t *testing.T) {
	db := mustOpen(t)
	mustExec(t, db, "CREATE TABLE p (id INT PRIMARY KEY, v FLOAT)")
	mustExec(t, db, "INSERT INTO p VALUES (?, ?)", int(3), float32(1.5))
	res := mustExec(t, db, "SELECT v FROM p WHERE id = ?", 3)
	if len(res.Rows) != 1 || res.Rows[0][0] != 1.5 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestMissingParam(t *testing.T) {
	db := mustOpen(t)
	mustExec(t, db, "CREATE TABLE p (id INT PRIMARY KEY)")
	if _, err := db.Exec("INSERT INTO p VALUES (?)"); err == nil {
		t.Error("missing argument accepted")
	}
}

// -------------------------------------------------------------- snapshot --

func TestSnapshotRestore(t *testing.T) {
	a := mustOpen(t)
	setupAccounts(t, a, 50)
	b := mustOpen(t)
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Error("restored database differs")
	}
	// Restored DB is fully operational.
	mustExec(t, b, "UPDATE accounts SET balance = 0 WHERE id = 10")
	if Equal(a, b) {
		t.Error("databases equal after divergence")
	}
}

// Restore keeps the rows it is given, and PointAddInt changes a row in
// place, so each restore must be handed rows of its own: two databases
// restored from one image, or from two snapshots of one template, share
// no row.
func TestRestoredDatabasesShareNoRow(t *testing.T) {
	a := mustOpen(t)
	setupAccounts(t, a, 5)
	img := a.AppendDump(nil)
	for name, dumps := range map[string]func() ([]TableDump, error){
		"image":    func() ([]TableDump, error) { return DecodeDump(img) },
		"snapshot": func() ([]TableDump, error) { return a.Snapshot(), nil },
	} {
		b, c := mustOpen(t), mustOpen(t)
		for _, db := range []*DB{b, c} {
			d, err := dumps()
			if err == nil {
				err = db.Restore(d)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if ok, err := b.PointAddInt("accounts", 3, "balance", 7); !ok || err != nil {
			t.Fatalf("%s: update: %v %v", name, ok, err)
		}
		if !Equal(a, c) || Equal(b, c) {
			t.Errorf("%s: an update in one restored database reached another", name)
		}
	}
}

// The cost model of a state transfer: the sender pays per cell, the
// receiver per row and per payload byte, and both grow with the rows
// loaded (here through InsertBatch, which overwrites a repeated key).
func TestTransferCost(t *testing.T) {
	db := mustOpen(t)
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, owner TEXT, balance INT)")
	eng := db.Engine()
	if db.SerializeCost() != 0 || db.RestoreCost() != 0 {
		t.Fatalf("empty table costs %v to send and %v to restore, want 0", db.SerializeCost(), db.RestoreCost())
	}
	rows := [][]Value{{int64(1), "ab", int64(10)}, {int64(2), "abcd", int64(20)}, {int64(1), "ab", int64(10)}}
	if err := db.InsertBatch("t", rows); err != nil {
		t.Fatal(err)
	}
	if got, want := db.SerializeCost(), 2*3*eng.PerColSerialize; got != want {
		t.Errorf("SerializeCost = %v, want 2 rows x 3 columns = %v", got, want)
	}
	bytes := RowBytes(rows[0]) + RowBytes(rows[1])
	if got, want := db.RestoreCost(), 2*eng.RestoreRowCost+time.Duration(bytes)*eng.RestoreByteCost; got != want {
		t.Errorf("RestoreCost = %v, want 2 rows and %d bytes = %v", got, bytes, want)
	}
	if err := db.InsertBatch("t", [][]Value{{int64(3), "x"}}); err == nil {
		t.Error("InsertBatch took a row of 2 values into a 3-column table")
	}
}

// A restore is priced once, by RestoreCost: it counts no work in Stats,
// whose RowsInserted the engines would bill again as SQL inserts.
func TestRestoreCountsNoInserts(t *testing.T) {
	src := mustOpen(t)
	setupAccounts(t, src, 5)
	db := mustOpen(t)
	before := db.Stats()
	if err := db.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.TableLen("accounts"); n != 5 {
		t.Fatalf("restored %d rows, want 5", n)
	}
	if d := db.Stats().Sub(before); d != (Stats{}) {
		t.Errorf("Restore counted %+v, want nothing", d)
	}
}

// --------------------------------------------------------------- engines --

func TestOpenEngines(t *testing.T) {
	for name := range Engines() {
		if _, err := Open(name + ":mem:x"); err != nil {
			t.Errorf("Open(%s): %v", name, err)
		}
	}
	if _, err := Open("oracle:mem:x"); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestEngineLockModes(t *testing.T) {
	e := Engines()
	if e["h2"].Lock != TableLock {
		t.Error("h2 must use table locks (the paper's contention story)")
	}
	if e["mysql-innodb"].Lock != RowLock {
		t.Error("InnoDB must use row locks")
	}
	if e["mysql-mem"].Lock != TableLock {
		t.Error("MySQL memory engine must use table locks")
	}
}

func TestCostOf(t *testing.T) {
	h2 := Engines()["h2"]
	d := Stats{Statements: 1, RowsRead: 2, RowsWritten: 1}
	want := h2.PerStatement + 2*h2.PerRowRead + h2.PerRowWrite
	if got := h2.CostOf(d); got != want {
		t.Errorf("CostOf = %v, want %v", got, want)
	}
}

func TestEngineRelativeSpeeds(t *testing.T) {
	// The evaluation depends on H2 being the fastest engine.
	e := Engines()
	tx := Stats{Statements: 1, RowsRead: 1, RowsWritten: 1}
	h2 := e["h2"].CostOf(tx)
	for _, other := range []string{"hsqldb", "derby"} {
		if e[other].CostOf(tx) <= h2 {
			t.Errorf("%s is not slower than h2", other)
		}
	}
}

// ------------------------------------------------------------- properties --

func TestInsertSelectRoundTripProperty(t *testing.T) {
	db := mustOpen(t)
	mustExec(t, db, "CREATE TABLE rt (id INT PRIMARY KEY, s TEXT, f FLOAT)")
	used := map[int64]bool{}
	f := func(id int64, s string, fl float64) bool {
		if used[id] {
			return true
		}
		used[id] = true
		if _, err := db.Exec("INSERT INTO rt VALUES (?, ?, ?)", id, s, fl); err != nil {
			return false
		}
		res, err := db.Exec("SELECT s, f FROM rt WHERE id = ?", id)
		if err != nil || len(res.Rows) != 1 {
			return false
		}
		return res.Rows[0][0] == s && res.Rows[0][1] == fl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRollbackRestoresSnapshotProperty(t *testing.T) {
	// Any random transaction followed by ROLLBACK leaves the database
	// exactly as before — the invariant ShadowDB's abort handling needs.
	db := mustOpen(t)
	setupAccounts(t, db, 20)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		before := db.Snapshot()
		mustExec(t, db, "BEGIN")
		for i := 0; i < 1+rng.Intn(5); i++ {
			id := rng.Intn(25)
			switch rng.Intn(3) {
			case 0:
				_, _ = db.Exec("UPDATE accounts SET balance = balance + ? WHERE id = ?", rng.Intn(100), id)
			case 1:
				_, _ = db.Exec("DELETE FROM accounts WHERE id = ?", id)
			case 2:
				_, _ = db.Exec("INSERT INTO accounts VALUES (?, 'p', 1)", 100+rng.Intn(50))
			}
		}
		if db.InTx() {
			mustExec(t, db, "ROLLBACK")
		}
		after := db.Snapshot()
		if len(before) != len(after) || len(before[0].Rows) != len(after[0].Rows) {
			t.Fatalf("trial %d: row count changed across rollback", trial)
		}
		for r := range before[0].Rows {
			for c := range before[0].Rows[r] {
				if compareValues(before[0].Rows[r][c], after[0].Rows[r][c]) != 0 {
					t.Fatalf("trial %d: row %d differs after rollback", trial, r)
				}
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 3)
	before := db.Stats()
	mustExec(t, db, "SELECT * FROM accounts WHERE id = 1")
	mustExec(t, db, "UPDATE accounts SET balance = 0 WHERE id = 1")
	d := db.Stats().Sub(before)
	if d.Statements != 2 {
		t.Errorf("statements = %d", d.Statements)
	}
	if d.RowsRead < 2 {
		t.Errorf("rows read = %d", d.RowsRead)
	}
	if d.RowsWritten != 1 {
		t.Errorf("rows written = %d", d.RowsWritten)
	}
}

func TestValueHelpers(t *testing.T) {
	if k, _ := KindOf(int64(1)); k != KindInt {
		t.Error("KindOf int64")
	}
	if k, _ := KindOf("x"); k != KindText {
		t.Error("KindOf string")
	}
	if _, ok := KindOf([]int{}); ok {
		t.Error("KindOf accepted a slice")
	}
	if formatValue("o'hara") != "'o''hara'" {
		t.Errorf("formatValue quoting = %q", formatValue("o'hara"))
	}
	if ValueSize("abcd") != 4 || ValueSize(int64(9)) != 8 || ValueSize(nil) != 1 {
		t.Error("ValueSize mismatch")
	}
	if !strings.Contains(KindFloat.String(), "FLOAT") {
		t.Error("Kind.String")
	}
}
