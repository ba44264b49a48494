package sqldb

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// A cached statement is re-resolved when the schema under it changes:
// column positions, the primary key (and with it the access path), and
// the table's existence all come from the current schema, never from
// the plan made for an earlier one.
func TestPlanFollowsSchemaChanges(t *testing.T) {
	db := mustOpen(t)
	const sel = "SELECT v FROM t WHERE k = ?"
	const ins = "INSERT INTO t VALUES (?, ?)"
	mustExec(t, db, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
	mustExec(t, db, ins, 1, 10)
	if res := mustExec(t, db, sel, 1); len(res.Rows) != 1 || res.Rows[0][0] != int64(10) {
		t.Fatalf("before the change: %v", res.Rows)
	}

	// Same statements, columns swapped: v is now first and the key.
	mustExec(t, db, "DROP TABLE t")
	mustExec(t, db, "CREATE TABLE t (v INT PRIMARY KEY, k INT)")
	mustExec(t, db, ins, 20, 2)
	mustExec(t, db, ins, 30, 3)
	before := db.Stats()
	res := mustExec(t, db, sel, 2)
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(20) {
		t.Errorf("after DROP+CREATE the cached SELECT returned %v, want [[20]]", res.Rows)
	}
	// k is no longer the key, so the statement scans both rows.
	if d := db.Stats().Sub(before); d.RowsRead != 1 || d.RowsScanned != 1 {
		t.Errorf("after DROP+CREATE: read %d scanned %d, want the full scan's 1 and 1", d.RowsRead, d.RowsScanned)
	}

	// A rolled-back CREATE takes the plans made inside the transaction
	// with it.
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "CREATE TABLE u (k INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO u VALUES (?)", 1)
	mustExec(t, db, "ROLLBACK")
	if _, err := db.Exec("INSERT INTO u VALUES (?)", 1); !errors.Is(err, ErrNoTable) {
		t.Errorf("insert into a rolled-back table: %v, want ErrNoTable", err)
	}
	mustExec(t, db, "CREATE TABLE u (j INT, k INT PRIMARY KEY)")
	if _, err := db.Exec("INSERT INTO u VALUES (?)", 1); err == nil || !strings.Contains(err.Error(), "1 values for 2 columns") {
		t.Errorf("insert against the re-created table: %v, want the column-count error", err)
	}

	// Restore replaces every table.
	other := mustOpen(t)
	mustExec(t, other, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
	mustExec(t, other, ins, 2, 99)
	if err := db.Restore(other.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if res := mustExec(t, db, sel, 2); len(res.Rows) != 1 || res.Rows[0][0] != int64(99) {
		t.Errorf("after Restore the cached SELECT returned %v, want [[99]]", res.Rows)
	}
}

// Resolving names ahead of execution must not move the point at which
// a bad name is reported: a SELECT list or SET clause naming an unknown
// column fails after the scan (whose rows Stats has counted), and an
// unknown column inside a SET expression fails only if a row reaches it.
func TestPlanReportsBadNamesWhereExecutionDid(t *testing.T) {
	db := mustOpen(t)
	setupAccounts(t, db, 5)
	for _, c := range []struct {
		sql             string
		wantErr         string
		read, statement int64
	}{
		{"SELECT nosuch FROM accounts", `no column "nosuch"`, 5, 1},
		{"SELECT balance FROM accounts ORDER BY nosuch", `no column "nosuch"`, 5, 1},
		{"SELECT balance FROM accounts WHERE nosuch = 1", `no column "nosuch"`, 0, 1},
		{"UPDATE accounts SET nosuch = 1", `no column "nosuch"`, 5, 1},
		{"UPDATE accounts SET id = 9", "cannot update primary key", 5, 1},
		{"UPDATE accounts SET balance = nosuch + 1 WHERE id = 3", `no column "nosuch"`, 1, 1},
		{"UPDATE accounts SET balance = nosuch + 1 WHERE id = 77", "", 0, 1},
		{"INSERT INTO accounts (id, nosuch) VALUES (9, 9)", `no column "nosuch"`, 0, 1},
	} {
		for run := 0; run < 2; run++ { // second run: the cached plan
			before := db.Stats()
			_, err := db.Exec(c.sql)
			if (c.wantErr == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
				t.Errorf("%s (run %d): error %v, want %q", c.sql, run, err, c.wantErr)
			}
			if d := db.Stats().Sub(before); d.RowsRead != c.read || d.Statements != c.statement || d.RowsWritten != 0 {
				t.Errorf("%s (run %d): counted %+v, want %d rows read and nothing written", c.sql, run, d, c.read)
			}
		}
	}
}

// A key bound narrows a walk only where the key order is compareValues'
// order, which rowMatches applies. Above 2^53 a float compares with an
// INT column in float64, where neighbouring integers are equal: such a
// value narrows nothing, whether it bounds a range or pins a column,
// and every row it matches is found. NaN sorts below every number in
// both orders, so it narrows like any other float.
func TestKeyBoundsKeepCompareValuesOrder(t *testing.T) {
	db := mustOpen(t)
	mustExec(t, db, "CREATE TABLE i (k INT PRIMARY KEY)")
	mustExec(t, db, "CREATE TABLE f (x FLOAT PRIMARY KEY)")
	for _, k := range []int64{1 << 53, 1<<53 + 1, math.MaxInt64} {
		mustExec(t, db, "INSERT INTO i VALUES (?)", k)
	}
	for _, x := range []float64{math.NaN(), -1, 0, 2.5} {
		mustExec(t, db, "INSERT INTO f VALUES (?)", x)
	}
	two53 := float64(1 << 53)
	for _, c := range []struct {
		sql  string
		arg  Value
		want int
	}{
		{"SELECT k FROM i WHERE k <= ?", two53, 2},
		{"SELECT k FROM i WHERE k > ?", two53, 1},
		{"SELECT k FROM i WHERE k = ?", two53, 2},
		{"SELECT k FROM i WHERE k <= ? ORDER BY k DESC LIMIT 1", two53, 1},
		{"SELECT k FROM i WHERE k >= ?", float64(math.MaxInt64), 1},
		{"SELECT x FROM f WHERE x <= ?", 1.0, 3},
		{"SELECT x FROM f WHERE x > ?", 1.0, 1},
		{"SELECT x FROM f WHERE x >= ?", math.NaN(), 4},
		{"SELECT x FROM f WHERE x < ? ORDER BY x DESC", math.NaN(), 0},
		{"SELECT x FROM f WHERE x = ?", math.Copysign(math.NaN(), -1), 1},
	} {
		res := mustExec(t, db, c.sql, c.arg)
		if len(res.Rows) != c.want {
			t.Errorf("%s [%v]: %d rows %v, want %d", c.sql, c.arg, len(res.Rows), res.Rows, c.want)
		}
	}
	res := mustExec(t, db, "SELECT k FROM i WHERE k <= ? ORDER BY k DESC LIMIT 1", two53)
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1<<53+1) {
		t.Errorf("reverse walk under 2^53 returned %v, want [[%d]]", res.Rows, int64(1<<53+1))
	}
	// A pin that narrows nothing scans the whole table, whose key order
	// is not the ORDER BY's: the rows are sorted before the LIMIT.
	mustExec(t, db, "CREATE TABLE p (a INT, b INT, PRIMARY KEY (a, b))")
	mustExec(t, db, "INSERT INTO p VALUES (?, ?)", int64(1<<53), 5)
	mustExec(t, db, "INSERT INTO p VALUES (?, ?)", int64(1<<53+1), 1)
	res = mustExec(t, db, "SELECT b FROM p WHERE a = ? ORDER BY b LIMIT 1", two53)
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1) {
		t.Errorf("ORDER BY b LIMIT 1 over a full scan returned %v, want [[1]]", res.Rows)
	}
}
