package sqldb

import (
	"errors"
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
