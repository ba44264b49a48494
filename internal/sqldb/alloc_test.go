//go:build !race

package sqldb

import (
	"reflect"
	"testing"
)

// TestStatementAllocs pins what a statement allocates inside an open
// transaction once the DB's scratch, undo log and pre-image arena have
// grown to the workload: a SELECT allocates its result (one array of
// cells, one of row headers) whatever its row count, an UPDATE the
// value it stores, a DELETE nothing. It also checks that a Result does
// not alias that scratch. (The race detector adds allocations of its
// own, so this runs without it.)
func TestStatementAllocs(t *testing.T) {
	const rows = 4000 // 400 per group
	db := lineTable(t, rows)
	// Boxed up front: an int64 of 256 or more allocates when it is
	// converted to a Value, and that is the caller's allocation.
	box := make([]Value, rows)
	for i := range box {
		box[i] = int64(i)
	}
	type stmt struct {
		name, sql string
		args      []Value
		step      bool // the last argument is n = 0, 1, 2, ... in turn
		max       float64
	}
	rangeOf := func(n int) []Value { return []Value{box[7], box[10], box[10+n]} }
	stmts := []stmt{
		{"range select of 1 row", "SELECT n, v FROM line WHERE g = ? AND n >= ? AND n < ?", rangeOf(1), false, 2},
		{"range select of 16 rows", "SELECT n, v FROM line WHERE g = ? AND n >= ? AND n < ?", rangeOf(16), false, 2},
		{"range select of 256 rows", "SELECT n, v FROM line WHERE g = ? AND n >= ? AND n < ?", rangeOf(256), false, 2},
		{"reverse range select", "SELECT n FROM line WHERE g = ? AND n >= ? AND n < ? ORDER BY n DESC", rangeOf(64), false, 2},
		{"point select", "SELECT v FROM line WHERE g = ? AND n = ?", []Value{box[3], box[42]}, false, 2},
		// v + 1000 is a fresh int64 of 256 or more: the one boxed value
		// the statement stores.
		{"point update", "UPDATE line SET v = v + ? WHERE g = ? AND n = ?", []Value{box[1000], box[5], box[17]}, false, 1},
		// Each run deletes the next row of group 9.
		{"point delete", "DELETE FROM line WHERE g = ? AND n = ?", []Value{box[9], nil}, true, 0},
	}
	const runs = 100 // AllocsPerRun calls fn runs+1 times
	run := func(s stmt, i int) (Result, error) {
		if s.step {
			s.args[len(s.args)-1] = box[i]
		}
		return db.Exec(s.sql, s.args...)
	}
	// Grow the scratch, the undo log and the arena past what one
	// measured pass needs, then roll back: capacity stays, rows return.
	mustExec(t, db, "BEGIN")
	for _, s := range stmts {
		for i := 0; i <= runs; i++ {
			if _, err := run(s, i); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}
	}
	mustExec(t, db, "ROLLBACK")
	mustExec(t, db, "BEGIN")
	for _, s := range stmts {
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			res, err := run(s, i)
			if err != nil || (res.Rows == nil && res.Affected != 1) {
				t.Fatalf("%s: %+v, %v", s.name, res, err)
			}
			i++
		})
		if got > s.max {
			t.Errorf("%s allocated %.0f times, want at most %.0f", s.name, got, s.max)
		}
	}
	mustExec(t, db, "ROLLBACK")

	// A Result holds its values after the same DB runs more statements:
	// another SELECT, which reuses the match scratch, and an UPDATE of
	// the rows the first one returned.
	mustExec(t, db, "BEGIN")
	first := mustExec(t, db, "SELECT n, v FROM line WHERE g = ? AND n >= ? AND n < ?", rangeOf(32)...)
	want := make([][]Value, len(first.Rows))
	for i, r := range first.Rows {
		want[i] = append([]Value(nil), r...)
	}
	mustExec(t, db, "SELECT n, v FROM line WHERE g = ? AND n >= ? AND n < ?", box[2], box[0], box[200])
	mustExec(t, db, "UPDATE line SET v = 0 - v WHERE g = ? AND n >= ? AND n < ?", rangeOf(32)...)
	if len(want) != 32 || !reflect.DeepEqual(first.Rows, want) {
		t.Errorf("a first SELECT's rows changed under a later SELECT and UPDATE:\n got  %v\n want %v", first.Rows, want)
	}
	mustExec(t, db, "COMMIT")
}
