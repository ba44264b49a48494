package sqldb

import "fmt"

// Point access: allocation-free fast paths for single-row primary-key
// operations on tables with a single int64 PK column. The SQL path
// (Exec/execSelect/execUpdate) evaluates conditions and materializes
// result slices on every call; these entry points encode the PK into
// the reusable scratch buffer and touch the row in place, so the
// steady-state read-serve loop performs no allocations at all
// (readpath_bench_test pins this).

// pointRow locates the row with the given int64 primary key. The
// caller holds db.mu.
func (db *DB) pointRow(table string, pk int64) (*Table, []Value, bool) {
	t, ok := db.tables[table]
	if !ok || len(t.PK) != 1 {
		return nil, nil, false
	}
	db.keyBuf = appendIntKey(db.keyBuf[:0], pk)
	e, ok := t.idx.get(db.keyBuf)
	return t, e.row, ok
}

// PointGet returns the named column of the row with the given int64
// primary key. The returned Value is the stored (already boxed) value;
// the call allocates nothing.
func (db *DB) PointGet(table string, pk int64, col string) (Value, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, row, ok := db.pointRow(table, pk)
	if !ok {
		return nil, false
	}
	ci, ok := t.colIdx[col]
	if !ok {
		return nil, false
	}
	db.stats.RowsRead++
	return row[ci], true
}

// PointAddInt adds delta to an int64 column of the row with the given
// primary key, in place. The mutation is NOT undo-logged: a RollbackTo
// across it will not restore the previous value. It is intended for
// FastProc bodies, which by contract cannot fail after mutating (the
// executor's batch path never rolls back across them). Returns false
// when the row or column does not exist or the column is not an int64.
func (db *DB) PointAddInt(table string, pk int64, col string, delta int64) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, row, ok := db.pointRow(table, pk)
	if !ok {
		return false, nil
	}
	ci, ok := t.colIdx[col]
	if !ok {
		return false, fmt.Errorf("sqldb: no column %q in table %s", col, table)
	}
	v, ok := row[ci].(int64)
	if !ok {
		return false, fmt.Errorf("sqldb: column %q of table %s is not an integer", col, table)
	}
	row[ci] = v + delta
	db.stats.RowsWritten++
	return true, nil
}
