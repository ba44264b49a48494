package sqldb

import (
	"fmt"
	"sort"
	"time"
)

// Snapshots, restore and the cost model of state transfer (Section III
// of the paper): "State transfer consists in selecting the rows of each
// table, sending the rows in batches, and inserting them in the
// corresponding table at the destination replica." The bytes a transfer
// sends are the database image of dump.go.

// TableDump is one table's schema plus all rows in PK order.
type TableDump struct {
	Schema CreateTable
	Rows   [][]Value
}

// Snapshot dumps every table, tables sorted by name, rows in PK order.
func (db *DB) Snapshot() []TableDump {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	dumps := make([]TableDump, 0, len(names))
	for _, n := range names {
		t := db.tables[n]
		rows := make([][]Value, 0, t.Len())
		t.idx.ascend(nil, func(e entry) bool {
			rows = append(rows, append([]Value(nil), e.row...))
			return true
		})
		dumps = append(dumps, TableDump{Schema: t.Schema(), Rows: rows})
	}
	return dumps
}

// Restore replaces the database contents with the snapshot, whose rows
// it keeps and updates in place: hand each restore rows of its own. A
// snapshot with a schema the engine refuses leaves the database as it was.
func (db *DB) Restore(dumps []TableDump) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	tables := make(map[string]*Table, len(dumps))
	for _, d := range dumps {
		t, err := newTable(d.Schema)
		if err != nil {
			return fmt.Errorf("restore %s: %w", d.Schema.Name, err)
		}
		for _, row := range d.Rows {
			db.load(t, row)
		}
		tables[d.Schema.Name] = t
	}
	db.tables = tables
	db.gen++
	db.inTx = false
	db.truncateUndo(0)
	db.match, db.walk = nil, rangeWalk{}
	return nil
}

// InsertBatch inserts copies of pre-built rows into one table. Existing
// keys are overwritten.
func (db *DB) InsertBatch(table string, rows [][]Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(table)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != len(t.Cols) {
			return fmt.Errorf("sqldb: batch row has %d values, table %s has %d columns",
				len(row), table, len(t.Cols))
		}
		db.load(t, append([]Value(nil), row...))
		db.stats.RowsInserted++
	}
	return nil
}

// load stores a row, replacing any row with the same primary key. It
// counts nothing: a restore is not an SQL insert, and its receiver's
// cost is RestoreCost.
func (db *DB) load(t *Table, row []Value) {
	db.keyBuf = t.appendKey(db.keyBuf[:0], row)
	t.idx.put(db.keyBuf, row, true)
}

// SerializeCost models the sender's side of a state transfer of the
// database: every cell serialized ("serialization overhead is
// proportional to the number of table columns"), counted from the
// tables' sizes without touching a row.
func (db *DB) SerializeCost() time.Duration {
	db.mu.Lock()
	defer db.mu.Unlock()
	cells := 0
	for _, t := range db.tables {
		cells += t.Len() * len(t.Cols)
	}
	return time.Duration(cells) * db.eng.PerColSerialize
}

// RestoreCost models the receiver's side of a state transfer that left
// the database as it is: a per-row floor plus a per-byte component for
// wide rows ("row insertion speed constitutes the bottleneck of state
// transfer").
func (db *DB) RestoreCost() time.Duration {
	db.mu.Lock()
	defer db.mu.Unlock()
	rows, bytes := 0, 0
	for _, t := range db.tables {
		rows += t.Len()
		t.idx.ascend(nil, func(e entry) bool {
			bytes += RowBytes(e.row)
			return true
		})
	}
	return time.Duration(rows)*db.eng.RestoreRowCost + time.Duration(bytes)*db.eng.RestoreByteCost
}

// Equal reports whether two databases hold identical data — the
// state-agreement validator of the replication tests.
func Equal(a, b *DB) bool {
	da, dbb := a.Snapshot(), b.Snapshot()
	if len(da) != len(dbb) {
		return false
	}
	for i := range da {
		if da[i].Schema.Name != dbb[i].Schema.Name || len(da[i].Rows) != len(dbb[i].Rows) {
			return false
		}
		for r := range da[i].Rows {
			ra, rb := da[i].Rows[r], dbb[i].Rows[r]
			if len(ra) != len(rb) {
				return false
			}
			for c := range ra {
				if compareValues(ra[c], rb[c]) != 0 {
					return false
				}
			}
		}
	}
	return true
}
