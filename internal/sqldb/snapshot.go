package sqldb

import (
	"fmt"
	"sort"
)

// Snapshots and batched restore: the substrate of ShadowDB state transfer
// (Section III of the paper). "State transfer consists in selecting the
// rows of each table, sending the rows in batches, and inserting them in
// the corresponding table at the destination replica."

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

// Restore replaces the database contents with the snapshot. A snapshot
// with a schema the engine refuses leaves the database as it was.
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
	db.undo = nil
	return nil
}

// InsertBatch inserts pre-built rows into one table, the receive side of
// batched state transfer. Existing keys are overwritten (transfer is
// idempotent under retry).
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
		db.load(t, row)
	}
	return nil
}

// load stores a copy of a transferred row, replacing any row with the
// same primary key.
func (db *DB) load(t *Table, row []Value) {
	r := append([]Value(nil), row...)
	db.keyBuf = t.appendKey(db.keyBuf[:0], r)
	t.idx.put(db.keyBuf, r, true)
	db.stats.RowsInserted++
}

// Batch is a slice of one table's rows sized for a transfer message.
type Batch struct {
	Table string
	Rows  [][]Value
}

// SplitBatches cuts a dump into batches of at most targetBytes serialized
// payload each (at least one row per batch) — the paper used batches
// "close to 50 kilobytes in serialized form".
func SplitBatches(d TableDump, targetBytes int) []Batch {
	if targetBytes <= 0 {
		targetBytes = 50 * 1024
	}
	var out []Batch
	cur := Batch{Table: d.Schema.Name}
	size := 0
	for _, row := range d.Rows {
		rb := RowBytes(row)
		if size > 0 && size+rb > targetBytes {
			out = append(out, cur)
			cur = Batch{Table: d.Schema.Name}
			size = 0
		}
		cur.Rows = append(cur.Rows, row)
		size += rb
	}
	if len(cur.Rows) > 0 || len(out) == 0 {
		out = append(out, cur)
	}
	return out
}

// DumpBytes models the serialized payload size of a dump.
func DumpBytes(d TableDump) int {
	n := 0
	for _, row := range d.Rows {
		n += RowBytes(row)
	}
	return n
}

// SnapshotBytes models the total payload of a snapshot.
func SnapshotBytes(dumps []TableDump) int {
	n := 0
	for _, d := range dumps {
		n += DumpBytes(d)
	}
	return n
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
