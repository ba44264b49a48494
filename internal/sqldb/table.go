package sqldb

import "fmt"

// Table is an in-memory relation. Its rows live in one ordered index
// keyed by the encoded primary key (index.go, key.go), so scans and
// snapshots walk them in PK order.
type Table struct {
	Name   string
	Cols   []ColumnDef
	PK     []int // column indices of the primary key
	colIdx map[string]int
	idx    index
}

func newTable(st CreateTable) (*Table, error) {
	t := &Table{
		Name:   st.Name,
		Cols:   append([]ColumnDef(nil), st.Cols...),
		colIdx: make(map[string]int, len(st.Cols)),
	}
	for i, c := range st.Cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("sqldb: duplicate column %q in table %s", c.Name, st.Name)
		}
		t.colIdx[c.Name] = i
	}
	if len(st.PrimaryKey) == 0 {
		return nil, fmt.Errorf("sqldb: table %s has no primary key", st.Name)
	}
	for _, k := range st.PrimaryKey {
		i, ok := t.colIdx[k]
		if !ok {
			return nil, fmt.Errorf("sqldb: primary key column %q not in table %s", k, st.Name)
		}
		t.PK = append(t.PK, i)
	}
	return t, nil
}

// colIndex resolves a column name.
func (t *Table) colIndex(name string) (int, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("sqldb: no column %q in table %s", name, t.Name)
	}
	return i, nil
}

// Len returns the row count.
func (t *Table) Len() int { return t.idx.n }

// Schema reconstructs the CREATE TABLE statement of the table, used by
// snapshots.
func (t *Table) Schema() CreateTable {
	pk := make([]string, len(t.PK))
	for i, c := range t.PK {
		pk[i] = t.Cols[c].Name
	}
	cols := make([]ColumnDef, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = ColumnDef{Name: c.Name, Kind: c.Kind}
	}
	return CreateTable{Name: t.Name, Cols: cols, PrimaryKey: pk}
}

// RowBytes models the serialized size of a row (payload only).
func RowBytes(row []Value) int {
	n := 0
	for _, v := range row {
		n += ValueSize(v)
	}
	return n
}
