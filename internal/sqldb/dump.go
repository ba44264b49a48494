package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// The binary database image: what a replica writes to its own disk when
// it compacts its journal (core's durable snapshots), and what a state
// transfer sends. AppendDump walks each table's index and appends rows
// to one buffer — no intermediate copy of the database, no reflection
// over []Value — and DecodeDump turns the bytes back into the
// TableDumps that Restore installs.
//
// Layout, all integers varint-encoded:
//
//	"SDB1" ntables { name ncols { colname kind } npk { colindex } nrows { value... } }
//
// with tables in name order, rows in PK order, ncols values per row, and
// a value being a tag byte followed by nothing (NULL), a signed varint
// (INT), eight little-endian bytes (FLOAT) or a length and bytes (TEXT).

const dumpMagic = "SDB1"

const (
	dumpNull = iota
	dumpInt
	dumpFloat
	dumpText
)

// AppendDump appends the database image to dst and returns the
// extended buffer.
func (db *DB) AppendDump(dst []byte) []byte {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	dst = append(dst, dumpMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		t := db.tables[n]
		dst = appendDumpText(dst, t.Name)
		dst = binary.AppendUvarint(dst, uint64(len(t.Cols)))
		for _, c := range t.Cols {
			dst = appendDumpText(dst, c.Name)
			dst = binary.AppendUvarint(dst, uint64(c.Kind))
		}
		dst = binary.AppendUvarint(dst, uint64(len(t.PK)))
		for _, c := range t.PK {
			dst = binary.AppendUvarint(dst, uint64(c))
		}
		dst = binary.AppendUvarint(dst, uint64(t.Len()))
		t.idx.ascend(nil, func(e entry) bool {
			for _, v := range e.row {
				dst = appendDumpValue(dst, v)
			}
			return true
		})
	}
	return dst
}

func appendDumpText(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendDumpValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, dumpNull)
	case int64:
		return binary.AppendVarint(append(dst, dumpInt), x)
	case float64:
		return binary.LittleEndian.AppendUint64(append(dst, dumpFloat), math.Float64bits(x))
	case string:
		return appendDumpText(append(dst, dumpText), x)
	default:
		// Rows hold only what coerce and the wire codec produce.
		panic(fmt.Sprintf("sqldb: cannot dump a %T", v))
	}
}

// errDump is the one failure DecodeDump reports: the bytes are not a
// database image (truncated, corrupted, or another format).
var errDump = errors.New("sqldb: malformed database dump")

// dumpReader consumes a dump; the first malformed field latches bad and
// every later read returns zero values.
type dumpReader struct {
	b   []byte
	bad bool
}

func (r *dumpReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a length that the rest of the dump must be able to back:
// each counted item occupies at least min bytes.
func (r *dumpReader) count(min int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/min) {
		r.bad = true
		return 0
	}
	return int(v)
}

func (r *dumpReader) text() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *dumpReader) value() Value {
	if len(r.b) == 0 {
		r.bad = true
		return nil
	}
	tag := r.b[0]
	r.b = r.b[1:]
	switch tag {
	case dumpNull:
		return nil
	case dumpInt:
		v, n := binary.Varint(r.b)
		if n <= 0 {
			r.bad = true
			return nil
		}
		r.b = r.b[n:]
		return v
	case dumpFloat:
		if len(r.b) < 8 {
			r.bad = true
			return nil
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
		r.b = r.b[8:]
		return v
	case dumpText:
		return r.text()
	}
	r.bad = true
	return nil
}

// DecodeDump parses a database image produced by AppendDump. It
// validates structure only — lengths, tags, column kinds, PK indices —
// and allocates no more than a constant multiple of len(b); Restore
// applies the schema rules (duplicate columns, empty keys).
func DecodeDump(b []byte) ([]TableDump, error) {
	if len(b) < len(dumpMagic) || string(b[:len(dumpMagic)]) != dumpMagic {
		return nil, errDump
	}
	r := &dumpReader{b: b[len(dumpMagic):]}
	ntables := r.count(1)
	dumps := make([]TableDump, 0, ntables)
	for len(dumps) < ntables {
		var d TableDump
		d.Schema.Name = r.text()
		d.Schema.Cols = make([]ColumnDef, r.count(2))
		for i := range d.Schema.Cols {
			c := ColumnDef{Name: r.text(), Kind: Kind(r.uvarint())}
			if c.Kind < KindInt || c.Kind > KindText {
				r.bad = true
			}
			d.Schema.Cols[i] = c
		}
		d.Schema.PrimaryKey = make([]string, r.count(1))
		for i := range d.Schema.PrimaryKey {
			c := r.uvarint()
			if c >= uint64(len(d.Schema.Cols)) {
				r.bad = true
				break
			}
			d.Schema.PrimaryKey[i] = d.Schema.Cols[c].Name
		}
		ncols := len(d.Schema.Cols)
		if ncols == 0 {
			r.bad = true
		}
		if r.bad {
			return nil, errDump
		}
		d.Rows = make([][]Value, r.count(ncols))
		vals := make([]Value, len(d.Rows)*ncols) // one backing array per table
		for i := range d.Rows {
			row := vals[i*ncols : (i+1)*ncols : (i+1)*ncols]
			for c := range row {
				row[c] = r.value()
			}
			d.Rows[i] = row
		}
		if r.bad {
			return nil, errDump
		}
		dumps = append(dumps, d)
	}
	if r.bad || len(r.b) != 0 {
		return nil, errDump
	}
	return dumps, nil
}
