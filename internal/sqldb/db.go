package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// DB is one database instance. Statement execution is serialized by an
// internal mutex. Transactional rollback replays a typed undo log, newest
// record first; an UPDATE's record points into an arena holding the
// row's pre-image. A statement allocates only what it hands back or
// stores: its matches and range bounds live in scratch the DB owns,
// which is valid until the next statement, so nothing Exec returns may
// alias it.
type DB struct {
	mu     sync.Mutex
	eng    Engine
	tables map[string]*Table
	// gen counts schema changes; plans resolved at an older generation
	// are rebuilt (plan.go).
	gen   uint64
	inTx  bool
	cache map[string]*prepared
	stats Stats
	// undo is the open transaction's undo log and pre the arena of its
	// UPDATEs' pre-images. COMMIT and ROLLBACK empty both and keep
	// their capacity.
	undo []undoRec
	pre  []Value
	// Per-statement scratch, guarded by mu like everything else: keyBuf
	// is the PK encoding of every lookup; loBuf, hiBuf and boundBuf a
	// range walk's ends; walk the walk under way; match a read's
	// matching entries.
	keyBuf, loBuf, hiBuf, boundBuf []byte
	walk                           rangeWalk
	match                          []entry
}

// Stats counts work done, the input to the engines' virtual cost models.
type Stats struct {
	Statements   int64
	RowsRead     int64
	RowsScanned  int64 // rows examined but not matched by a scan
	RowsWritten  int64
	RowsInserted int64
	RowsDeleted  int64
	Aborts       int64
}

// Sub returns the difference s - o, for measuring one transaction.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Statements:   s.Statements - o.Statements,
		RowsRead:     s.RowsRead - o.RowsRead,
		RowsScanned:  s.RowsScanned - o.RowsScanned,
		RowsWritten:  s.RowsWritten - o.RowsWritten,
		RowsInserted: s.RowsInserted - o.RowsInserted,
		RowsDeleted:  s.RowsDeleted - o.RowsDeleted,
		Aborts:       s.Aborts - o.Aborts,
	}
}

// Result is the outcome of one statement.
type Result struct {
	// Cols names the output columns of a SELECT.
	Cols []string
	// Rows holds SELECT output.
	Rows [][]Value
	// Affected is the number of rows written/deleted/inserted.
	Affected int
}

// Sentinel errors.
var (
	// ErrNoTable is returned for statements against unknown tables.
	ErrNoTable = errors.New("sqldb: no such table")
	// ErrDuplicate is returned on primary-key violations.
	ErrDuplicate = errors.New("sqldb: duplicate primary key")
	// ErrNoTx is returned for COMMIT/ROLLBACK outside a transaction.
	ErrNoTx = errors.New("sqldb: no transaction in progress")
	// ErrInTx is returned for BEGIN inside a transaction.
	ErrInTx = errors.New("sqldb: transaction already in progress")
)

// New creates an empty database with the given engine personality.
func New(eng Engine) *DB {
	return &DB{
		eng:    eng,
		tables: make(map[string]*Table),
		cache:  make(map[string]*prepared),
	}
}

// Engine returns the database's engine personality.
func (db *DB) Engine() Engine { return db.eng }

// Stats returns a copy of the cumulative work counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// NumTables returns the number of tables.
func (db *DB) NumTables() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.tables)
}

// TableLen returns a table's row count (0, false when absent).
func (db *DB) TableLen(name string) (int, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return 0, false
	}
	return t.Len(), true
}

// Exec parses (with a statement cache) and executes one statement.
func (db *DB) Exec(sql string, args ...Value) (Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	p, ok := db.cache[sql]
	if !ok {
		stmt, err := Parse(sql)
		if err != nil {
			return Result{}, err
		}
		p = &prepared{stmt: stmt}
		db.cache[sql] = p
	}
	return db.execStmt(p, args)
}

func (db *DB) execStmt(p *prepared, args []Value) (Result, error) {
	stmt := p.stmt
	switch stmt.(type) {
	case Begin, Commit, Rollback:
		// Transaction control does no table work and is free in the cost
		// model.
	default:
		db.stats.Statements++
	}
	switch st := stmt.(type) {
	case CreateTable:
		return db.execCreate(st)
	case DropTable:
		return db.execDrop(st)
	case Insert:
		return db.execInsert(p, st, args)
	case Select:
		return db.execSelect(p, st, args)
	case Update:
		return db.execUpdate(p, st, args)
	case Delete:
		return db.execDelete(p, st, args)
	case Begin:
		if db.inTx {
			return Result{}, ErrInTx
		}
		db.inTx = true
		return Result{}, nil
	case Commit:
		if !db.inTx {
			return Result{}, ErrNoTx
		}
		db.inTx = false
		db.truncateUndo(0)
		return Result{}, nil
	case Rollback:
		if !db.inTx {
			return Result{}, ErrNoTx
		}
		db.rollback()
		return Result{}, nil
	default:
		return Result{}, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
}

// InTx reports whether an explicit transaction is open.
func (db *DB) InTx() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.inTx
}

func (db *DB) rollback() {
	db.undoTo(0)
	db.inTx = false
	db.stats.Aborts++
}

// Savepoint marks the current position in the open transaction's undo
// log. RollbackTo(mark) later undoes everything after the mark without
// ending the transaction — the partial-rollback primitive group commit
// needs to abort one transaction of a batch while keeping the rest.
func (db *DB) Savepoint() (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.inTx {
		return 0, ErrNoTx
	}
	return len(db.undo), nil
}

// RollbackTo undoes every change made after mark (a value returned by
// Savepoint in the same transaction). The transaction stays open; the
// abort is counted in Stats.
func (db *DB) RollbackTo(mark int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.inTx {
		return ErrNoTx
	}
	if mark < 0 || mark > len(db.undo) {
		return fmt.Errorf("sqldb: savepoint %d out of range (undo depth %d)", mark, len(db.undo))
	}
	db.undoTo(mark)
	db.stats.Aborts++
	return nil
}

// undoOp names the change an undo record reverses.
type undoOp uint8

const (
	undoCreate undoOp = iota // CREATE TABLE t: remove t
	undoDrop                 // DROP TABLE t: reinstate t
	undoInsert               // a row inserted into t: delete e.key
	undoUpdate               // a row updated in place: restore e.row's pre-image
	undoDelete               // a row deleted from t: put e back
)

// undoRec is one record of the undo log. pre is the arena's length when
// the record was pushed: an UPDATE's pre-image is the len(e.row) values
// that start there.
type undoRec struct {
	op  undoOp
	t   *Table
	e   entry
	pre int
}

// pushUndo records a change when inside a transaction, an UPDATE's
// before the row changes.
func (db *DB) pushUndo(op undoOp, t *Table, e entry) {
	if !db.inTx {
		return
	}
	db.undo = append(db.undo, undoRec{op: op, t: t, e: e, pre: len(db.pre)})
	if op == undoUpdate {
		db.pre = append(db.pre, e.row...)
	}
}

// undoTo reverses the undo log's records from mark on, newest first, and
// drops them.
func (db *DB) undoTo(mark int) {
	for i := len(db.undo) - 1; i >= mark; i-- {
		r := &db.undo[i]
		switch r.op {
		case undoCreate:
			db.setTable(r.t.Name, nil)
		case undoDrop:
			db.setTable(r.t.Name, r.t)
		case undoInsert:
			r.t.idx.delete(r.e.key)
		case undoUpdate:
			copy(r.e.row, db.pre[r.pre:])
		case undoDelete:
			r.t.idx.put(r.e.key, r.e.row, true)
		}
	}
	db.truncateUndo(mark)
}

// truncateUndo drops the undo log's records from mark on and their
// pre-images. Both slices keep their capacity, with the dropped slots
// cleared so that they keep no table or row reachable.
func (db *DB) truncateUndo(mark int) {
	pre := len(db.pre)
	if mark < len(db.undo) {
		pre = db.undo[mark].pre
	}
	clear(db.undo[mark:])
	db.undo = db.undo[:mark]
	clear(db.pre[pre:])
	db.pre = db.pre[:pre]
}

func (db *DB) table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// setTable installs (or, with nil, removes) a table and retires every
// plan resolved against the old schema.
func (db *DB) setTable(name string, t *Table) {
	if t == nil {
		delete(db.tables, name)
	} else {
		db.tables[name] = t
	}
	db.gen++
}

func (db *DB) execCreate(st CreateTable) (Result, error) {
	if _, exists := db.tables[st.Name]; exists {
		if st.IfNotExists {
			return Result{}, nil
		}
		return Result{}, fmt.Errorf("sqldb: table %s already exists", st.Name)
	}
	t, err := newTable(st)
	if err != nil {
		return Result{}, err
	}
	db.setTable(st.Name, t)
	db.pushUndo(undoCreate, t, entry{})
	return Result{}, nil
}

func (db *DB) execDrop(st DropTable) (Result, error) {
	t, exists := db.tables[st.Name]
	if !exists {
		if st.IfExists {
			return Result{}, nil
		}
		return Result{}, fmt.Errorf("%w: %s", ErrNoTable, st.Name)
	}
	db.setTable(st.Name, nil)
	db.pushUndo(undoDrop, t, entry{})
	return Result{}, nil
}

func (db *DB) execInsert(p *prepared, st Insert, args []Value) (Result, error) {
	pl, err := db.planFor(p, st.Table)
	if err != nil {
		return Result{}, err
	}
	if pl.insErr != nil {
		return Result{}, pl.insErr
	}
	t, cols := pl.t, pl.insCols
	n := 0
	for _, exprs := range st.Rows {
		if len(exprs) != len(cols) {
			return Result{}, fmt.Errorf("sqldb: %d values for %d columns in %s", len(exprs), len(cols), t.Name)
		}
		row := make([]Value, len(t.Cols))
		for i, e := range exprs {
			v, err := evalExpr(e, nil, nil, args)
			if err != nil {
				return Result{}, err
			}
			if row[cols[i]], err = coerce(v, t.Cols[cols[i]].Kind); err != nil {
				return Result{}, err
			}
		}
		db.keyBuf = t.appendKey(db.keyBuf[:0], row)
		key, dup := t.idx.put(db.keyBuf, row, false)
		if dup {
			return Result{}, fmt.Errorf("%w: %s", ErrDuplicate, t.Name)
		}
		db.stats.RowsInserted++
		db.pushUndo(undoInsert, t, entry{key: key})
		n++
	}
	return Result{Affected: n}, nil
}

// matchRows returns the rows satisfying the plan's WHERE conjuncts, in
// db.match: scratch that the next statement overwrites. It walks the
// index over the key range the plan's access path (plan.go) allows:
// none but the one key for a point lookup, the keys that share the
// pinned prefix and lie within the next column's bounds for a range,
// every key for a full scan. The walk runs in the key order the caller
// asks for and stops after max matches when max >= 0 (the LIMIT fast
// path of an ORDER BY that follows the walk). keyed reports whether the
// walk kept to the plan's range. When it did not, the rows come from a
// full ascending scan, in no key order the caller can rely on, and no
// match limit applied to them unless the caller asked for anyOrder.
func (db *DB) matchRows(pl *plan, args []Value, order scanOrder, max int) (rows []entry, keyed bool, err error) {
	t := pl.t
	conds := pl.vals[:0]
	for _, c := range pl.conds {
		if c.err != nil {
			return nil, false, c.err
		}
		v, err := evalExpr(c.val, nil, nil, args)
		if err != nil {
			return nil, false, err
		}
		conds = append(conds, compiledCond{col: c.col, op: c.op, val: v})
	}
	pl.vals = conds
	// A pinned value that no key of its column encodes (keyValue) turns
	// the statement into a full scan, which rowMatches filters.
	keyed = true
	prefix := db.keyBuf[:0]
	for i, at := range pl.pinned {
		v, ok := keyValue(conds[at].val, t.Cols[t.PK[i]].Kind)
		if !ok {
			prefix, keyed = prefix[:0], false
			break
		}
		prefix = appendKeyPart(prefix, v)
	}
	db.keyBuf = prefix
	db.match = db.match[:0]
	if keyed && len(pl.pinned) == len(t.PK) {
		e, exists := t.idx.get(prefix)
		if !exists {
			return db.match, true, nil
		}
		db.stats.RowsRead++
		if rowMatches(e.row, conds) {
			db.match = append(db.match, e)
		}
		return db.match, true, nil
	}
	if !keyed && order != anyOrder {
		order, max = anyOrder, -1
	}
	// The walk covers [lo, hi); a nil hi is unbounded. The prefix's keys
	// end where keyEnd says, and each bound on the next PK column that
	// keyValue accepts narrows one end: k >= v starts at v's key, k > v
	// past every key extending it; k < v ends at v's key, k <= v past
	// every key extending it.
	lo := append(db.loBuf[:0], prefix...)
	var hi []byte
	if len(prefix) > 0 {
		hi = keyEnd(append(db.hiBuf[:0], prefix...))
	}
	if keyed {
		kind := t.Cols[t.PK[len(pl.pinned)]].Kind
		for _, at := range pl.bounds {
			c := conds[at]
			v, ok := keyValue(c.val, kind)
			if !ok {
				continue
			}
			b := appendKeyPart(append(db.boundBuf[:0], prefix...), v)
			db.boundBuf = b
			if c.op == OpGt || c.op == OpLe {
				b = keyEnd(b)
			}
			switch {
			case (c.op == OpGe || c.op == OpGt) && bytes.Compare(b, lo) > 0:
				lo = append(lo[:0], b...)
			case (c.op == OpLt || c.op == OpLe) && (hi == nil || bytes.Compare(b, hi) < 0):
				hi = append(db.hiBuf[:0], b...)
			}
		}
	}
	db.loBuf = lo
	if hi != nil {
		db.hiBuf = hi
	}
	db.walk = rangeWalk{conds: conds, lo: lo, hi: hi, max: max}
	if order == keyDesc {
		t.idx.descend(hi, db.walkDesc)
	} else {
		t.idx.ascend(lo, db.walkAsc)
	}
	return db.match, keyed, nil
}

// rangeWalk is the index walk under way in matchRows, kept in the DB so
// that its visitors are methods rather than closures built per
// statement.
type rangeWalk struct {
	conds  []compiledCond
	lo, hi []byte // the key range [lo, hi); a nil hi is unbounded
	max    int    // stop at max matches; -1 for no limit
}

// walkAsc and walkDesc visit an entry of the walk in ascending or
// descending key order: they stop at the range's far end and examine
// every entry before it.
func (db *DB) walkAsc(e entry) bool {
	return (db.walk.hi == nil || bytes.Compare(e.key, db.walk.hi) < 0) && db.examine(e)
}

func (db *DB) walkDesc(e entry) bool {
	return bytes.Compare(e.key, db.walk.lo) >= 0 && db.examine(e)
}

// examine appends a walked entry to db.match if it matches. Matched rows
// count as reads; rows merely examined count as scans, which the engines
// price like an indexed range scan (see Engine.PerRowScan).
func (db *DB) examine(e entry) bool {
	if !rowMatches(e.row, db.walk.conds) {
		db.stats.RowsScanned++
		return true
	}
	db.stats.RowsRead++
	db.match = append(db.match, e)
	return db.walk.max < 0 || len(db.match) < db.walk.max
}

// scanOrder is the order a caller of matchRows needs the rows in.
type scanOrder int

const (
	anyOrder scanOrder = iota // the caller sorts, or asked for no order
	keyAsc
	keyDesc
)

type compiledCond struct {
	col int
	op  CondOp
	val Value
}

func rowMatches(row []Value, conds []compiledCond) bool {
	for _, c := range conds {
		cmp := compareValues(row[c.col], c.val)
		ok := false
		switch c.op {
		case OpEq:
			ok = cmp == 0
		case OpNe:
			ok = cmp != 0
		case OpLt:
			ok = cmp < 0
		case OpLe:
			ok = cmp <= 0
		case OpGt:
			ok = cmp > 0
		case OpGe:
			ok = cmp >= 0
		}
		if !ok {
			return false
		}
	}
	return true
}

func (db *DB) execSelect(p *prepared, st Select, args []Value) (Result, error) {
	pl, err := db.planFor(p, st.Table)
	if err != nil {
		return Result{}, err
	}
	// LIMIT fast path: when the walk's order is the requested one (or
	// none is requested), matching stops at the limit.
	order := anyOrder
	switch {
	case st.OrderBy == "":
	case pl.pkOrdered && !st.Desc:
		order = keyAsc
	case pl.pkDesc && st.Desc:
		order = keyDesc
	}
	max := -1
	if st.Limit >= 0 && (st.OrderBy == "" || order != anyOrder) {
		max = st.Limit
	}
	rows, keyed, err := db.matchRows(pl, args, order, max)
	if err != nil {
		return Result{}, err
	}
	sorted := st.OrderBy == "" || (order != anyOrder && keyed)
	if len(st.Exprs) > 0 && st.Exprs[0].Agg != "" {
		return aggregate(pl.t, st, rows)
	}
	if pl.projErr != nil {
		return Result{}, pl.projErr
	}
	if pl.orderErr != nil {
		return Result{}, pl.orderErr
	}
	if !sorted {
		oc := pl.orderCol
		slices.SortStableFunc(rows, func(a, b entry) int {
			c := compareValues(a.row[oc], b.row[oc])
			if st.Desc {
				return -c
			}
			return c
		})
	}
	if st.Limit >= 0 && len(rows) > st.Limit {
		rows = rows[:st.Limit]
	}
	// The result's rows are views of one array of cells, each capped at
	// its own width: two allocations, whatever the row count.
	w := len(pl.proj)
	cells := make([]Value, len(rows)*w)
	out := make([][]Value, len(rows))
	for i, e := range rows {
		r := cells[i*w : (i+1)*w : (i+1)*w]
		for j, c := range pl.proj {
			r[j] = e.row[c]
		}
		out[i] = r
	}
	return Result{Cols: pl.cols, Rows: out}, nil
}

func aggregate(t *Table, st Select, rows []entry) (Result, error) {
	outs := make([]Value, len(st.Exprs))
	cols := make([]string, len(st.Exprs))
	for i, se := range st.Exprs {
		if se.Agg == "" {
			return Result{}, fmt.Errorf("sqldb: cannot mix aggregates and columns")
		}
		cols[i] = se.Agg
		switch se.Agg {
		case "count":
			if se.Col == "" {
				outs[i] = int64(len(rows))
				continue
			}
			ci, err := t.colIndex(se.Col)
			if err != nil {
				return Result{}, err
			}
			if se.Distinct {
				seen := make(map[string]bool)
				for _, e := range rows {
					seen[formatValue(e.row[ci])] = true
				}
				outs[i] = int64(len(seen))
			} else {
				n := int64(0)
				for _, e := range rows {
					if e.row[ci] != nil {
						n++
					}
				}
				outs[i] = n
			}
		case "sum":
			ci, err := t.colIndex(se.Col)
			if err != nil {
				return Result{}, err
			}
			var fsum float64
			var isum int64
			isInt := t.Cols[ci].Kind == KindInt
			for _, e := range rows {
				switch v := e.row[ci].(type) {
				case int64:
					isum += v
					fsum += float64(v)
				case float64:
					fsum += v
				}
			}
			if isInt {
				outs[i] = isum
			} else {
				outs[i] = fsum
			}
		case "min", "max":
			ci, err := t.colIndex(se.Col)
			if err != nil {
				return Result{}, err
			}
			var best Value
			for _, e := range rows {
				v := e.row[ci]
				if v == nil {
					continue
				}
				if best == nil ||
					(se.Agg == "min" && compareValues(v, best) < 0) ||
					(se.Agg == "max" && compareValues(v, best) > 0) {
					best = v
				}
			}
			outs[i] = best
		default:
			return Result{}, fmt.Errorf("sqldb: unknown aggregate %q", se.Agg)
		}
	}
	return Result{Cols: cols, Rows: [][]Value{outs}}, nil
}

func (db *DB) execUpdate(p *prepared, st Update, args []Value) (Result, error) {
	pl, err := db.planFor(p, st.Table)
	if err != nil {
		return Result{}, err
	}
	rows, _, err := db.matchRows(pl, args, anyOrder, -1)
	if err != nil {
		return Result{}, err
	}
	if pl.setErr != nil {
		return Result{}, pl.setErr
	}
	t := pl.t
	for _, e := range rows {
		db.pushUndo(undoUpdate, t, e)
		for _, s := range pl.sets {
			v, err := evalExpr(s.val, t, e.row, args)
			if err != nil {
				return Result{}, err
			}
			if e.row[s.col], err = coerce(v, t.Cols[s.col].Kind); err != nil {
				return Result{}, err
			}
		}
		db.stats.RowsWritten++
	}
	return Result{Affected: len(rows)}, nil
}

func (db *DB) execDelete(p *prepared, st Delete, args []Value) (Result, error) {
	pl, err := db.planFor(p, st.Table)
	if err != nil {
		return Result{}, err
	}
	rows, _, err := db.matchRows(pl, args, anyOrder, -1)
	if err != nil {
		return Result{}, err
	}
	t := pl.t
	for _, e := range rows {
		t.idx.delete(e.key)
		db.stats.RowsDeleted++
		db.pushUndo(undoDelete, t, e)
	}
	return Result{Affected: len(rows)}, nil
}

// evalExpr evaluates a scalar expression. t/row are nil outside row
// context (INSERT values, WHERE right-hand sides).
func evalExpr(e Expr, t *Table, row []Value, args []Value) (Value, error) {
	switch x := e.(type) {
	case Lit:
		return x.V, nil
	case Param:
		if x.N >= len(args) {
			return nil, fmt.Errorf("sqldb: missing argument %d", x.N)
		}
		return normalizeArg(args[x.N]), nil
	case boundCol:
		return row[x.idx], nil
	case ColRef:
		if t == nil || row == nil {
			return nil, fmt.Errorf("sqldb: column %q not allowed here", x.Name)
		}
		i, err := t.colIndex(x.Name)
		if err != nil {
			return nil, err
		}
		return row[i], nil
	case BinExpr:
		l, err := evalExpr(x.L, t, row, args)
		if err != nil {
			return nil, err
		}
		r, err := evalExpr(x.R, t, row, args)
		if err != nil {
			return nil, err
		}
		return arith(x.Op, l, r)
	default:
		return nil, fmt.Errorf("sqldb: unknown expression %T", e)
	}
}

// normalizeArg widens Go integer/float arguments to the engine types.
func normalizeArg(v Value) Value {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case float32:
		return float64(x)
	default:
		return v
	}
}

func arith(op byte, l, r Value) (Value, error) {
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt {
		switch op {
		case '+':
			return li + ri, nil
		case '-':
			return li - ri, nil
		case '*':
			return li * ri, nil
		}
	}
	lf, lOK := asFloat(l)
	rf, rOK := asFloat(r)
	if !lOK || !rOK {
		return nil, fmt.Errorf("sqldb: arithmetic on non-numeric values %T %c %T", l, op, r)
	}
	switch op {
	case '+':
		return lf + rf, nil
	case '-':
		return lf - rf, nil
	case '*':
		return lf * rf, nil
	}
	return nil, fmt.Errorf("sqldb: unknown operator %c", op)
}

func asFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}
