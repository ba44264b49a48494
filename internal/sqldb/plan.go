package sqldb

import "fmt"

// A plan is a statement resolved against the schema: column names
// turned into indices, and the WHERE clause's access path read off the
// primary key. DB.cache keeps one beside each parsed statement, so a
// procedure that runs the same SQL text per transaction resolves names
// once, not once per execution. There are four access paths:
//
//   - point lookup: equality pins every PK column;
//   - PK-prefix range: equality pins the leading PK columns, and `<`,
//     `<=`, `>`, `>=` on the next one narrow the walk further;
//   - reverse walk: `ORDER BY <last PK column> DESC` when the column
//     comes right after the pinned prefix, so a LIMIT stops the walk at
//     its n-th match (a column with ties keeps the stable sort);
//   - full scan: nothing pinned or bounded.
//
// A path only skips rows that cannot match: rowMatches checks every
// conjunct of every row examined, and Stats counts only those rows.
//
// Resolution failures are part of the plan. A statement naming an
// unknown column fails at the same point of its execution as it always
// did — in particular after the scan whose rows Stats already counted,
// where that is where the name used to be looked up.

// prepared is a cache entry: the parsed statement and its plan, which
// is rebuilt when the schema generation moves (CREATE, DROP, their
// rollbacks, Restore).
type prepared struct {
	stmt Stmt
	plan *plan
}

type plan struct {
	gen uint64
	t   *Table

	// WHERE (SELECT, UPDATE, DELETE). pinned[i] is the position in conds
	// of the equality conjunct on PK column i, for as many leading PK
	// columns as have one; the last such conjunct wins. bounds are the
	// positions of the range conjuncts on the PK column after those.
	// vals is the per-execution scratch holding conds with their
	// right-hand sides evaluated.
	conds  []boundCond
	pinned []int
	bounds []int
	vals   []compiledCond

	// SELECT. pkOrdered: ascending ORDER BY is the scan order already,
	// because the column is the PK column right after (or within) the
	// pinned prefix. pkDesc: descending ORDER BY is the reverse scan
	// order, because the column is the last PK column and right after
	// the pinned prefix, so no two rows in range tie on it.
	proj      []int
	cols      []string
	projErr   error
	orderCol  int
	orderErr  error
	pkOrdered bool
	pkDesc    bool

	// UPDATE
	sets   []boundSet
	setErr error

	// INSERT
	insCols []int
	insErr  error
}

type boundCond struct {
	col int
	err error // the conjunct names an unknown column
	op  CondOp
	val Expr
}

type boundSet struct {
	col int
	val Expr
}

// boundCol is a ColRef resolved to its column index. It appears only
// inside plans.
type boundCol struct{ idx int }

func (boundCol) isExpr() {}

// planFor returns p's plan against the current schema.
func (db *DB) planFor(p *prepared, table string) (*plan, error) {
	if p.plan != nil && p.plan.gen == db.gen {
		return p.plan, nil
	}
	t, err := db.table(table)
	if err != nil {
		return nil, err
	}
	pl := &plan{gen: db.gen, t: t, orderCol: -1}
	switch st := p.stmt.(type) {
	case Select:
		pl.bindWhere(st.Where)
		pl.bindSelect(st)
	case Update:
		pl.bindWhere(st.Where)
		pl.bindSets(st.Set)
	case Delete:
		pl.bindWhere(st.Where)
	case Insert:
		pl.bindInsert(st)
	}
	p.plan = pl
	return pl, nil
}

func (pl *plan) bindWhere(where []Cond) {
	for _, c := range where {
		col, err := pl.t.colIndex(c.Col)
		pl.conds = append(pl.conds, boundCond{col: col, err: err, op: c.Op, val: c.Val})
	}
	for _, pk := range pl.t.PK {
		at := -1
		for i, c := range pl.conds {
			if c.err == nil && c.op == OpEq && c.col == pk {
				at = i
			}
		}
		if at < 0 {
			break
		}
		pl.pinned = append(pl.pinned, at)
	}
	if len(pl.pinned) == len(pl.t.PK) {
		return
	}
	next := pl.t.PK[len(pl.pinned)]
	for i, c := range pl.conds {
		if c.err == nil && c.col == next && (c.op == OpLt || c.op == OpLe || c.op == OpGt || c.op == OpGe) {
			pl.bounds = append(pl.bounds, i)
		}
	}
}

func (pl *plan) bindSelect(st Select) {
	if st.OrderBy != "" {
		pl.orderCol, pl.orderErr = pl.t.colIndex(st.OrderBy)
		for j, pk := range pl.t.PK {
			if pl.orderErr == nil && pk == pl.orderCol {
				pl.pkOrdered = j <= len(pl.pinned)
				pl.pkDesc = j == len(pl.pinned) && j == len(pl.t.PK)-1
				break
			}
		}
	}
	if len(st.Exprs) > 0 && st.Exprs[0].Agg != "" {
		return // aggregate queries project nothing
	}
	for _, se := range st.Exprs {
		switch {
		case se.Star:
			for i, c := range pl.t.Cols {
				pl.proj = append(pl.proj, i)
				pl.cols = append(pl.cols, c.Name)
			}
			continue
		case se.Agg != "":
			pl.projErr = fmt.Errorf("sqldb: cannot mix aggregates and columns")
			return
		}
		i, err := pl.t.colIndex(se.Col)
		if err != nil {
			pl.projErr = err
			return
		}
		pl.proj = append(pl.proj, i)
		pl.cols = append(pl.cols, se.Col)
	}
}

func (pl *plan) bindSets(set []Assign) {
	for _, a := range set {
		ci, err := pl.t.colIndex(a.Col)
		if err != nil {
			pl.setErr = err
			return
		}
		for _, pk := range pl.t.PK {
			if pk == ci {
				pl.setErr = fmt.Errorf("sqldb: cannot update primary key column %q", a.Col)
				return
			}
		}
		pl.sets = append(pl.sets, boundSet{col: ci, val: bindExpr(a.Val, pl.t)})
	}
}

func (pl *plan) bindInsert(st Insert) {
	if len(st.Cols) == 0 {
		for i := range pl.t.Cols {
			pl.insCols = append(pl.insCols, i)
		}
		return
	}
	for _, c := range st.Cols {
		i, err := pl.t.colIndex(c)
		if err != nil {
			pl.insErr = err
			return
		}
		pl.insCols = append(pl.insCols, i)
	}
}

// bindExpr resolves the column references of a row-context expression.
// An unknown column is left as the ColRef it was: evaluating it
// reports the error, which only happens if a row reaches it.
func bindExpr(e Expr, t *Table) Expr {
	switch x := e.(type) {
	case ColRef:
		if i, err := t.colIndex(x.Name); err == nil {
			return boundCol{idx: i}
		}
	case BinExpr:
		return BinExpr{Op: x.Op, L: bindExpr(x.L, t), R: bindExpr(x.R, t)}
	}
	return e
}
