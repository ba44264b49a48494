package sqldb

import "fmt"

// A plan is a statement resolved against the schema: column names
// turned into indices, and the WHERE clause's access path (point
// lookup, PK-prefix range or full scan) read off which leading PK
// columns it pins by equality. DB.cache keeps one beside each parsed
// statement, so a procedure that runs the same SQL text per
// transaction resolves names once, not once per execution.
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
	// columns as have one; the last such conjunct wins. vals is the
	// per-execution scratch holding conds with their right-hand sides
	// evaluated.
	conds  []boundCond
	pinned []int
	vals   []compiledCond

	// SELECT. pkOrdered: ascending ORDER BY is the scan order already,
	// because the column is the PK column right after (or within) the
	// pinned prefix.
	proj      []int
	cols      []string
	projErr   error
	orderCol  int
	orderErr  error
	pkOrdered bool

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
}

func (pl *plan) bindSelect(st Select) {
	if st.OrderBy != "" {
		pl.orderCol, pl.orderErr = pl.t.colIndex(st.OrderBy)
		for j, pk := range pl.t.PK {
			if pl.orderErr == nil && pk == pl.orderCol {
				pl.pkOrdered = j <= len(pl.pinned)
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
