package sqldb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Model-based test of the ordered index and the planner's access
// paths: random interleavings of inserts, deletes, updates, point /
// prefix / range / full selects with LIMIT and DESC, transactions and
// savepoints run against the engine and against refTable, a
// deliberately naive model — a slice kept sorted by re-sorting, scanned
// front to back or back to front. Results, row order and the Stats
// counters must agree after every step.

type refRow struct {
	a int64
	b string
	v int64
}

// refTable models table m (a INT, b TEXT, v INT, PRIMARY KEY (a, b)).
type refTable struct {
	rows  []refRow
	stats Stats
	// saved holds the row images of the open transaction: saved[0] is
	// BEGIN, the rest are savepoints.
	saved [][]refRow
}

func (r *refTable) sortRows() {
	sort.Slice(r.rows, func(i, j int) bool {
		if r.rows[i].a != r.rows[j].a {
			return r.rows[i].a < r.rows[j].a
		}
		return r.rows[i].b < r.rows[j].b
	})
}

// refQuery is a WHERE clause over m plus the SELECT trimmings.
type refQuery struct {
	a      *int64  // a = ?
	b      *string // b = ?
	vOp    string  // "", ">=", "<>"
	v      int64
	bounds []refBound
	order  string // "", "a", "b", "v"
	desc   bool
	limit  int // -1 = none
	where  string
	params []Value
}

func (q *refQuery) matches(r refRow) bool {
	if q.a != nil && r.a != *q.a {
		return false
	}
	if q.b != nil && r.b != *q.b {
		return false
	}
	for _, bd := range q.bounds {
		if !bd.holds(r) {
			return false
		}
	}
	switch q.vOp {
	case ">=":
		return r.v >= q.v
	case "<>":
		return r.v != q.v
	}
	return true
}

// refBound is a range conjunct on a PK column. Its value may be one
// the column cannot store (a float for a, a number for b) or NULL; how
// a row compares with it is compareValues' rule.
type refBound struct {
	col string // "a" or "b"
	op  string // "<", "<=", ">", ">="
	val Value
}

func (bd refBound) holds(r refRow) bool {
	var c int
	if bd.col == "a" {
		c = compareValues(r.a, bd.val)
	} else {
		c = compareValues(r.b, bd.val)
	}
	switch bd.op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}

// narrows reports whether bd limits which rows the walk visits: it is
// on the PK column right after the pinned one(s), and its value is of
// that column's kind or NULL.
func (q *refQuery) narrows(bd refBound) bool {
	next := "a"
	if q.a != nil {
		next = "b"
	}
	if bd.col != next {
		return false
	}
	switch bd.val.(type) {
	case nil:
		return true
	case int64:
		return bd.col == "a"
	case string:
		return bd.col == "b"
	}
	return false
}

// inRange reports whether the walk visits r: it shares the pinned
// leading column and meets every bound that narrows.
func (q *refQuery) inRange(r refRow) bool {
	if q.a != nil && r.a != *q.a {
		return false
	}
	for _, bd := range q.bounds {
		if q.narrows(bd) && !bd.holds(r) {
			return false
		}
	}
	return true
}

// scan is the model of the access-path and Stats rules: a point lookup
// when both PK columns are pinned, otherwise a walk over the rows in
// range (inRange), front to back or, for desc, back to front, counting
// matches as reads and the rest as scanned, stopping after max
// matches. It returns the matches in walk order.
func (r *refTable) scan(q *refQuery, max int, desc bool) []int {
	if q.a != nil && q.b != nil {
		for i, row := range r.rows {
			if row.a == *q.a && row.b == *q.b {
				r.stats.RowsRead++
				if q.matches(row) {
					return []int{i}
				}
			}
		}
		return nil
	}
	var out []int
	for n := range r.rows {
		i := n
		if desc {
			i = len(r.rows) - 1 - n
		}
		row := r.rows[i]
		if !q.inRange(row) {
			continue // never examined
		}
		if !q.matches(row) {
			r.stats.RowsScanned++
			continue
		}
		r.stats.RowsRead++
		out = append(out, i)
		if max >= 0 && len(out) >= max {
			break
		}
	}
	return out
}

// selectRows follows the engine's rule for when the walk's order is the
// requested one, so that a LIMIT stops the walk: no ORDER BY; ascending
// on a, or on b with a pinned; descending on b (the last PK column)
// with a pinned and b not. Ties, as in ORDER BY a DESC, keep the
// stable sort of the ascending walk.
func (r *refTable) selectRows(q *refQuery) [][]Value {
	r.stats.Statements++
	pkOrdered := q.order == "a" || (q.order == "b" && q.a != nil)
	desc := q.desc && q.order == "b" && q.a != nil && q.b == nil
	walked := q.order == "" || (pkOrdered && !q.desc) || desc
	max := -1
	if q.limit >= 0 && walked {
		max = q.limit
	}
	var rows []refRow
	for _, i := range r.scan(q, max, desc) {
		rows = append(rows, r.rows[i])
	}
	if q.order != "" {
		sort.SliceStable(rows, func(i, j int) bool {
			var c int
			switch q.order {
			case "a":
				c = cmp.Compare(rows[i].a, rows[j].a)
			case "b":
				c = cmp.Compare(rows[i].b, rows[j].b)
			default:
				c = cmp.Compare(rows[i].v, rows[j].v)
			}
			if q.desc {
				return c > 0
			}
			return c < 0
		})
	}
	if q.limit >= 0 && len(rows) > q.limit {
		rows = rows[:q.limit]
	}
	out := make([][]Value, 0, len(rows))
	for _, row := range rows {
		out = append(out, []Value{row.a, row.b, row.v})
	}
	return out
}

func (r *refTable) insert(row refRow) bool {
	r.stats.Statements++
	for _, have := range r.rows {
		if have.a == row.a && have.b == row.b {
			return false
		}
	}
	r.rows = append(r.rows, row)
	r.sortRows()
	r.stats.RowsInserted++
	return true
}

func (r *refTable) update(q *refQuery, delta int64) int {
	r.stats.Statements++
	hit := r.scan(q, -1, false)
	for _, i := range hit {
		r.rows[i].v += delta
		r.stats.RowsWritten++
	}
	return len(hit)
}

func (r *refTable) delete(q *refQuery) int {
	r.stats.Statements++
	hit := r.scan(q, -1, false)
	for n, i := range hit {
		r.rows = append(r.rows[:i-n], r.rows[i-n+1:]...)
		r.stats.RowsDeleted++
	}
	return len(hit)
}

func (r *refTable) image() []refRow { return append([]refRow(nil), r.rows...) }

// randQuery draws a WHERE clause (and for selects ORDER BY / LIMIT)
// over the small key universe the test inserts from.
func randQuery(rng *rand.Rand, forSelect bool) *refQuery {
	q := &refQuery{limit: -1}
	var conj []string
	if rng.Intn(3) > 0 {
		a := modelInts[rng.Intn(len(modelInts))]
		q.a = &a
		conj = append(conj, "a = ?")
		q.params = append(q.params, a)
	}
	if rng.Intn(3) == 0 {
		b := modelTexts[rng.Intn(len(modelTexts))]
		q.b = &b
		conj = append(conj, "b = ?")
		q.params = append(q.params, b)
	}
	if rng.Intn(3) == 0 {
		q.vOp = []string{">=", "<>"}[rng.Intn(2)]
		q.v = int64(rng.Intn(6))
		conj = append(conj, "v "+q.vOp+" ?")
		q.params = append(q.params, q.v)
	}
	if rng.Intn(2) == 0 {
		// One or two range conjuncts, mostly on the PK column after the
		// pinned one, with now and then a value that cannot narrow.
		col := "a"
		if (q.a != nil) != (rng.Intn(5) == 0) {
			col = "b"
		}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			bd := refBound{col: col, op: []string{"<", "<=", ">", ">="}[rng.Intn(4)]}
			switch k := rng.Intn(8); {
			case k == 0:
				bd.val = nil
			case k == 1 && col == "a":
				bd.val = 2.5
			case k == 1:
				bd.val = int64(3)
			case col == "a":
				bd.val = modelInts[rng.Intn(len(modelInts))]
			default:
				bd.val = modelTexts[rng.Intn(len(modelTexts))]
			}
			q.bounds = append(q.bounds, bd)
			conj = append(conj, col+" "+bd.op+" ?")
			q.params = append(q.params, bd.val)
		}
	}
	if len(conj) > 0 {
		q.where = " WHERE " + strings.Join(conj, " AND ")
	}
	if forSelect {
		q.order = []string{"", "", "a", "b", "b", "v"}[rng.Intn(6)]
		q.desc = q.order != "" && rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			q.limit = rng.Intn(4)
		}
	}
	return q
}

func (q *refQuery) selectSQL() string {
	sql := "SELECT a, b, v FROM m" + q.where
	if q.order != "" {
		sql += " ORDER BY " + q.order
		if q.desc {
			sql += " DESC"
		}
	}
	if q.limit >= 0 {
		sql += fmt.Sprintf(" LIMIT %d", q.limit)
	}
	return sql
}

// The key universe: small enough that statements collide, with the
// values the key encoding must order correctly.
var (
	modelInts  = []int64{math.MinInt64, -2e18, -3, -1, 0, 1, 2, 7, math.MaxInt64}
	modelTexts = []string{"", "\x00", "a", "a\x00", "a\x00b", "ab", "b"}
)

func TestIndexAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runIndexModel(t, seed)
	}
}

// FuzzIndexAgainstModel runs the model test's operation stream from
// any seed; the corpus is the fixed seeds of TestIndexAgainstModel.
func FuzzIndexAgainstModel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(runIndexModel)
}

// runIndexModel is one seed's operation stream against the engine and
// the model.
func runIndexModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	db := New(Engines()["h2"])
	mustExec(t, db, "CREATE TABLE m (a INT, b TEXT, v INT, PRIMARY KEY (a, b))")
	ref := &refTable{}
	ref.stats.Statements = 1
	var marks []int // the engine's savepoint marks, parallel to ref.saved[1:]
	for step := 0; step < 1500; step++ {
		what := fmt.Sprintf("seed %d step %d", seed, step)
		switch op := rng.Intn(20); {
		case op < 7:
			row := refRow{a: modelInts[rng.Intn(len(modelInts))], b: modelTexts[rng.Intn(len(modelTexts))], v: int64(rng.Intn(6))}
			_, err := db.Exec("INSERT INTO m VALUES (?, ?, ?)", row.a, row.b, row.v)
			if ok := ref.insert(row); ok != (err == nil) {
				t.Fatalf("%s: insert %+v: err %v, model inserted=%v", what, row, err, ok)
			}
		case op < 9:
			q := randQuery(rng, false)
			res, err := db.Exec("DELETE FROM m"+q.where, q.params...)
			if want := ref.delete(q); err != nil || res.Affected != want {
				t.Fatalf("%s: DELETE%s %v: affected %d (err %v), model %d", what, q.where, q.params, res.Affected, err, want)
			}
		case op < 11:
			q := randQuery(rng, false)
			delta := int64(rng.Intn(3))
			res, err := db.Exec("UPDATE m SET v = v + ?"+q.where, append([]Value{delta}, q.params...)...)
			if want := ref.update(q, delta); err != nil || res.Affected != want {
				t.Fatalf("%s: UPDATE%s %v: affected %d (err %v), model %d", what, q.where, q.params, res.Affected, err, want)
			}
		case op < 17:
			q := randQuery(rng, true)
			res, err := db.Exec(q.selectSQL(), q.params...)
			if err != nil {
				t.Fatalf("%s: %s: %v", what, q.selectSQL(), err)
			}
			want := ref.selectRows(q)
			if len(res.Rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Rows, want)) {
				t.Fatalf("%s: %s %v:\n got  %v\n want %v", what, q.selectSQL(), q.params, res.Rows, want)
			}
		case op == 17:
			if len(ref.saved) == 0 {
				mustExec(t, db, "BEGIN")
				ref.saved = [][]refRow{ref.image()}
			} else if rng.Intn(2) == 0 {
				mustExec(t, db, "COMMIT")
				ref.saved = nil
			} else {
				mustExec(t, db, "ROLLBACK")
				ref.rows, ref.saved = ref.saved[0], nil
				ref.stats.Aborts++
			}
		case op == 18 && len(ref.saved) > 0:
			mark, err := db.Savepoint()
			if err != nil {
				t.Fatalf("%s: savepoint: %v", what, err)
			}
			marks = append(marks[:len(ref.saved)-1], mark)
			ref.saved = append(ref.saved, ref.image())
		case op == 19 && len(ref.saved) > 1:
			at := 1 + rng.Intn(len(ref.saved)-1)
			if err := db.RollbackTo(marks[at-1]); err != nil {
				t.Fatalf("%s: rollback to savepoint: %v", what, err)
			}
			ref.rows, ref.saved = ref.saved[at], ref.saved[:at]
			ref.stats.Aborts++
		}
		if got := db.Stats(); got != ref.stats {
			t.Fatalf("%s: Stats diverged:\n got  %+v\n want %+v", what, got, ref.stats)
		}
		if n, _ := db.TableLen("m"); n != len(ref.rows) {
			t.Fatalf("%s: %d rows, model has %d", what, n, len(ref.rows))
		}
	}
	if db.InTx() {
		mustExec(t, db, "COMMIT")
	}
	all := &refQuery{limit: -1}
	res := mustExec(t, db, all.selectSQL())
	if want := ref.selectRows(all); !reflect.DeepEqual(res.Rows, want) && len(want) > 0 {
		t.Fatalf("seed %d: final contents differ:\n got  %v\n want %v", seed, res.Rows, want)
	}
}
