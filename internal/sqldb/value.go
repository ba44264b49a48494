// Package sqldb is the in-memory SQL database substrate of the
// reproduction. The paper replicates unmodified JDBC databases (H2,
// HSQLDB, Apache Derby); this package provides the equivalent: a small
// relational engine with a SQL dialect, transactions with rollback,
// primary-key indexes, snapshots with batched restore (the substrate of
// ShadowDB state transfer), and pluggable engine personalities that differ
// in lock granularity and speed the way the paper's databases do.
//
// The engine is single-threaded by design: ShadowDB executes transactions
// sequentially at each replica (Section III-A of the paper). Concurrency
// and lock contention for the baseline systems are modeled at the
// simulator layer with des.Resource, parameterized by each engine's lock
// granularity and timeout.
package sqldb

import (
	"cmp"
	"fmt"
	"strconv"
)

// Value is a SQL value: int64, float64, string, or nil (SQL NULL).
type Value = any

// Kind enumerates column types.
type Kind int

// The column types of the dialect.
const (
	KindInt Kind = iota + 1
	KindFloat
	KindText
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindOf classifies a value.
func KindOf(v Value) (Kind, bool) {
	switch v.(type) {
	case int64:
		return KindInt, true
	case float64:
		return KindFloat, true
	case string:
		return KindText, true
	default:
		return 0, false
	}
}

// coerce converts v to the column kind where a lossless conversion
// exists (int->float, int/float literals for either numeric kind).
func coerce(v Value, k Kind) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch k {
	case KindInt:
		switch x := v.(type) {
		case int64:
			return v, nil
		case float64:
			if x == float64(int64(x)) {
				return int64(x), nil
			}
		}
	case KindFloat:
		switch x := v.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(x), nil
		}
	case KindText:
		if _, ok := v.(string); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("sqldb: cannot store %T as %s", v, k)
}

// compareValues orders two values: NULL first, numbers by value (NaN
// below every other number and equal to NaN, as cmp.Compare has it),
// text bytewise.
func compareValues(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmp.Compare(x, y)
		case float64:
			return cmp.Compare(float64(x), y)
		}
	case float64:
		switch y := b.(type) {
		case int64:
			return cmp.Compare(x, float64(y))
		case float64:
			return cmp.Compare(x, y)
		}
	case string:
		if y, ok := b.(string); ok {
			return cmp.Compare(x, y)
		}
	}
	// Incomparable kinds order by type name for determinism.
	return cmp.Compare(fmt.Sprintf("%T", a), fmt.Sprintf("%T", b))
}

// formatValue renders a value as a SQL literal.
func formatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "'" + escapeString(x) + "'"
	default:
		return fmt.Sprintf("%v", x)
	}
}

func escapeString(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

// ValueSize models the serialized size of a value in bytes, used by the
// state-transfer cost model (Fig. 10b: "serialization overhead is
// proportional to the number of table columns").
func ValueSize(v Value) int {
	switch x := v.(type) {
	case nil:
		return 1
	case int64:
		return 8
	case float64:
		return 8
	case string:
		return len(x)
	default:
		return 8
	}
}
