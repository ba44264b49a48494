package sqldb

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// Key order is value order, over the whole range of each kind.
func TestKeyEncodingOrderProperty(t *testing.T) {
	check := func(a, b Value) bool {
		ka, kb := appendKeyPart(nil, a), appendKeyPart(nil, b)
		return sign(bytes.Compare(ka, kb)) == compareValues(a, b)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(func(a, b int64) bool { return check(a, b) }, cfg); err != nil {
		t.Errorf("INT: %v", err)
	}
	if err := quick.Check(func(a, b float64) bool { return check(a, b) }, cfg); err != nil {
		t.Errorf("FLOAT: %v", err)
	}
	if err := quick.Check(func(a, b string) bool { return check(a, b) }, cfg); err != nil {
		t.Errorf("TEXT: %v", err)
	}
	// The cases the old rendering got wrong, and the edges of each kind.
	ordered := [][]Value{
		{nil, int64(math.MinInt64), int64(-2e18), int64(-1e18) - 1, int64(-1e18), int64(-1), int64(0), int64(1), int64(math.MaxInt64)},
		{nil, math.NaN(), math.Inf(-1), -2.5, -2.0, -1.0, -0.0000001, 0.0, 0.0000001, 0.0000002, 1.0, math.Inf(1)},
		{nil, "", "\x00", "\x00\x00", "\x00\x01", "\x01", "a", "a\x00", "a\x00b", "a\x01", "ab", "b"},
	}
	for _, vals := range ordered {
		for i := 1; i < len(vals); i++ {
			lo, hi := appendKeyPart(nil, vals[i-1]), appendKeyPart(nil, vals[i])
			if bytes.Compare(lo, hi) >= 0 {
				t.Errorf("key(%#v) = %x does not sort below key(%#v) = %x", vals[i-1], lo, vals[i], hi)
			}
		}
	}
	if !bytes.Equal(appendKeyPart(nil, math.Copysign(0, -1)), appendKeyPart(nil, 0.0)) {
		t.Error("-0 and +0 compare equal but have different keys")
	}
	if !bytes.Equal(appendKeyPart(nil, math.Copysign(math.NaN(), -1)), appendKeyPart(nil, math.NaN())) {
		t.Error("NaNs compare equal but have different keys")
	}
}

// The regressions of the three ordering bugs, through SQL.
func TestKeyEncodingRegressions(t *testing.T) {
	db := New(Engines()["h2"])
	mustExec(t, db, "CREATE TABLE f (x FLOAT PRIMARY KEY)")
	for _, x := range []float64{-1, -2, 3, -0.5, 0} {
		mustExec(t, db, "INSERT INTO f VALUES (?)", x)
	}
	res := mustExec(t, db, "SELECT x FROM f ORDER BY x LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0] != -2.0 || res.Rows[1][0] != -1.0 {
		t.Errorf("negative FLOAT keys scan as %v, want [-2] [-1]", res.Rows)
	}
	// Floats that differ past the sixth decimal are different keys.
	mustExec(t, db, "INSERT INTO f VALUES (?)", 0.0000001)
	if _, err := db.Exec("INSERT INTO f VALUES (?)", 0.0000002); err != nil {
		t.Errorf("distinct small floats collide: %v", err)
	}

	mustExec(t, db, "CREATE TABLE i (x INT PRIMARY KEY)")
	for _, x := range []int64{5, -2e18, math.MinInt64, -1} {
		mustExec(t, db, "INSERT INTO i VALUES (?)", x)
	}
	res = mustExec(t, db, "SELECT x FROM i ORDER BY x LIMIT 4")
	want := []int64{math.MinInt64, -2e18, -1, 5}
	for j, w := range want {
		if res.Rows[j][0] != w {
			t.Errorf("INT keys below -1e18 scan as %v, want %v", res.Rows, want)
			break
		}
	}

	// ("a\x00sb", "c") and ("a", "b\x00sc") rendered to the same string
	// when parts were joined with a bare zero byte.
	mustExec(t, db, "CREATE TABLE s (a TEXT, b TEXT, v INT, PRIMARY KEY (a, b))")
	mustExec(t, db, "INSERT INTO s VALUES (?, ?, 1)", "a\x00sb", "c")
	if _, err := db.Exec("INSERT INTO s VALUES (?, ?, 2)", "a", "b\x00sc"); err != nil {
		t.Errorf("distinct composite TEXT keys alias: %v", err)
	}
	res = mustExec(t, db, "SELECT v FROM s WHERE a = ?", "a")
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(2) {
		t.Errorf("prefix scan a='a' returned %v, want the one row v=2", res.Rows)
	}
}
