package sqldb

import (
	"runtime"
	"testing"
)

// lineTable builds a two-column-PK table of n rows spread over ten
// groups — the shape of TPC-C's order_line under its (district, order)
// prefix, small enough per row that the index dominates.
func lineTable(tb testing.TB, n int) *DB {
	tb.Helper()
	db := New(Engines()["h2"])
	if _, err := db.Exec("CREATE TABLE line (g INT, n INT, v INT, PRIMARY KEY (g, n))"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Exec("INSERT INTO line VALUES (?, ?, ?)", i%10, i/10, i); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// BenchmarkScanAfterInsert is the TPC-C apply pattern that motivated
// the ordered index: one insert, then a LIMIT-1 scan under a PK prefix
// of a 50 000-row table. Its cost must not depend on the table size.
func BenchmarkScanAfterInsert(b *testing.B) {
	const rows = 50_000
	db := lineTable(b, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO line VALUES (?, ?, ?)", 3, rows+i, i); err != nil {
			b.Fatal(err)
		}
		res, err := db.Exec("SELECT n FROM line WHERE g = ? ORDER BY n LIMIT 1", 7)
		if err != nil || len(res.Rows) != 1 {
			b.Fatalf("scan: %v %v", res.Rows, err)
		}
	}
}

// The complexity gate behind that benchmark, as a test that cannot
// flake on timing: what one insert-then-scan allocates is bounded by a
// constant, whatever the table size. (Re-sorting the key set after
// every insert allocated 16 bytes per row of the table: 800 KB at
// 50 000 rows.)
func TestScanAfterInsertAllocatesIndependentOfSize(t *testing.T) {
	const runs, bound = 200, 4096
	for _, rows := range []int{5_000, 50_000} {
		db := lineTable(t, rows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			mustExec(t, db, "INSERT INTO line VALUES (?, ?, ?)", 3, rows+i, i)
			mustExec(t, db, "SELECT n FROM line WHERE g = ? ORDER BY n LIMIT 1", 7)
		}
		runtime.ReadMemStats(&after)
		if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > bound {
			t.Errorf("%d rows: insert+scan allocates %d bytes, want <= %d at any size", rows, perOp, bound)
		}
	}
}

// BenchmarkPointGet is the lease-read access path: one int64-PK lookup
// on a bank-sized table, allocation-free.
func BenchmarkPointGet(b *testing.B) {
	db := New(Engines()["h2"])
	if _, err := db.Exec("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)"); err != nil {
		b.Fatal(err)
	}
	const rows = 10_000
	for i := 0; i < rows; i++ {
		if _, err := db.Exec("INSERT INTO accounts VALUES (?, ?)", i, 1000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.PointGet("accounts", int64(i%rows), "balance"); !ok {
			b.Fatal("missing row")
		}
	}
}
