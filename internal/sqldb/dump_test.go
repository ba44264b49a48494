package sqldb_test

import (
	"bytes"
	"testing"

	"shadowdb/internal/bench/tpcc"
	"shadowdb/internal/core"
	"shadowdb/internal/sqldb"
)

func newDB(tb testing.TB) *sqldb.DB {
	tb.Helper()
	db, err := sqldb.Open("h2:mem:dump")
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

func bankDB(tb testing.TB, rows int) *sqldb.DB {
	tb.Helper()
	db := newDB(tb)
	if err := core.BankSetup(db, rows); err != nil {
		tb.Fatal(err)
	}
	return db
}

func tpccDB(tb testing.TB, sc tpcc.Scale) *sqldb.DB {
	tb.Helper()
	db := newDB(tb)
	if err := tpcc.Setup(db, sc); err != nil {
		tb.Fatal(err)
	}
	return db
}

// oddDB holds what the two workloads do not: NULLs, negative and
// fractional numbers, empty and zero-byte text, an empty table.
func oddDB(tb testing.TB) *sqldb.DB {
	tb.Helper()
	db := newDB(tb)
	for _, s := range []string{
		"CREATE TABLE empty (k TEXT PRIMARY KEY)",
		"CREATE TABLE odd (a INT, b TEXT, f FLOAT, PRIMARY KEY (a, b))",
	} {
		if _, err := db.Exec(s); err != nil {
			tb.Fatal(err)
		}
	}
	for _, row := range [][]sqldb.Value{
		{int64(-1 << 63), "", -0.5}, {int64(0), "a\x00b", nil}, {nil, "x", 1e300}, {int64(7), nil, 0.0},
	} {
		if _, err := db.Exec("INSERT INTO odd VALUES (?, ?, ?)", row...); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// roundTrip restores a dump of db into a fresh database.
func roundTrip(tb testing.TB, db *sqldb.DB) *sqldb.DB {
	tb.Helper()
	dumps, err := sqldb.DecodeDump(db.AppendDump(nil))
	if err != nil {
		tb.Fatal(err)
	}
	out := newDB(tb)
	if err := out.Restore(dumps); err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestDumpRoundTrip(t *testing.T) {
	for name, db := range map[string]*sqldb.DB{
		"bank": bankDB(t, 500), "tpcc": tpccDB(t, tpcc.Small()), "odd": oddDB(t), "no tables": newDB(t),
	} {
		back := roundTrip(t, db)
		if !sqldb.Equal(db, back) {
			t.Errorf("%s: Restore(DecodeDump(AppendDump(db))) differs from db", name)
		}
		// The image is canonical: equal databases dump to equal bytes.
		if !bytes.Equal(db.AppendDump(nil), back.AppendDump(nil)) {
			t.Errorf("%s: the restored database dumps differently", name)
		}
	}
	for _, bad := range []string{"", "SDB", "SDB1", "SDB2\x00", "SDB1\x00\x00"} {
		if _, err := sqldb.DecodeDump([]byte(bad)); err == nil {
			t.Errorf("DecodeDump(%q) accepted", bad)
		}
	}
	// AppendDump appends.
	if got := oddDB(t).AppendDump([]byte("hdr")); !bytes.HasPrefix(got, []byte("hdrSDB1")) {
		t.Errorf("AppendDump did not extend its argument: %q", got[:8])
	}
}

// FuzzDecodeDump feeds DecodeDump bytes it did not write (a snapshot
// file is read back after a crash). It must reject or accept without
// panicking, and whatever it accepts and Restore installs must survive
// a second trip unchanged.
func FuzzDecodeDump(f *testing.F) {
	for _, db := range []*sqldb.DB{bankDB(f, 3), tpccDB(f, tpcc.Scale{Warehouses: 1, DistrictsPerW: 1, CustomersPerD: 1, Items: 2, OrdersPerD: 1}), oddDB(f), newDB(f)} {
		img := db.AppendDump(nil)
		f.Add(img)
		f.Add(img[:len(img)/2])
		f.Add(append(img[:len(img):len(img)], 0))
	}
	f.Add([]byte("SDB1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("SDB1\x01\x01t\x01\x01k\x01\x01\x00\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, b []byte) {
		dumps, err := sqldb.DecodeDump(b)
		if err != nil {
			return
		}
		db := newDB(t)
		if db.Restore(dumps) != nil {
			return // structurally sound, but not a schema newTable accepts
		}
		if !sqldb.Equal(db, roundTrip(t, db)) {
			t.Errorf("accepted image does not round-trip: %q", b)
		}
	})
}

// benchTPCC is the live benchmark's population (benchmark/cluster.go),
// the database a durable replica dumps when it compacts.
var benchTPCC = tpcc.Scale{Warehouses: 1, DistrictsPerW: 10, CustomersPerD: 300, Items: 10_000, OrdersPerD: 300}

func BenchmarkDumpEncode(b *testing.B) {
	db := tpccDB(b, benchTPCC)
	buf := db.AppendDump(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = db.AppendDump(buf[:0])
	}
}

func BenchmarkDumpDecode(b *testing.B) {
	img := tpccDB(b, benchTPCC).AppendDump(nil)
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dumps, err := sqldb.DecodeDump(img)
		if err != nil {
			b.Fatal(err)
		}
		if err := newDB(b).Restore(dumps); err != nil {
			b.Fatal(err)
		}
	}
}
