package tpcc

import (
	"testing"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/sqldb"
)

// runMix applies n transactions of the standard mix through an
// Executor in batches of 16, the shape a replica applies decided
// broadcast batches in.
func runMix(tb testing.TB, db *sqldb.DB, sc Scale, seed int64, n int) {
	tb.Helper()
	exec := core.NewExecutor(db, Registry(sc))
	gen := NewGenerator(sc, seed)
	reqs := make([]core.TxRequest, 0, 16)
	for i := 0; i < n; i++ {
		typ, args := gen.Next()
		reqs = append(reqs, core.TxRequest{Client: "mix", Seq: int64(i + 1), Type: typ, Args: args})
		if len(reqs) == cap(reqs) || i == n-1 {
			for _, res := range exec.ApplyBatch(reqs) {
				if res.Err != "" {
					tb.Fatalf("seq %d: %s", res.Seq, res.Err)
				}
			}
			reqs = reqs[:0]
		}
	}
}

// TestMixStatsPinned pins the cumulative work counters of a fixed
// TPC-C run. The DES prices every transaction from these counters
// (Engine.CostOf), so a storage change inside sqldb that moved any of
// them would silently move every simulated TPC-C figure. The numbers
// were recorded with the hash-map + sorted-key-cache tables, before the
// ordered index replaced them.
func TestMixStatsPinned(t *testing.T) {
	db := setupSmall(t)
	runMix(t, db, Small(), 42, 2000)
	want := sqldb.Stats{
		Statements:   53580,
		RowsRead:     58741,
		RowsScanned:  192649,
		RowsWritten:  12890,
		RowsInserted: 12421,
		RowsDeleted:  168,
		Aborts:       11,
	}
	if got := db.Stats(); got != want {
		t.Errorf("cumulative Stats moved:\n got  %+v\n want %+v", got, want)
	}
}

// benchScale is the live benchmark's TPC-C population (benchmark/
// cluster.go): one warehouse, ten districts, 300 customers and 300
// orders per district, 10 000 items.
func benchScale() Scale {
	return Scale{Warehouses: 1, DistrictsPerW: 10, CustomersPerD: 300, Items: 10_000, OrdersPerD: 300}
}

// BenchmarkTPCCMix applies the standard mix one transaction at a time
// at the live benchmark's scale and reports the mean cost of each
// procedure beside the overall ns/op.
func BenchmarkTPCCMix(b *testing.B) {
	sc := benchScale()
	db, err := sqldb.Open("h2:mem:tpcc-mix")
	if err != nil {
		b.Fatal(err)
	}
	if err := Setup(db, sc); err != nil {
		b.Fatal(err)
	}
	reg := Registry(sc)
	gen := NewGenerator(sc, 1)
	spent := map[string]time.Duration{}
	count := map[string]int{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		typ, args := gen.Next()
		start := time.Now()
		res := core.RunProc(db, reg, core.TxRequest{Client: "mix", Seq: int64(i + 1), Type: typ, Args: args})
		spent[typ] += time.Since(start)
		count[typ]++
		if res.Err != "" {
			b.Fatalf("%s: %s", typ, res.Err)
		}
	}
	b.StopTimer()
	for typ, n := range count {
		b.ReportMetric(float64(spent[typ].Nanoseconds())/float64(n), typ+"-ns/op")
	}
}
