package tpcc

import (
	"math"
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
// were recorded with the planner's PK-range and reverse-walk access
// paths: stock_level examines only its range of orders' lines, and
// order_status walks the district's orders down from the newest to the
// customer's latest, where both used to scan the district's whole
// prefix (RowsScanned was 192 649 and RowsRead 58 741 then).
func TestMixStatsPinned(t *testing.T) {
	db := setupSmall(t)
	runMix(t, db, Small(), 42, 2000)
	want := sqldb.Stats{
		Statements:   53580,
		RowsRead:     57912,
		RowsScanned:  1403,
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

// TestTPCCScansDoNotGrow holds the two reads whose prefixes every
// new_order lengthens to a cost the run's length does not drive, at the
// live benchmark's scale, counting the rows each call examines (read
// plus scanned) over transactions 1–2 000 and 8 001–10 000. Walking
// the district's whole order_line or orders prefix, as both reads once
// did, examines about twice as many rows late as early.
//
//   - stock_level reads the lines of the district's last 20 orders: the
//     two windows agree within 10 %.
//   - order_status walks the district's orders down from the newest to
//     the customer's latest. That walk is longer for a customer who has
//     not ordered lately, so it is not flat: it rises toward a ceiling.
//     A customer with share p of the district's new orders is found
//     after 1/p orders in expectation, and order_status draws customers
//     with the same shares, so the mean walk is at most the district's
//     customer count. With the customer row and at most 15 order lines,
//     that is the bound for both windows.
func TestTPCCScansDoNotGrow(t *testing.T) {
	sc := benchScale()
	db, err := sqldb.Open("h2:mem:tpcc-grow")
	if err != nil {
		t.Fatal(err)
	}
	if err := Setup(db, sc); err != nil {
		t.Fatal(err)
	}
	reg := Registry(sc)
	gen := NewGenerator(sc, 1)
	type tally struct{ rows, calls int64 }
	var early, late [2]tally // stock_level, order_status
	names := []string{"stock_level", "order_status"}
	for i := 1; i <= 10_000; i++ {
		typ, args := gen.Next()
		before := db.Stats()
		if res := core.RunProc(db, reg, core.TxRequest{Client: "grow", Seq: int64(i), Type: typ, Args: args}); res.Err != "" {
			t.Fatalf("transaction %d (%s): %s", i, typ, res.Err)
		}
		d := db.Stats().Sub(before)
		w := &early
		switch {
		case i > 8_000:
			w = &late
		case i > 2_000:
			continue
		}
		for k, name := range names {
			if typ == name {
				w[k].rows += d.RowsRead + d.RowsScanned
				w[k].calls++
			}
		}
	}
	var mean [2][2]float64 // [early, late][stock_level, order_status]
	for k, name := range names {
		if early[k].calls == 0 || late[k].calls == 0 {
			t.Fatalf("%s ran %d times early and %d late", name, early[k].calls, late[k].calls)
		}
		mean[0][k] = float64(early[k].rows) / float64(early[k].calls)
		mean[1][k] = float64(late[k].rows) / float64(late[k].calls)
		t.Logf("%s: %.1f rows examined per call over transactions 1-2000, %.1f over 8001-10000", name, mean[0][k], mean[1][k])
	}
	if e, l := mean[0][0], mean[1][0]; math.Abs(l-e) > 0.1*e {
		t.Errorf("stock_level examines %.1f rows per call over transactions 1-2000 but %.1f over 8001-10000", e, l)
	}
	for w, when := range []string{"1-2000", "8001-10000"} {
		if m, ceiling := mean[w][1], float64(sc.CustomersPerD+1+15); m > ceiling {
			t.Errorf("order_status examines %.1f rows per call over transactions %s, above the %.0f a walk to the customer's latest order costs", m, when, ceiling)
		}
	}
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
