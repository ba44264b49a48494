package main

import (
	"fmt"
	"math"
	"time"

	"shadowdb/internal/sqldb"
)

// check is the correctness check that ends every workload. The driver
// must be drained. It stops the cluster, so it runs once. It returns one
// line per violated property.
func check(c *cluster, d *driver, res *runResult, logf func(string, ...any)) []string {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	live := c.live()
	acked, failed := d.writesAcked.Load(), d.failed.Load()

	// Every acknowledged write executed exactly once everywhere: retries
	// are deduplicated, so each replica's executed count is the number of
	// acknowledged writes (plus, at most, writes that timed out).
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled := true
		for _, n := range live {
			if e := n.executed.Load(); e < acked || e != live[0].executed.Load() {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.stop()
	d.close()
	for _, n := range live {
		if e := n.exec.Executed; e < acked || e > acked+failed {
			fail("%s executed %d transactions, %d were acknowledged (%d failed)", n.id, e, acked, failed)
		}
	}

	// All live replicas hold the same state.
	ref := live[0].exec.DB
	for _, n := range live[1:] {
		if !sqldb.Equal(ref, n.exec.DB) {
			fail("%s and %s diverge", live[0].id, n.id)
		}
	}

	// Every acknowledged write is present.
	seqs := live[0].exec.LastSeqs()
	for _, lc := range d.clients {
		if lc.lastWrite > 0 && seqs[string(lc.c.Slf)] < lc.lastWrite {
			fail("%s: write %d acknowledged, replica knows %d", lc.c.Slf, lc.lastWrite, seqs[string(lc.c.Slf)])
		}
	}
	if c.w.tpcc {
		if err := tpccConsistent(ref); err != nil {
			fail("tpcc: %v", err)
		}
	} else {
		// Money is conserved: every balance is the opening balance plus the
		// deposits acknowledged for it, nothing lost and nothing doubled.
		var total, want int64
		for a := 0; a < bankRows; a++ {
			v, _ := ref.PointGet("accounts", int64(a), "balance")
			bal, _ := v.(int64)
			lo, hi := bankInitial+d.acked[a].Load(), bankInitial+d.submitted[a].Load()
			if failed == 0 {
				hi = lo
			}
			if bal < lo || bal > hi {
				fail("account %d holds %d, want %d..%d", a, bal, lo, hi)
				break
			}
			total += bal
			want += lo
		}
		if failed == 0 && total != want {
			fail("bank total %d, want %d", total, want)
		}
	}

	// One replica is restarted from its data directory and must recover
	// the same state.
	for _, st := range c.stables {
		_ = st.Close()
	}
	c.stables = nil
	victim := live[len(live)-1]
	t0 := time.Now()
	db, err := c.reopen(victim)
	took := time.Since(t0)
	switch {
	case err != nil:
		fail("reopen %s: %v", victim.id, err)
	case !sqldb.Equal(ref, db):
		fail("%s recovered a different state from %s", victim.id, victim.dir)
	}
	res.Info["recovery_s"] = metric{took.Seconds(), "s"}
	logf("  check: %d acknowledged writes on %d replicas, %s reopened in %.3f s: %d violations",
		acked, len(live), victim.id, took.Seconds(), len(errs))
	return errs
}

// tpccConsistent checks TPC-C consistency condition 1 on what the run
// added: payments raise a warehouse's year-to-date and its districts' by
// the same amounts (tpcc.Setup opens them at 300000 and 30000 each).
func tpccConsistent(db *sqldb.DB) error {
	sum := func(q string) (float64, error) {
		r, err := db.Exec(q)
		if err != nil {
			return 0, err
		}
		if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
			return 0, fmt.Errorf("%s: unexpected result shape", q)
		}
		f, ok := r.Rows[0][0].(float64)
		if !ok {
			return 0, fmt.Errorf("%s: not a float", q)
		}
		return f, nil
	}
	w, err := sum("SELECT SUM(w_ytd) FROM warehouse")
	if err != nil {
		return err
	}
	ds, err := sum("SELECT SUM(d_ytd) FROM district")
	if err != nil {
		return err
	}
	w -= 300000 * float64(tpccScale.Warehouses)
	ds -= 30000 * float64(tpccScale.Warehouses*tpccScale.DistrictsPerW)
	if math.Abs(w-ds) > 1e-6*math.Max(math.Abs(w), 1) {
		return fmt.Errorf("warehouses gained %.2f year-to-date, their districts %.2f", w, ds)
	}
	return nil
}
