package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"shadowdb/internal/msg"
	"shadowdb/internal/store"
)

// PBR's catch-up cache: a replica keeps the last logCacheSize
// transactions it applied, by whichever path, and nothing from before
// its last installed transfer, wipe or restored snapshot. A primary
// repairs a backup with a Catchup exactly when logFrom reaches back to
// the backup's frontier, and with a full state transfer otherwise, so
// these ranges decide which of the two a recovery sends.

// cacheTx is the request applied at an order number in these tests.
func cacheTx(order int64) TxRequest {
	return TxRequest{Client: "c0", Seq: order, Type: "deposit", Args: []any{int(order % 4), 1}}
}

// checkCache asserts r's cache holds exactly the orders lo..Executed
// (none when lo > Executed): logFrom answers every frontier from lo-1
// on with the transactions after it, and refuses every earlier one.
func checkCache(t *testing.T, where string, r *PBRReplica, lo int64) {
	t.Helper()
	hi := r.exec.Executed
	for _, after := range []int64{-1, 0, 1, lo - 2, lo - 1, lo, hi - 1, hi, hi + 1} {
		got, ok := r.logFrom(after)
		switch {
		case after >= hi:
			if !ok || len(got) != 0 {
				t.Errorf("%s: logFrom(%d) at Executed %d = %d entries, %v; want none, true", where, after, hi, len(got), ok)
			}
		case after+1 < lo:
			if ok {
				t.Errorf("%s: logFrom(%d) answered %d entries; the cache starts at %d", where, after, len(got), lo)
			}
		default:
			want := make([]Repl, 0, hi-after)
			for o := after + 1; o <= hi; o++ {
				want = append(want, Repl{Order: o, Req: cacheTx(o)})
			}
			if !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: logFrom(%d) = %d entries, %v; want orders %d..%d", where, after, len(got), ok, after+1, hi)
			}
		}
	}
}

// cacheStart is where the cache of a replica that applied orders
// 1..n without a reset starts.
func cacheStart(n int64) int64 { return max(1, n-logCacheSize+1) }

func TestPBRLogFrom(t *testing.T) {
	dep := testDeployment()
	newReplica := func(slf msg.Loc, name string) *PBRReplica {
		return NewPBRReplica(slf, bankDB(t, name, 4), BankRegistry(), dep)
	}
	forward := func(r *PBRReplica, from, to int64) {
		for o := from; o <= to; o++ {
			r.Step(msg.M(HdrRepl, Repl{Order: o, Req: cacheTx(o)}))
		}
	}
	catchup := func(r *PBRReplica, from, to int64) {
		c := Catchup{From: from}
		for o := from; o <= to; o++ {
			c.Txs = append(c.Txs, Repl{Order: o, Req: cacheTx(o)})
		}
		r.Step(msg.M(HdrCatchup, c))
	}

	t.Run("primary", func(t *testing.T) {
		r := newReplica("r1", "cache-primary")
		n := int64(0)
		for _, at := range []int64{0, 1, 1023, 1024, 1025, 2047, 2048, 2049} {
			for ; n < at; n++ {
				r.Step(msg.M(HdrTx, cacheTx(n+1)))
			}
			if r.exec.Executed != at {
				t.Fatalf("primary executed %d, want %d", r.exec.Executed, at)
			}
			checkCache(t, fmt.Sprintf("after %d", at), r, cacheStart(at))
		}
	})

	t.Run("backup forwards", func(t *testing.T) {
		r := newReplica("r2", "cache-forwards")
		forward(r, 1, 1500)
		checkCache(t, "after 1500 forwards", r, cacheStart(1500))
	})

	t.Run("catch-up batch", func(t *testing.T) {
		r := newReplica("r2", "cache-catchup")
		catchup(r, 1, 1500)
		checkCache(t, "after a 1500-transaction catch-up", r, cacheStart(1500))
		catchup(r, 1401, 1600) // overlaps what is applied already
		checkCache(t, "after an overlapping catch-up", r, cacheStart(1600))
		forward(r, 1601, 1610)
		checkCache(t, "after forwards behind the catch-up", r, cacheStart(1610))
	})

	t.Run("installed transfer", func(t *testing.T) {
		primary := NewExecutor(bankDB(t, "cache-xfer-r1", 4), BankRegistry())
		for o := int64(1); o <= 7; o++ {
			if _, err := primary.Apply(o, cacheTx(o)); err != nil {
				t.Fatal(err)
			}
		}
		r := newReplica("r2", "cache-xfer-r2")
		forward(r, 1, 3)
		xfer, _ := primary.SnapshotDirectives("r2", 0, 1)
		for _, o := range xfer {
			r.Step(o.M)
		}
		if r.exec.Executed != 7 {
			t.Fatalf("backup installed Executed = %d, want 7", r.exec.Executed)
		}
		checkCache(t, "after the transfer", r, 8)
		forward(r, 8, 10)
		checkCache(t, "after forwards behind the transfer", r, 8)
	})

	t.Run("wiped to spare", func(t *testing.T) {
		r := newReplica("r1", "cache-wipe")
		for o := int64(1); o <= 5; o++ {
			r.Step(msg.M(HdrTx, cacheTx(o)))
		}
		r.wipeToSpare()
		checkCache(t, "after the wipe", r, 1)
	})

	t.Run("durable restart", func(t *testing.T) {
		prov := store.NewMem()
		open := func(name string, rows int) *PBRReplica {
			st, err := prov.Open("r1")
			if err != nil {
				t.Fatal(err)
			}
			r, _, err := NewDurablePBRReplica("r1", bankDB(t, name, rows), BankRegistry(), dep, st, 0)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		records := func() int {
			st, err := prov.Open("r1")
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := st.Replay(func([]byte) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			return n
		}
		r := open("cache-durable", 4)
		const n = 150
		for o := int64(1); o <= n; o++ {
			r.Step(msg.M(HdrTx, cacheTx(o)))
		}
		checkCache(t, "before the restart", r, 1)
		tail := records()

		rb := open("cache-durable-b", 0)
		if rb.exec.Executed != n {
			t.Fatalf("restarted replica recovered Executed = %d, want %d", rb.exec.Executed, n)
		}
		lo := int64(rb.exec.snapAt) + 1
		if lo > n || n-lo+1 != int64(tail) {
			t.Fatalf("snapshot at %d and %d journaled records: want a non-empty tail behind the snapshot", rb.exec.snapAt, tail)
		}
		checkCache(t, "after the replay", rb, lo)
		if got := records(); got != tail {
			t.Errorf("restart left %d journal records, want the %d it replayed: replayed records were journaled again", got, tail)
		}
	})
}

// TestExecutorLogCache checks the cache a PBR primary keeps for backup
// catch-up once it has evicted: the recent suffix is served, the far
// past is refused, and a caught-up backup is owed nothing.
func TestExecutorLogCache(t *testing.T) {
	r := NewPBRReplica("r1", bankDB(t, "cache-evicted", 4), BankRegistry(), testDeployment())
	const n = logCacheSize + 6
	for o := int64(1); o <= n; o++ {
		r.Step(msg.M(HdrTx, cacheTx(o)))
	}
	if r.exec.Executed != n {
		t.Fatalf("primary executed %d, want %d", r.exec.Executed, n)
	}
	// Recent suffix available.
	txs, ok := r.logFrom(n - 3)
	if !ok || len(txs) != 3 || txs[0].Order != n-2 {
		t.Errorf("logFrom(%d) = %v %v", n-3, txs, ok)
	}
	// Far past evicted.
	if _, ok := r.logFrom(2); ok {
		t.Error("evicted log range reported available")
	}
	// Nothing missing.
	txs, ok = r.logFrom(n)
	if !ok || len(txs) != 0 {
		t.Errorf("logFrom(%d) = %v %v", n, txs, ok)
	}
}

// TestFullLog checks the oracle's view of a PBR replica's history: whole
// while the cache reaches back to order 1, ErrIncompleteLog once order 1
// is evicted.
func TestFullLog(t *testing.T) {
	r := NewPBRReplica("r1", bankDB(t, "full-log", 4), BankRegistry(), testDeployment())
	for o := int64(1); o <= 5; o++ {
		r.Step(msg.M(HdrTx, cacheTx(o)))
	}
	log, err := r.FullLog()
	if err != nil || len(log) != 5 {
		t.Fatalf("FullLog = %v, %v", log, err)
	}
	for o := int64(6); o <= logCacheSize+1; o++ {
		r.Step(msg.M(HdrTx, cacheTx(o)))
	}
	if _, err := r.FullLog(); !errors.Is(err, ErrIncompleteLog) {
		t.Errorf("truncated log: err = %v", err)
	}
}
