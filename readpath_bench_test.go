package shadowdb

// Allocation budget of the lease-read hot path (DESIGN.md §13). The
// serve loop — ReadRequest in, pooled ReadResult out — must stay at
// zero allocations per operation; the ordered apply path is pinned
// against the committed baseline in testdata/alloc_baseline.txt so a
// regression fails review instead of shipping. CI runs this test as
// the alloc-regression gate; refresh the baseline deliberately (and
// explain why in the commit) when the apply path legitimately changes:
//
//	go test -run TestReadPathAllocBudget .
//	go test -bench BenchmarkLeaseRead -benchtime 2s .
import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"shadowdb/internal/bench"
	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// readAllocBaseline parses testdata/alloc_baseline.txt: one "<name>
// <allocs>" pair per line, comments with #.
func readAllocBaseline(t *testing.T) map[string]float64 {
	t.Helper()
	f, err := os.Open("testdata/alloc_baseline.txt")
	if err != nil {
		t.Fatalf("alloc baseline missing: %v", err)
	}
	defer func() { _ = f.Close() }()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("alloc baseline: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("alloc baseline: bad value in %q: %v", line, err)
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadPathAllocBudget gates the two hot-path budgets: the serve
// loop must be allocation-free outright, and the apply loop must not
// exceed the committed baseline.
func TestReadPathAllocBudget(t *testing.T) {
	base := readAllocBaseline(t)
	serve, apply := bench.MeasureReadAllocs(500)
	if want, ok := base["serve"]; !ok || serve > want {
		t.Errorf("lease-read serve: %.1f allocs/op, budget %.1f (hard bar: zero)", serve, want)
	}
	if want, ok := base["apply"]; !ok || apply > want {
		t.Errorf("ordered apply: %.1f allocs/op exceeds committed baseline %.1f;\n"+
			"if the increase is intentional, refresh testdata/alloc_baseline.txt", apply, want)
	}
	t.Logf("serve %.1f allocs/op, apply %.1f allocs/op (baseline serve %.0f / apply %.0f)",
		serve, apply, base["serve"], base["apply"])
}

// leaseHolder builds a standalone replica holding a valid lease, the
// same shape MeasureReadAllocs uses: an ordered renewal is applied so
// leaseValid() passes, and the frozen clock keeps it valid forever.
func leaseHolder(tb testing.TB) *core.SMRReplica {
	tb.Helper()
	db, err := sqldb.Open("h2:mem:readpath-bench-" + tb.Name())
	if err != nil {
		tb.Fatal(err)
	}
	if err := core.BankSetup(db, 64); err != nil {
		tb.Fatal(err)
	}
	rep, err := core.OpenSMRReplica(core.SMRConfig{Self: "r1", DB: db, Registry: core.BankRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	rep.Executor().Fast = core.BankFastRegistry()
	rep.SetView(member.NewView(member.Config{
		Bcast:    []msg.Loc{"b1", "b2", "b3"},
		Replicas: []msg.Loc{"r1", "r2", "r3"},
	}, 8))
	rep.EnableLease(core.LeaseConfig{
		Dur: time.Hour, MaxStale: time.Hour, Bcast: "b1",
		Now: func() time.Duration { return time.Second },
	}, core.BankReadRegistry())
	rep.Step(msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: 0,
		Msgs: []broadcast.Bcast{{From: "r1", Seq: 1,
			Payload: core.EncodeLease(core.LeaseRenewal{Epoch: 0, Holder: "r1", Issue: time.Second, Seq: 1})}}}))
	return rep
}

// BenchmarkLeaseRead measures a steady-state local lease read at the
// holder. ReportAllocs should print 0 allocs/op; the ns/op figure is
// the local-read latency floor the readpath experiment's speedup is
// measured against.
func BenchmarkLeaseRead(b *testing.B) {
	rep := leaseHolder(b)
	read := msg.M(core.HdrRead, core.ReadRequest{
		Client: "probe", Seq: 1, Type: "balance",
		Args: []any{int64(1)}, Mode: core.ReadLease,
	})
	for i := 0; i < 64; i++ {
		_, outs := rep.Step(read)
		core.ReleaseReadResult(outs[0].M.Body.(*core.ReadResult))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, outs := rep.Step(read)
		res := outs[0].M.Body.(*core.ReadResult)
		if res.Rejected || res.Err != "" {
			b.Fatalf("read failed: rejected=%v err=%q", res.Rejected, res.Err)
		}
		core.ReleaseReadResult(res)
	}
}
