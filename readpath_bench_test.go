package shadowdb

// The lease-read hot path (DESIGN.md §13): a standalone lease holder and
// the benchmark of its local read. The allocation gate over the same
// replica's serve and apply loops is TestReadPathAllocBudget, beside the
// other count gates in counts_test.go:
//
//	go test -run TestReadPathAllocBudget .
//	go test -bench BenchmarkLeaseRead -benchtime 2s .
import (
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

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
