package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/core"
	"shadowdb/internal/flow"
	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// Layer microbenchmarks: each layer alone, through its public entry
// points, via testing.Benchmark.

// layerBench is one microbenchmark; a failed set-up is reported through
// b.Fatal, which testing.Benchmark turns into a zero result.
type layerBench struct {
	name string
	fn   func(b *testing.B)
}

// sink keeps benchmarked results alive.
var sink any

// setBenchtime sets how long testing.Benchmark measures each function.
func setBenchtime(d time.Duration) {
	testing.Init()
	_ = flag.Set("test.benchtime", d.String()) // the flag exists once testing.Init ran
}

// batchFrame is the unit the msg benchmarks code: sixteen envelopes to
// one destination, each a client Bcast carrying an encoded deposit — what
// one full sequencer batch costs on the wire.
func batchFrame() []msg.Envelope {
	envs := make([]msg.Envelope, batchSize)
	for i := range envs {
		payload, err := core.EncodeTx(core.TxRequest{Client: clientID(i), Seq: int64(i + 1),
			Type: "deposit", Args: []any{int64(i), int64(1)}})
		if err != nil {
			panic(err) // encoding our own request type cannot fail
		}
		b := broadcast.Bcast{From: clientID(i), Seq: int64(i + 1), Payload: payload}
		envs[i] = msg.Envelope{From: clientLoc, To: "b1", M: msg.M(broadcast.HdrBcast, b), LC: int64(i)}
	}
	return envs
}

func benchMsgEncode(b *testing.B) {
	envs := batchFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := msg.EncodeBatch(envs)
		if err != nil {
			b.Fatal(err)
		}
		sink = f
	}
}

func benchMsgDecode(b *testing.B) {
	frame, err := msg.EncodeBatch(batchFrame())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		envs, err := msg.DecodeFrame(frame)
		if err != nil || len(envs) != batchSize {
			b.Fatalf("decode: %d envelopes, %v", len(envs), err)
		}
		sink = envs
	}
}

func benchFlowAdmit(b *testing.B) {
	q := flow.NewQueue(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.Admit(flow.ClassWrite); err != nil {
			b.Fatal(err)
		}
		q.Release()
	}
}

func benchFlowShed(b *testing.B) {
	q := flow.NewQueue(64)
	for q.Admit(flow.ClassWrite) == nil {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.Admit(flow.ClassWrite) == nil {
			b.Fatal("full queue admitted a write")
		}
	}
}

// benchWAL appends 1 KiB records (about one journaled 16-deposit slot)
// under a sync policy, with or without the covering Sync the SMR group
// commit and the acceptors issue.
func benchWAL(dir string, pol store.SyncPolicy, sync bool) func(b *testing.B) {
	return func(b *testing.B) {
		root, err := os.MkdirTemp(dir, "wal-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(root)
		prov, err := store.NewDir(root, pol)
		if err != nil {
			b.Fatal(err)
		}
		st, err := prov.Open("bench")
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		rec := make([]byte, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Append(rec); err != nil {
				b.Fatal(err)
			}
			if sync {
				if err := st.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchSynodSlot decides one instance per iteration on the reference
// runner: one leader, three acceptors, phase 2 only after the first
// iteration elected the leader. The runner keeps its delivery trace, so
// allocs/op includes one trace entry per message.
func benchSynodSlot(b *testing.B) {
	cfg := synod.Config{Leaders: []msg.Loc{"l1"}, Acceptors: []msg.Loc{"a1", "a2", "a3"}, Learners: []msg.Loc{"learner"}}
	r := gpm.NewRunner(synod.Spec(cfg).System())
	decide := func(i int) {
		r.Inject("l1", msg.M(synod.HdrPropose, synod.Propose{Inst: i, Val: "v"}))
		if _, err := r.Run(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
	decide(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		decide(i)
	}
}

func bankDB(b *testing.B) *sqldb.DB {
	db, err := sqldb.Open(engine + ":mem:bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := core.BankSetup(db, bankRows); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchApplyBatch(b *testing.B) {
	exec := core.NewExecutor(bankDB(b), core.BankRegistry())
	reqs := make([]core.TxRequest, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			reqs[j] = core.TxRequest{Client: clientID(j), Seq: int64(i + 1), Type: "deposit",
				Args: []any{int64((i*batchSize + j) % bankRows), int64(1)}}
		}
		if res := exec.ApplyBatch(reqs); len(res) != batchSize || res[0].Err != "" {
			b.Fatalf("apply: %+v", res)
		}
	}
}

func benchPointGet(b *testing.B) {
	db := bankDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok := db.PointGet("accounts", int64(i%bankRows), "balance")
		if !ok {
			b.Fatal("missing account")
		}
		sink = v
	}
}

// benchTCPRoundTrip sends one envelope a -> b and one back over loopback.
func benchTCPRoundTrip(b *testing.B) {
	listen := func(id msg.Loc) *network.TCP {
		t, err := network.NewTCP(id, map[msg.Loc]string{id: "127.0.0.1:0"})
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	x, y := listen("x"), listen("y")
	defer x.Close()
	defer y.Close()
	x.SetPeer("y", y.Addr())
	y.SetPeer("x", x.Addr())
	m := msg.M(core.HdrTxResult, core.TxResult{Client: "x", Seq: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Send(msg.Envelope{To: "y", M: m}); err != nil {
			b.Fatal(err)
		}
		<-y.Receive()
		if err := y.Send(msg.Envelope{To: "x", M: m}); err != nil {
			b.Fatal(err)
		}
		<-x.Receive()
	}
}

func layerBenches(tmp string) []layerBench {
	return []layerBench{
		{"store.append/batch", benchWAL(tmp, store.SyncBatch, false)},
		{"store.append+sync/batch", benchWAL(tmp, store.SyncBatch, true)},
		{"store.append/always", benchWAL(tmp, store.SyncAlways, false)},
		{"store.append+sync/always", benchWAL(tmp, store.SyncAlways, true)},
		{"msg.encode/16-batch-frame", benchMsgEncode},
		{"msg.decode/16-batch-frame", benchMsgDecode},
		{"synod.slot/runner", benchSynodSlot},
		{"core.applybatch/16-deposits", benchApplyBatch},
		{"sqldb.pointget", benchPointGet},
		{"flow.admit", benchFlowAdmit},
		{"flow.shed", benchFlowShed},
		{"network.tcp-roundtrip/loopback", benchTCPRoundTrip},
	}
}

// runLayers runs every layer microbenchmark for about a second each.
func runLayers(w io.Writer, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	registerWireTypes()
	setBenchtime(time.Second)
	fmt.Fprintf(w, "%-34s %12s %12s %12s %10s\n", "layer benchmark", "ns/op", "allocs/op", "B/op", "n")
	for _, lb := range layerBenches(outDir) {
		r := testing.Benchmark(lb.fn)
		if r.N == 0 {
			return fmt.Errorf("%s failed", lb.name)
		}
		fmt.Fprintf(w, "%-34s %12.1f %12d %12d %10d\n", lb.name,
			float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp(), r.AllocedBytesPerOp(), r.N)
	}
	return nil
}

// microMetrics adds the per-layer metrics that only a microbenchmark can
// give — the codec's cost is not visible at any interface the trace
// wraps, and admission is off in these workloads — measured briefly.
func microMetrics(res *runResult) error {
	setBenchtime(300 * time.Millisecond)
	enc, dec, adm := testing.Benchmark(benchMsgEncode), testing.Benchmark(benchMsgDecode), testing.Benchmark(benchFlowAdmit)
	if enc.N == 0 || dec.N == 0 || adm.N == 0 {
		return fmt.Errorf("layer microbenchmark failed")
	}
	nsOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	res.Metrics["msg.encode_ns_op"] = metric{nsOp(enc), "ns"}
	res.Metrics["msg.decode_ns_op"] = metric{nsOp(dec), "ns"}
	res.Metrics["msg.allocs_op"] = metric{float64(enc.AllocsPerOp() + dec.AllocsPerOp()), "count"}
	res.Metrics["flow.admit_ns_op"] = metric{nsOp(adm), "ns"}
	return nil
}
