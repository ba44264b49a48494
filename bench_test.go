package shadowdb

// The benchmark harness entry points: one testing.B benchmark per table
// and figure of the paper's evaluation (Section IV). Each benchmark runs
// the corresponding experiment at reduced scale and reports the paper's
// headline metric as custom units, so `go test -bench=.` regenerates a
// compact version of the whole evaluation; `cmd/bench` prints the full
// tables.

import (
	"testing"
	"time"

	"shadowdb/internal/bench"
	"shadowdb/internal/broadcast"
)

// BenchmarkTable1 regenerates Table I: specification and generated
// program sizes. Reported units: class-AST nodes of the largest spec and
// the optimizer's shrink factor.
func BenchmarkTable1(b *testing.B) {
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table1()
	}
	var largest, shrinkNum, shrinkDen int
	for _, r := range rows {
		if r.SpecNodes > largest {
			largest = r.SpecNodes
		}
		shrinkNum += r.TermNodes
		shrinkDen += r.OptNodes
	}
	b.ReportMetric(float64(largest), "max-spec-nodes")
	b.ReportMetric(float64(shrinkNum)/float64(shrinkDen), "optimizer-shrink-x")
}

// BenchmarkFig8 regenerates Fig. 8: broadcast-service latency and peak
// throughput per execution mode.
func BenchmarkFig8(b *testing.B) {
	var res bench.Fig8Result
	for i := 0; i < b.N; i++ {
		res = bench.Fig8(bench.QuickFig8())
	}
	peak := func(m broadcast.Mode) float64 {
		best := 0.0
		for _, p := range res.Curves[m] {
			if p.Throughput > best {
				best = p.Throughput
			}
		}
		return best
	}
	b.ReportMetric(peak(broadcast.Interpreted), "interp-msgs/s")
	b.ReportMetric(peak(broadcast.InterpretedOpt), "opt-msgs/s")
	b.ReportMetric(peak(broadcast.Compiled), "compiled-msgs/s")
	b.ReportMetric(res.Curves[broadcast.Compiled][0].MeanLatMs, "compiled-1cli-ms")
}

// BenchmarkFig9a regenerates Fig. 9(a): micro-benchmark peak committed
// throughput per system.
func BenchmarkFig9a(b *testing.B) {
	var res bench.Fig9Result
	for i := 0; i < b.N; i++ {
		res = bench.Fig9a(bench.QuickFig9a())
	}
	b.ReportMetric(bench.Peak(res.Curves["ShadowDB-PBR"]), "pbr-tps")
	b.ReportMetric(bench.Peak(res.Curves["ShadowDB-SMR"]), "smr-tps")
	b.ReportMetric(bench.Peak(res.Curves["H2-stdalone"]), "stdalone-tps")
	b.ReportMetric(bench.Peak(res.Curves["H2-repl."]), "h2repl-tps")
	b.ReportMetric(bench.Peak(res.Curves["MySQL-repl."]), "mysqlrepl-tps")
}

// BenchmarkFig9b regenerates Fig. 9(b): TPC-C peak committed throughput
// per system (the PBR/SMR near-parity headline).
func BenchmarkFig9b(b *testing.B) {
	var res bench.Fig9Result
	for i := 0; i < b.N; i++ {
		res = bench.Fig9b(bench.QuickFig9b())
	}
	pbr := bench.Peak(res.Curves["ShadowDB-PBR"])
	smr := bench.Peak(res.Curves["ShadowDB-SMR"])
	b.ReportMetric(pbr, "pbr-tps")
	b.ReportMetric(smr, "smr-tps")
	if pbr > 0 {
		b.ReportMetric(smr/pbr, "smr/pbr-parity")
	}
	b.ReportMetric(bench.Peak(res.Curves["H2-stdalone"]), "stdalone-tps")
}

// BenchmarkFig10a regenerates Fig. 10(a): the recovery timeline after a
// primary crash.
func BenchmarkFig10a(b *testing.B) {
	var res bench.Fig10aResult
	for i := 0; i < b.N; i++ {
		res = bench.Fig10a(bench.QuickFig10a())
	}
	b.ReportMetric(res.SuspectedAt.Seconds()-res.CrashAt.Seconds(), "detect-s")
	b.ReportMetric(res.ConfigLatency.Seconds()*1000, "config-ms")
	b.ReportMetric(res.TransferTime.Seconds(), "recovery-s")
}

// BenchmarkFig10b regenerates Fig. 10(b): state-transfer time against
// database size and row width.
func BenchmarkFig10b(b *testing.B) {
	var res bench.Fig10bResult
	for i := 0; i < b.N; i++ {
		res = bench.Fig10b(bench.QuickFig10b())
	}
	last := len(res.Small) - 1
	b.ReportMetric(res.Small[last].Seconds, "16B-transfer-s")
	b.ReportMetric(res.Large[last].Seconds, "1KB-transfer-s")
	if res.Small[last].Seconds > 0 {
		b.ReportMetric(res.Large[last].Seconds/res.Small[last].Seconds, "1KB/16B-ratio")
	}
}

// BenchmarkEndToEndPBR measures the public API's transaction round trip
// on a live in-process PBR cluster (real goroutines and channels, not the
// simulator).
func BenchmarkEndToEndPBR(b *testing.B) {
	benchEndToEnd(b, PBR)
}

// BenchmarkEndToEndSMR is the SMR counterpart.
func BenchmarkEndToEndSMR(b *testing.B) {
	benchEndToEnd(b, SMR)
}

func benchEndToEnd(b *testing.B, mode Mode) {
	cluster, err := Open(bankConfig(mode))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	cli, err := cluster.Client()
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.ExecTimeout(30*time.Second, "deposit", int64(i%100), int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndParallelSMR runs benchEndToEnd's deposits from
// several closed-loop clients at once, one per goroutine, so the
// cluster's processes have work to step at the same time.
func BenchmarkEndToEndParallelSMR(b *testing.B) {
	benchEndToEndParallel(b, SMR)
}

// BenchmarkEndToEndParallelPBR is the PBR counterpart.
func BenchmarkEndToEndParallelPBR(b *testing.B) {
	benchEndToEndParallel(b, PBR)
}

func benchEndToEndParallel(b *testing.B, mode Mode) {
	cluster, err := Open(bankConfig(mode))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	// Four clients per core: a closed-loop client idles through each
	// round trip, so one per core would leave the cores idle too.
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cli, err := cluster.Client()
		if err != nil {
			b.Error(err)
			return
		}
		defer func() { _ = cli.Close() }()
		for i := 0; pb.Next(); i++ {
			if _, err := cli.ExecTimeout(30*time.Second, "deposit", int64(i%100), int64(1)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
