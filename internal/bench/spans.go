package bench

import (
	"fmt"
	"io"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

// The spans experiment: run the SMR micro-benchmark on the simulator
// with tracing on, the online checker subscribed to the live event
// stream, and the causal collector reconstructing per-request spans. It
// produces the per-segment latency breakdown (broadcast / consensus /
// apply) the admin endpoint exposes on live nodes — measured here in
// virtual time, so the split is deterministic — and certifies the run:
// a workload that violates total order, delivery order, consensus
// safety, or durability fails the experiment.

// SpanConfig scales the experiment.
type SpanConfig struct {
	Clients  int
	TxPer    int
	Rows     int
	RingSize int
}

// DefaultSpans is the standard scale.
func DefaultSpans() SpanConfig {
	return SpanConfig{Clients: 8, TxPer: 50, Rows: 5_000, RingSize: 1 << 16}
}

// QuickSpans keeps tests fast.
func QuickSpans() SpanConfig {
	return SpanConfig{Clients: 4, TxPer: 10, Rows: 500, RingSize: 1 << 14}
}

// SpanResult is the experiment outcome.
type SpanResult struct {
	// Segments is the per-segment latency summary (virtual nanoseconds).
	Segments map[string]dist.SegmentStats
	// Spans is the number of reconstructed request spans; Complete how
	// many had every stage on record.
	Spans, Complete int
	// Audit is the online checker's view: events consumed and the
	// property violations it flagged (must be none for a correct build).
	Audit
	// RingGaps is the count of events lost to ring overflow (0 means the
	// trace was complete).
	RingGaps int64
}

// Gates: a workload that violates total order, delivery order,
// consensus safety, or durability fails the experiment.
func (r SpanResult) Gates() []Gate { return []Gate{r.Audit.gate()} }

// Spans runs the experiment.
func Spans(cfg SpanConfig) SpanResult {
	run := startRun("spans", cfg.RingSize, "", "")
	sc := run.Attach(newCluster(deployment{app: bankApp(cfg.Rows), nodes: literal("smr", []string{"h2", "h2", "h2"}, 3, nil)}))

	stats := &loadStats{}
	shadowClients(sc.clu, stats, cfg.Clients, cfg.TxPer, core.ModeSMR,
		nil, sc.bloc, 5*time.Second,
		func(i int) Workload { return MicroWorkload(cfg.Rows, int64(1000+i)) })

	runToFinish(sc.sim, stats, cfg.Clients)
	if stats.finished < cfg.Clients {
		panic(fmt.Sprintf("bench: spans workload stalled: %d/%d clients finished",
			stats.finished, cfg.Clients))
	}

	// Collect the (single, cluster-wide) ring and rebuild request spans.
	c := dist.NewCollector()
	c.Gather(map[string]*obs.Obs{"sim": run.Obs})
	r := c.Collect()

	res := SpanResult{Segments: r.Segments, Spans: len(r.Spans), Audit: run.Audit()}
	run.Close(true)
	for _, g := range r.Gaps {
		res.RingGaps += g
	}
	for _, s := range r.Spans {
		if s.Breakdown().Complete {
			res.Complete++
		}
	}
	// Feed the span histograms so an -admin run exposes the breakdown on
	// /metrics like a live node would.
	dist.RecordSpans(obs.Default, r.Spans)
	return res
}

// reportSpans flattens the experiment for BENCH_spans.json.
func reportSpans(res SpanResult, r *Report) {
	r.Add("spans.count", float64(res.Spans), "count")
	r.Add("spans.complete", float64(res.Complete), "count")
	res.Audit.report(r)
	r.Add("spans.ring_gaps", float64(res.RingGaps), "count")
	for _, seg := range []string{"broadcast", "consensus", "apply", "total"} {
		st := res.Segments[seg]
		pre := "spans." + seg + "."
		r.Add(pre+"mean", float64(st.Mean), "ns")
		r.Add(pre+"p50", float64(st.P50), "ns")
		r.Add(pre+"p99", float64(st.P99), "ns")
		r.Add(pre+"max", float64(st.Max), "ns")
	}
}

// RenderSpans prints the human-readable table.
func RenderSpans(w io.Writer, res SpanResult) {
	fmt.Fprintln(w, "Per-request span breakdown — SMR micro-benchmark (virtual time)")
	fmt.Fprintf(w, "  spans: %d (%d complete)   checker: %d events, %d violations   ring gaps: %d\n",
		res.Spans, res.Complete, res.Events, len(res.Violations), res.RingGaps)
	fmt.Fprintf(w, "  %-10s %10s %10s %10s %10s\n", "segment", "mean", "p50", "p99", "max")
	for _, seg := range []string{"broadcast", "consensus", "apply", "total"} {
		st := res.Segments[seg]
		fmt.Fprintf(w, "  %-10s %10s %10s %10s %10s\n", seg,
			ms(st.Mean), ms(st.P50), ms(st.P99), ms(st.Max))
	}
	renderViolations(w, "", res.Violations)
}

func ms(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/float64(time.Millisecond))
}
