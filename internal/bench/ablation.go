package bench

import (
	"fmt"
	"io"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
)

// Ablations for the design choices DESIGN.md calls out: how much of the
// broadcast service's throughput comes from batching ("All versions of
// the broadcast service implement batching"), and how much of PBR's
// recovery hinges on the state-transfer overlap optimization (resuming
// with one recovered backup instead of waiting for all).

// AblationResult compares a design choice on/off.
type AblationResult struct {
	Name    string
	WithOn  float64
	WithOff float64
	Unit    string
}

// String renders the ablation row.
func (a AblationResult) String() string {
	return fmt.Sprintf("%-32s on=%10.1f %-6s off=%10.1f %-6s (%.2fx)",
		a.Name, a.WithOn, a.Unit, a.WithOff, a.Unit, safeRatio(a.WithOn, a.WithOff))
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// AblationBatching measures SMR micro-benchmark throughput with the
// broadcast service batching freely vs restricted to one message per
// proposal.
func AblationBatching(clients, txPer, rows int) AblationResult {
	run := func(maxBatch int) float64 {
		sc := newCluster(deployment{app: bankApp(rows),
			nodes: literal("smr", []string{"h2", "h2", "h2"}, 3, func(n *deploy.Node) { n.Batch = maxBatch })})
		stats := &loadStats{}
		work := func(i int) Workload { return MicroWorkload(rows, int64(i)*101) }
		shadowClients(sc.clu, stats, clients, txPer, core.ModeSMR, sc.rloc, sc.bloc, 10*time.Second, work)
		runToFinish(sc.sim, stats, clients)
		return stats.point(clients).Throughput
	}
	return AblationResult{
		Name:    "broadcast batching (SMR micro)",
		WithOn:  run(0), // unbounded batches
		WithOff: run(1), // one message per proposal
		Unit:    "tps",
	}
}

// AblationOverlap measures PBR recovery time with and without the
// overlap optimization by comparing a 3-member recovery (overlap applies:
// resume after the first recovered backup) against one forced to wait for
// every backup.
func AblationOverlap(rows int) AblationResult {
	measure := func(members int) float64 {
		timing := core.Timing{
			HeartbeatEvery: 100 * time.Millisecond,
			SuspectAfter:   time.Second,
			ClientRetry:    500 * time.Millisecond,
		}
		engines := []string{"h2", "h2", "h2", "h2"}[:members+1]
		sc := newCluster(deployment{app: bankApp(rows), timing: timing,
			nodes: literal("pbr", engines, 3, func(n *deploy.Node) { n.Members = members })})
		stats := &loadStats{}
		work := func(i int) Workload { return MicroWorkload(rows, int64(i)) }
		shadowClients(sc.clu, stats, 2, 1<<30, core.ModePBR, sc.rloc, sc.bloc, 500*time.Millisecond, work)
		sc.sim.After(2*time.Second, func() { sc.clu.Node("r1").Crash() })

		r2 := sc.pbr("r2")
		configAt, resumed := -1.0, -1.0
		var poll func()
		poll = func() {
			if configAt < 0 && r2.ConfigNow().Seq > 0 {
				configAt = sc.sim.Now().Seconds()
			}
			if configAt >= 0 && resumed < 0 && r2.IsPrimary() && !r2.Stopped() {
				resumed = sc.sim.Now().Seconds()
				return
			}
			sc.sim.After(5*time.Millisecond, poll)
		}
		sc.sim.After(0, poll)
		for resumed < 0 && sc.sim.Steps() < 80_000_000 && !sc.sim.Idle() {
			sc.sim.Run(0, 100_000)
		}
		if resumed < 0 || configAt < 0 {
			return -1
		}
		// The interesting window is reconfiguration-to-resume: detection
		// time is identical in both variants (and jittery), so exclude it.
		return resumed - configAt
	}
	return AblationResult{
		Name:    "state-transfer overlap (PBR recovery)",
		WithOn:  measure(3), // 4 replicas: overlap lets the primary resume early
		WithOff: measure(2), // 3 replicas: must wait for the single fresh spare
		Unit:    "sec",
	}
}

// RenderAblations prints the ablation rows.
func RenderAblations(w io.Writer, rows []AblationResult) {
	fmt.Fprintln(w, "Ablations — design choices of DESIGN.md")
	for _, r := range rows {
		fmt.Fprintln(w, " ", r)
	}
}
