//go:build !race

package shadowdb

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"shadowdb/internal/bench"
	"shadowdb/internal/core"
	"shadowdb/internal/obs"
)

// The count gates (ROADMAP item 12(a)), against the budgets
// testdata/counts.json commits: the allocations and allocated bytes one
// deposit costs the whole in-process deployment, SMR and PBR, and the
// allocations of the lease-read hot path's serve and apply loops
// (DESIGN.md §13). Counts, unlike times, hold still between runs of one
// build (the spread beside each budget is five runs'), so a change that
// makes a path do more per operation fails here. The race detector adds
// allocations of its own, so the gates are built without it.

// countsFile is testdata/counts.json: per mode and count, and per
// read-path loop, the budget and the five-run spread it came from,
// stamped with the Go version that measured it.
type countsFile struct {
	Go       string                            `json:"go"`
	Warmup   int                               `json:"warmup"`
	Deposits int                               `json:"deposits"`
	Modes    map[string]map[string]countBudget `json:"modes"`
	ReadPath map[string]countBudget            `json:"read_path"`
}

// readCounts loads testdata/counts.json.
func readCounts(t *testing.T) countsFile {
	t.Helper()
	raw, err := os.ReadFile("testdata/counts.json")
	if err != nil {
		t.Fatal(err)
	}
	var f countsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("testdata/counts.json: %v", err)
	}
	return f
}

// check reports name = got against b, naming the Go version b was
// measured on when it is not this one.
func (b countBudget) check(t *testing.T, f countsFile, name string, got float64) {
	t.Helper()
	if got > b.limit() {
		stamp := ""
		if v := runtime.Version(); v != f.Go {
			stamp = fmt.Sprintf(" (budget measured on %s, this is %s)", f.Go, v)
		}
		t.Errorf("%s = %.1f, over the budget %.1f by more than its bound %.1f%s",
			name, got, b.Budget, b.limit()-b.Budget, stamp)
	}
}

// countBudget is one gated count: the largest of five runs and the
// smallest and largest runs it was taken from.
type countBudget struct {
	Budget float64    `json:"budget"`
	Spread [2]float64 `json:"spread"`
}

// limit is the most a run may read: the budget plus three times the
// spread of the runs it came from, and never less than one percent over
// it, since a five-run spread can read near zero. A whole-number count
// (testing.AllocsPerRun's) may therefore never exceed its budget.
func (b countBudget) limit() float64 {
	return b.Budget + max(3*(b.Spread[1]-b.Spread[0]), b.Budget/100)
}

// measureCounts boots a volatile cluster in mode, warms it up, and
// returns the allocations and allocated bytes per transaction of
// deposits fixed-seed deposits, each awaited before the next.
func measureCounts(t *testing.T, mode Mode, warmup, deposits int) (allocs, bytes float64) {
	t.Helper()
	cluster, cli := openCluster(t, mode)
	rng := rand.New(rand.NewSource(1))
	deposit := func() {
		res, err := cli.ExecTimeout(10*time.Second, "deposit", int64(rng.Intn(100)), int64(1+rng.Intn(9)))
		if err != nil || res.Aborted {
			t.Fatalf("deposit: %v (aborted %v)", err, res.Aborted)
		}
	}
	for i := 0; i < warmup; i++ {
		deposit()
	}
	var before, after runtime.MemStats
	settle(t, cluster, mode, warmup)
	runtime.ReadMemStats(&before)
	for i := 0; i < deposits; i++ {
		deposit()
	}
	settle(t, cluster, mode, warmup+deposits)
	runtime.ReadMemStats(&after)
	n := float64(deposits)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// settle waits until every SMR replica has applied n transactions and
// then until no process has stepped for quiet. An SMR client takes the
// first of the replicas' answers, so the others may still be applying
// the slots before it, and the broadcast nodes that lost the race may
// still be deciding and delivering them; without these waits a window
// would count how far they lagged at its two ends, which the goroutine
// scheduler decides, and a run would read up to a percent off (under
// CPU load, up to 4 % low, with as many as 500 of the window's 7 200
// steps not yet taken). An SMR deployment has no periodic steps to wait
// out. A PBR primary answers only once
// every member has applied the deposit (and a spare applies nothing),
// so there is nothing to wait for.
func settle(t *testing.T, c *Cluster, mode Mode, n int) {
	t.Helper()
	if mode != SMR {
		return
	}
	const quiet = 5 * time.Millisecond
	steps := obs.Default.Counter("runtime.steps")
	applied := func() bool {
		all := true
		eachExecutor(c, func(e *core.Executor) { all = all && e.Executed >= int64(n) })
		return all
	}
	deadline := time.Now().Add(10 * time.Second)
	for ; !applied(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the replicas did not all apply %d transactions within 10s", n)
		}
	}
	for last, since := steps.Value(), time.Now(); time.Since(since) < quiet; time.Sleep(quiet / 20) {
		if v := steps.Value(); v != last {
			last, since = v, time.Now()
		}
		if time.Now().After(deadline) {
			t.Fatalf("the deployment was still stepping 10s after the window's %d transactions", n)
		}
	}
}

func TestCountBudget(t *testing.T) {
	f := readCounts(t)
	for name, mode := range map[string]Mode{"smr": SMR, "pbr": PBR} {
		t.Run(name, func(t *testing.T) {
			allocs, bytes := measureCounts(t, mode, f.Warmup, f.Deposits)
			t.Logf("%s: %.2f allocs/tx, %.1f B/tx", name, allocs, bytes)
			for count, got := range map[string]float64{"allocs_per_tx": allocs, "bytes_per_tx": bytes} {
				b, ok := f.Modes[name][count]
				if !ok {
					t.Errorf("testdata/counts.json has no %s budget for %s", count, name)
					continue
				}
				b.check(t, f, name+" "+count, got)
			}
		})
	}
}

// TestReadPathAllocBudget gates the lease-read hot path: the serve loop
// (ReadRequest in, pooled ReadResult out) must allocate nothing, and the
// ordered apply loop no more than its budget.
func TestReadPathAllocBudget(t *testing.T) {
	f := readCounts(t)
	serve, apply := bench.MeasureReadAllocs(500)
	t.Logf("serve %.0f allocs/op, apply %.0f allocs/op", serve, apply)
	for loop, got := range map[string]float64{"serve_allocs_per_op": serve, "apply_allocs_per_op": apply} {
		b, ok := f.ReadPath[loop]
		if !ok {
			t.Errorf("testdata/counts.json has no read_path budget for %s", loop)
			continue
		}
		b.check(t, f, "read path "+loop, got)
	}
}
