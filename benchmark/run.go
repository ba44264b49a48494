package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"shadowdb/internal/obs"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the line the benchmark prints
// last, plus what the results file and the tables need.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Set       int               `json:"set"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Ungated numbers: printed and stored, never compared to a bound.
	Info   map[string]metric `json:"info,omitempty"`
	Errors []string          `json:"errors,omitempty"`
}

type runOpts struct {
	seed    int64
	seconds int  // solo + loaded measuring time
	traced  bool // install the decorators and report the per-layer metrics
	setups  int  // minSetups, or 1 for exactly one set-up; setup_s is the median
	outDir  string
	log     io.Writer
}

// phases splits the measuring time: a third solo, two thirds loaded,
// and a warm-up of a tenth on top (30 s gives the 3 + 10 + 20 of the
// full-length run).
func phases(seconds int) (warm, solo, loaded time.Duration) {
	total := time.Duration(seconds) * time.Second
	loaded = (total * 2 / 3).Truncate(time.Second)
	return total / 10, total - loaded, loaded
}

// A measured run sets up at least minSetups times, then until
// setupBudget has been spent on it or maxSetups is reached.
const (
	minSetups   = 3
	setupBudget = 1500 * time.Millisecond
	maxSetups   = 9
)

// soloSettle is how long after dropping to one client the solo window
// opens, so the warm-up's last requests have drained.
const soloSettle = 200 * time.Millisecond

func runWorkload(w *workload, o runOpts) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: o.seed, Seconds: o.seconds,
		Metrics: map[string]metric{}, Info: map[string]metric{}}
	logf := func(format string, args ...any) { fmt.Fprintf(o.log, format+"\n", args...) }
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(o.outDir, "data-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// Set-up: build, populate, first committed transaction. Repeated so
	// the reported time is a median; the last cluster is the one measured.
	var (
		c      *cluster
		d      *driver
		tr     *tracer
		epoch  time.Time
		setups []float64
	)
	began := time.Now()
	for i := 0; ; i++ {
		// A fast set-up is repeated more often, for a steadier median.
		last := i >= o.setups-1 && (o.setups == 1 || i >= maxSetups-1 || time.Since(began) > setupBudget)
		epoch = time.Now()
		tr = nil
		if o.traced && last {
			tr = newTracer(epoch)
		}
		if c, err = buildCluster(w, filepath.Join(base, fmt.Sprintf("set%d", i)), tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d = newDriver(w, c, o.seed, epoch)
		d.setConc(1)
		select {
		case <-d.first:
		case <-time.After(30 * time.Second):
			c.close()
			d.close()
			return nil, fmt.Errorf("set-up: no transaction committed within 30 s")
		}
		setups = append(setups, time.Since(epoch).Seconds())
		if last {
			break
		}
		err := d.drain()
		c.close()
		d.close()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
	}
	defer func() {
		c.close()
		d.close()
	}()
	sort.Float64s(setups)
	logf("  set-up times (s): %.3f", setups)

	warm, solo, loaded := phases(o.seconds)
	runtime.GC()
	d.setConc(numClients)
	time.Sleep(warm)

	d.setConc(1)
	time.Sleep(soloSettle)
	if tr != nil {
		tr.on.Store(true)
	}
	solo0 := d.now()
	time.Sleep(solo)
	solo1 := d.now()
	if tr != nil {
		tr.on.Store(false)
	}

	// Loaded phase, one-second slices. A traced run records only the odd
	// slices: the even ones give the untraced rate and process cost the
	// overhead is measured against.
	d.setConc(numClients)
	load0 := d.now()
	var tracedWin, plainWin [][2]int64
	var plain procUsage
	fsync0 := obs.C("store.wal.fsyncs").Value()
	for i := 0; i < int(loaded/time.Second); i++ {
		lo := load0 + int64(i)*int64(time.Second)
		win := [2]int64{lo, lo + int64(time.Second)}
		if tr != nil && i%2 == 1 {
			tr.on.Store(true)
			tracedWin = append(tracedWin, win)
			sleepUntil(d, win[1])
			tr.on.Store(false)
			continue
		}
		plainWin = append(plainWin, win)
		before := readUsage()
		sleepUntil(d, win[1])
		plain.add(readUsage().sub(before))
	}
	load1 := d.now()
	fsyncs := obs.C("store.wal.fsyncs").Value() - fsync0
	plain.heapInuse = readUsage().heapInuse

	if err := d.drain(); err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	res.Errors = append(res.Errors, check(c, d, res, logf)...)
	res.Attempted, res.Failed = d.attempted.Load(), d.failed.Load()
	for _, lc := range d.clients {
		res.Failed += lc.c.Shed // explicit flow.Reject answers
	}
	res.Correct = len(res.Errors) == 0
	res.Info["error_rate"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}

	soloS, loadS := d.window(solo0, solo1), d.window(load0, load1)
	if o.traced {
		layerMetrics(res, tr, soloS, loadS, tracedWin, plainWin, plain, fsyncs, logf)
		path := filepath.Join(o.outDir, "trace-"+w.name+".json")
		if err := tr.write(path, w.name, o.seed); err != nil {
			return nil, err
		}
		logf("  spans written to %s", path)
		return res, nil
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	endToEnd(res, soloS, loadS, load0, load1, logf)
	return res, nil
}

func sleepUntil(d *driver, t int64) {
	if dt := t - d.now(); dt > 0 {
		time.Sleep(time.Duration(dt))
	}
}

// latencies returns the sorted latencies in milliseconds. A failed
// request misses every percentile: it is entered at no less than the
// timeout.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep != nil && !keep(s) {
			continue
		}
		ns := s.end - s.start
		if s.failed {
			ns = max(ns, int64(requestTimeout))
		}
		out = append(out, float64(ns)/1e6)
	}
	sort.Float64s(out)
	return out
}

// endToEnd fills the metrics a user of the system would see.
func endToEnd(res *runResult, solo, load []sample, load0, load1 int64, logf func(string, ...any)) {
	ends := make([]int64, 0, len(load))
	for _, s := range load {
		if !s.failed {
			ends = append(ends, s.end)
		}
	}
	rates := sliceRates(ends, load0, load1)
	q1, q3 := quartiles(rates)
	all := latencies(load, nil)
	writes := latencies(load, func(s sample) bool { return !s.read })
	soloL := latencies(solo, nil)

	res.Metrics["throughput_tps"] = metric{median(rates), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{percentile(all, 50), "ms"}
	res.Metrics["solo_latency_p50_ms"] = metric{percentile(soloL, 50), "ms"}
	res.Metrics["write_latency_p50_ms"] = metric{percentile(writes, 50), "ms"}

	tail := tailPercentile(len(all))
	res.Info["throughput_iqr_tps"] = metric{q3 - q1, "1/s"}
	res.Info["latency_p95_ms"] = metric{percentile(all, 95), "ms"}
	res.Info["latency_p99_ms"] = metric{percentile(all, 99), "ms"}
	res.Info["latency_tail_pct"] = metric{tail, "%"}
	res.Info["latency_tail_ms"] = metric{percentile(all, tail), "ms"}
	res.Info["loaded_samples"] = metric{float64(len(all)), "count"}
	res.Info["loaded_write_samples"] = metric{float64(len(writes)), "count"}
	res.Info["solo_samples"] = metric{float64(len(soloL)), "count"}
	res.Info["solo_latency_p95_ms"] = metric{percentile(soloL, 95), "ms"}

	logf("  loaded: %d clients, %d slices of 1 s, %d samples (%d writes); solo: %d samples",
		numClients, len(rates), len(all), len(writes), len(soloL))
	logf("  committed per slice: %.0f", rates)
	logf("  latency p%v = %.3f ms is the highest percentile with >= 10 samples beyond it", tail, percentile(all, tail))
}

// procUsage is process-wide cost over some interval.
type procUsage struct {
	mallocs, allocBytes uint64
	cpu                 time.Duration
	heapInuse           uint64
}

func readUsage() procUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procUsage{ms.Mallocs, ms.TotalAlloc, cpu, ms.HeapInuse}
}

func (u procUsage) sub(o procUsage) procUsage {
	return procUsage{u.mallocs - o.mallocs, u.allocBytes - o.allocBytes, u.cpu - o.cpu, u.heapInuse}
}

func (u *procUsage) add(o procUsage) {
	u.mallocs += o.mallocs
	u.allocBytes += o.allocBytes
	u.cpu += o.cpu
}

// countIn counts the successful samples that ended inside any of the
// windows; nil windows count them all.
func countIn(ss []sample, wins [][2]int64, keep func(sample) bool) int {
	n := 0
	for _, s := range ss {
		if s.failed || (keep != nil && !keep(s)) {
			continue
		}
		if wins == nil {
			n++
		}
		for _, w := range wins {
			if s.end >= w[0] && s.end < w[1] {
				n++
				break
			}
		}
	}
	return n
}

// layerMetrics fills the per-layer metrics from the traced slices, the
// untraced slices and the solo phase, and prints the layer table.
func layerMetrics(res *runResult, tr *tracer, solo, load []sample,
	tracedWin, plainWin [][2]int64, plain procUsage, fsyncs int64, logf func(string, ...any)) {
	stats := tr.stats(tracedWin)
	ops := float64(max(countIn(load, tracedWin, nil), 1))
	reads := float64(max(countIn(load, tracedWin, func(s sample) bool { return s.read }), 1))
	plainOps := float64(max(countIn(load, plainWin, nil), 1))
	allOps := float64(max(countIn(load, nil, nil), 1))
	us := func(ns int64, per float64) float64 { return float64(ns) / 1e3 / per }
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	net := sumWhere(stats, "network.")
	bc := sumWhere(stats, "broadcast.step:")
	syn := sumWhere(stats, "synod.step:")
	deliver := sumWhere(stats, "core.step:bc.deliver")
	decide := sumWhere(stats, "broadcast.step:px.decide")
	read := sumWhere(stats, "core.step:sdb.read")
	coreAll := sumWhere(stats, "core.step:")
	sql := sumWhere(stats, "sqldb.")
	app, syncs, snap := sumWhere(stats, "store.append"), sumWhere(stats, "store.sync"), sumWhere(stats, "store.snapshot")

	set("network.send_us_per_tx", us(net.Self, ops), "us")
	set("network.envelopes_per_tx", float64(net.N)/ops, "count")
	set("broadcast.step_us_per_tx", us(bc.Self, ops), "us")
	set("broadcast.steps_per_tx", float64(bc.Count)/ops, "count")
	set("broadcast.txs_per_batch", float64(deliver.N)/float64(max(deliver.Count, 1)), "count")
	set("synod.step_us_per_tx", us(syn.Self, ops), "us")
	set("synod.steps_per_tx", float64(syn.Count)/ops, "count")
	// Every broadcast node learns every slot, so decides / nodes = slots.
	slots := float64(decide.Count) / float64(len(bcastLocs))
	set("synod.msgs_per_slot", float64(syn.Count)/max(slots, 1), "count")
	set("store.append_us_per_tx", us(app.Self, ops), "us")
	set("store.sync_us_per_tx", us(syncs.Self, ops), "us")
	set("store.snapshot_us_per_tx", us(snap.Self, ops), "us")
	set("store.syncs_per_tx", float64(fsyncs)/allOps, "count")
	set("store.bytes_per_tx", float64(app.N)/ops, "bytes")
	set("core.step_us_per_tx", us(coreAll.Self-read.Self, ops), "us")
	set("core.read_serve_us_per_read", us(read.Self, reads), "us")
	set("sqldb.proc_us_per_tx", us(sql.Self, ops), "us")
	set("process.allocs_per_tx", float64(plain.mallocs)/plainOps, "count")
	set("process.alloc_bytes_per_tx", float64(plain.allocBytes)/plainOps, "bytes")
	set("process.cpu_ms_per_tx", float64(plain.cpu)/1e6/plainOps, "ms")
	set("process.heap_inuse_mb", float64(plain.heapInuse)/(1<<20), "MB")

	tracedRate := ops / float64(max(len(tracedWin), 1))
	plainRate := plainOps / float64(max(len(plainWin), 1))
	set("trace.overhead_pct", 100*(1-tracedRate/plainRate), "%")

	// Busy time per layer, as shares of all busy time in the traced slices.
	byLayer := map[string]int64{}
	var busy int64
	for name, st := range stats {
		byLayer[layerOf(name)] += st.Self
		busy += st.Self
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	logf("  busy time by layer, %d traced slices, %.0f operations (self time = span minus children):", len(tracedWin), ops)
	for _, l := range layers {
		share := 100 * float64(byLayer[l]) / float64(max(busy, 1))
		res.Info["busy_share."+l] = metric{share, "%"}
		logf("    %-10s %9.1f us/op  %5.1f %%", l, us(byLayer[l], ops), share)
	}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].Self > stats[names[j]].Self })
	logf("  spans by self time:")
	for _, n := range names {
		st := stats[n]
		logf("    %-34s %8d spans  %9.1f us/op self  %8.1f us mean", n, st.Count, us(st.Self, ops), us(st.Total, float64(st.Count)))
	}

	// Solo phase: one request in flight, so every span inside a request's
	// interval belongs to it. What no span covers is wire, timers and
	// scheduler.
	var shares, lat []float64
	if len(solo) > 0 {
		cover := tr.cover(solo[0].start, solo[len(solo)-1].end)
		for _, s := range solo {
			if s.failed {
				continue
			}
			shares = append(shares, 100*(1-coveredShare(cover, s.start, s.end)))
			lat = append(lat, float64(s.end-s.start))
		}
	}
	un := median(shares)
	set("solo.unattributed_pct", un, "%")
	flag := ""
	if un > 25 {
		flag = "  ** above 25 %: the timeline below leaves most of the latency to wire, timers and scheduler **"
	}
	logf("  solo: %d requests, median latency %.3f ms, median unattributed %.1f %%%s", len(lat), median(lat)/1e6, un, flag)
	if i := medianSample(solo); i >= 0 {
		s := solo[i]
		logf("  hop timeline of the median solo request (%.3f ms):", float64(s.end-s.start)/1e6)
		for _, h := range tr.timeline(s.start, s.end) {
			logf("    +%8.1f us %8.1f us  %-8s %s", float64(h.start-s.start)/1e3, float64(h.end-h.start)/1e3, h.node, h.name)
		}
	}
}

// medianSample returns the index of the successful sample whose latency
// is the median, -1 when there is none.
func medianSample(ss []sample) int {
	var idx []int
	for i, s := range ss {
		if !s.failed {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	sort.Slice(idx, func(a, b int) bool {
		return ss[idx[a]].end-ss[idx[a]].start < ss[idx[b]].end-ss[idx[b]].start
	})
	return idx[len(idx)/2]
}

// printMetrics writes every metric by name with its unit.
func printMetrics(w io.Writer, res *runResult) {
	for _, group := range []map[string]metric{res.Metrics, res.Info} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, group[n].Value, group[n].Unit)
		}
		fmt.Fprintln(w, "  "+strings.Repeat("-", 52))
	}
}
