package obs_test

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"shadowdb/internal/obs"
)

// A bundle written before trace files used the wire codec holds a gob
// trace.gob; loading it is refused with an error naming that file, and
// its bytes are not a trace file either.
func TestLoadBundleRefusesGobTrace(t *testing.T) {
	o := obs.New(8)
	o.EnableTracing(true)
	o.Record(obs.Event{Loc: "n1", Layer: "test", Kind: "probe"})
	rec, err := obs.NewRecorder(o, t.TempDir(), "n1")
	if err != nil {
		t.Fatal(err)
	}
	path, err := rec.Dump("old")
	if err != nil {
		t.Fatal(err)
	}
	// The earlier build's trace: a gob stream of the events.
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode([]struct{ Seq, At int64 }{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(path, "trace.bin")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "trace.gob"), old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.LoadBundle(path); err == nil || !strings.Contains(err.Error(), filepath.Join(path, "trace.gob")) {
		t.Errorf("LoadBundle of a gob trace = %v, want an error naming %s", err, filepath.Join(path, "trace.gob"))
	}
	if _, err := obs.DecodeTrace(bytes.NewReader(old.Bytes())); err == nil {
		t.Error("DecodeTrace read a gob stream")
	}
}

func TestDumpAndLoadBundle(t *testing.T) {
	o := obs.New(64)
	o.SetNode("n1")
	o.EnableTracing(true)
	o.Counter("z.ops").Add(9)
	o.Tick()
	o.Logger("store").Infof("replayed %d entries", 4)
	o.Record(obs.Event{Loc: "n1", Layer: "test", Kind: "probe", Note: "hello"})

	rates := obs.NewRates(o, time.Second, 4)
	o.Counter("z.ops").Add(2)
	rates.Tick()

	dir := filepath.Join(t.TempDir(), "flight")
	rec, err := obs.NewRecorder(o, dir, "n1")
	if err != nil {
		t.Fatal(err)
	}
	rec.SetRates(rates)
	rec.SetConfig(map[string]string{"role": "test"})
	rec.SetCheckerStatus(func() any { return map[string]int{"violations": 0} })

	path, err := rec.Dump("unit-test")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filepath.Base(path), "unit-test") {
		t.Fatalf("bundle name %q missing reason", path)
	}

	b, err := obs.LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.Version != obs.BundleVersion || b.Meta.Node != "n1" || b.Meta.Reason != "unit-test" {
		t.Fatalf("meta = %+v", b.Meta)
	}
	if b.Meta.Config["role"] != "test" || b.Meta.PID != os.Getpid() {
		t.Fatalf("meta config/pid = %+v", b.Meta)
	}
	if len(b.Logs) != 1 || b.Logs[0].Msg != "replayed 4 entries" || b.Logs[0].LC != 1 {
		t.Fatalf("logs = %+v", b.Logs)
	}
	if len(b.Trace) != 1 || b.Trace[0].Kind != "probe" {
		t.Fatalf("trace = %+v", b.Trace)
	}
	if b.Metrics.Counters["z.ops"] != 11 {
		t.Fatalf("metrics snapshot = %+v", b.Metrics.Counters)
	}
	if len(b.Rates) != 1 || b.Rates[0].Counters["z.ops"] != 2 {
		t.Fatalf("rate windows = %+v", b.Rates)
	}
	if !strings.Contains(string(b.Checker), "violations") {
		t.Fatalf("checker = %s", b.Checker)
	}
	for _, f := range []string{"goroutines.txt", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(path, f)); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty: %v", f, err)
		}
	}

	dirs, err := obs.ListBundles(dir)
	if err != nil || len(dirs) != 1 || dirs[0] != path {
		t.Fatalf("ListBundles = %v, %v", dirs, err)
	}
}

func TestBundleAtomicitySweep(t *testing.T) {
	// A crashed dump leaves only a ".tmp" directory. ListBundles must
	// skip it and a fresh Recorder (the restarted process) sweeps it.
	dir := filepath.Join(t.TempDir(), "flight")
	stale := filepath.Join(dir, "bundle-20240101T000000.000-001-killed.tmp")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "meta.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	dirs, err := obs.ListBundles(dir)
	if err != nil || len(dirs) != 0 {
		t.Fatalf("ListBundles saw the tmp dir: %v, %v", dirs, err)
	}

	if _, err := obs.NewRecorder(obs.New(16), dir, "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("tmp bundle not swept: %v", err)
	}
}

func TestDumpWhileLogging(t *testing.T) {
	// Dumps racing live loggers and tracers must produce only complete,
	// loadable bundles.
	o := obs.New(256)
	o.SetNode("n1")
	o.SetLogCap(256)
	o.EnableTracing(true)
	dir := filepath.Join(t.TempDir(), "flight")
	rec, err := obs.NewRecorder(o, dir, "n1")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lg := o.Logger("load")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lg.Infof("g%d i%d", g, i)
				o.Record(obs.Event{Loc: "n1", Layer: "test", Kind: "tick"})
			}
		}(g)
	}

	var paths []string
	for i := 0; i < 5; i++ {
		p, err := rec.Dump("race")
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	close(stop)
	wg.Wait()

	for _, p := range paths {
		if _, err := obs.LoadBundle(p); err != nil {
			t.Fatalf("bundle %s unreadable: %v", p, err)
		}
	}
	dirs, _ := obs.ListBundles(dir)
	if len(dirs) != len(paths) {
		t.Fatalf("ListBundles = %d, want %d", len(dirs), len(paths))
	}
}

func TestTryDumpRateLimit(t *testing.T) {
	o := obs.New(16)
	rec, err := obs.NewRecorder(o, filepath.Join(t.TempDir(), "f"), "n1")
	if err != nil {
		t.Fatal(err)
	}
	// Back to back, well inside obs.MinDumpGap.
	p1, err := rec.TryDump("first")
	if err != nil || p1 == "" {
		t.Fatalf("first TryDump = %q, %v", p1, err)
	}
	p2, err := rec.TryDump("second")
	if err != nil || p2 != "" {
		t.Fatalf("second TryDump not suppressed: %q, %v", p2, err)
	}
}

func TestMergeTimelineCausalOrder(t *testing.T) {
	// Two nodes, Lamport-stamped: n1 sends (lc 1), n2 receives (lc 2)
	// and logs (lc 2), n1 logs later at lc 3. Wall clocks are skewed so
	// At-order would be wrong; the merge must follow LC.
	b1 := &obs.Bundle{
		Meta: obs.BundleMeta{Node: "n1"},
		Logs: []obs.LogRecord{{Seq: 0, At: 900, LC: 3, Node: "n1", Component: "c", Level: obs.LevelInfo, Msg: "late"}},
		Trace: []obs.Event{
			{Seq: 0, At: 1000, LC: 1, Loc: "n1", Layer: "net", Kind: "send"},
		},
	}
	b2 := &obs.Bundle{
		Meta: obs.BundleMeta{Node: "n2"},
		Logs: []obs.LogRecord{{Seq: 0, At: 50, LC: 2, Component: "c", Level: obs.LevelWarn, Msg: "got it"}},
		Trace: []obs.Event{
			{Seq: 0, At: 60, LC: 2, Loc: "n2", Layer: "net", Kind: "recv"},
		},
	}
	tl := obs.MergeTimeline(b1, b2)
	if len(tl) != 4 {
		t.Fatalf("timeline has %d entries: %+v", len(tl), tl)
	}
	var kinds []string
	for _, e := range tl {
		kinds = append(kinds, string(e.Node)+":"+e.Source)
		if e.Node == "" {
			t.Fatalf("entry missing node: %+v", e)
		}
	}
	// lc1 send, then lc2 (n2 recv at At=60 after log at At=50), then lc3.
	want := []string{"n1:trace", "n2:log", "n2:trace", "n1:log"}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("order = %v, want %v", kinds, want)
		}
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].LC < tl[i-1].LC {
			t.Fatalf("LC order violated at %d: %+v", i, tl)
		}
	}

	traces := obs.Traces(b1, b2)
	if len(traces["n1"]) != 1 || len(traces["n2"]) != 1 {
		t.Fatalf("Traces grouping = %+v", traces)
	}
}

func TestMergeTimelineDedupSharedRing(t *testing.T) {
	// Two bundles from the same process captured the same unattributed
	// record (empty Node): it must appear once, stamped with a node.
	shared := obs.LogRecord{Seq: 7, At: 100, LC: 1, Component: "c", Msg: "shared"}
	b1 := &obs.Bundle{Meta: obs.BundleMeta{Node: "n1"}, Logs: []obs.LogRecord{shared}}
	b2 := &obs.Bundle{Meta: obs.BundleMeta{Node: "n2"}, Logs: []obs.LogRecord{shared}}
	tl := obs.MergeTimeline(b1, b2)
	if len(tl) != 1 {
		t.Fatalf("shared record not deduped: %+v", tl)
	}
	if tl[0].Node != "n1" {
		t.Fatalf("dedup kept node %q", tl[0].Node)
	}
}
