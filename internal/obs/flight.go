package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shadowdb/internal/msg"
)

// The postmortem dumper. A Recorder binds an Obs (trace ring + metrics)
// and a log source to a directory in the node's data-dir; Dump snapshots
// everything the flight recorder holds — log ring, trace ring, metrics
// snapshot + rate windows, checker status, goroutine and heap profiles,
// build/config metadata — into one atomically-renamed bundle directory.
// Triggers: checker violation (dist.Checker.OnViolation), panic
// (OnPanic), fault-injection kill windows (fault.ProcessHooks.Flight),
// SIGQUIT (NotifySignals), and POST /flight/dump on the admin endpoint.

// BundleVersion is the bundle format version written into meta.json:
// 2 since the trace is a trace file (trace.bin) rather than gob.
const BundleVersion = 2

// MinDumpGap rate-limits TryDump: a checker finding the same violation
// on every event would otherwise grind the node dumping profiles in a
// loop.
const MinDumpGap = 5 * time.Second

// Bundle file names. A bundle is a directory; it is written under a
// ".tmp" suffix and renamed into place, so any directory without the
// suffix is complete.
const (
	bundleMetaFile    = "meta.json"
	bundleLogsFile    = "logs.json"
	bundleTraceFile   = "trace.bin"
	bundleMetricsFile = "metrics.json"
	bundleCheckerFile = "checker.json"
	bundleGorosFile   = "goroutines.txt"
	bundleHeapFile    = "heap.pprof"
	bundleTmpSuffix   = ".tmp"
	bundlePrefix      = "bundle-"
)

// Recorder is the flight-recorder dump side: immutable bindings set at
// construction, tunables behind a mutex, and a Dump that never blocks
// the hot path (loggers and tracers keep appending; Dump reads
// consistent copies through the rings' own locks).
type Recorder struct {
	o    *Obs
	dir  string
	node msg.Loc

	mu            sync.Mutex
	config        map[string]string
	checkerStatus func() any
	rates         *Rates
	seq           int

	lastDump atomic.Int64 // wall ns of the last accepted TryDump
}

// NewRecorder creates a recorder dumping bundles for node into dir
// (created if missing). Leftover ".tmp" bundles from a previous crashed
// dump are swept away so the directory only ever lists complete bundles
// plus at most one in-flight temp.
func NewRecorder(o *Obs, dir string, node msg.Loc) (*Recorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: create dir: %w", err)
	}
	r := &Recorder{o: o, dir: dir, node: node}
	r.sweepTmp()
	return r, nil
}

// sweepTmp removes incomplete bundle temp directories — the other half
// of the atomic-rename contract.
func (r *Recorder) sweepTmp() {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), bundlePrefix) && strings.HasSuffix(e.Name(), bundleTmpSuffix) {
			os.RemoveAll(filepath.Join(r.dir, e.Name()))
		}
	}
}

// Dir returns the bundle directory.
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// Node returns the node the recorder dumps for.
func (r *Recorder) Node() msg.Loc {
	if r == nil {
		return ""
	}
	return r.node
}

// SetConfig attaches startup configuration (flag values, roles) recorded
// into every bundle's meta.
func (r *Recorder) SetConfig(cfg map[string]string) {
	if r == nil {
		return
	}
	cp := make(map[string]string, len(cfg))
	for k, v := range cfg {
		cp[k] = v
	}
	r.mu.Lock()
	r.config = cp
	r.mu.Unlock()
}

// SetCheckerStatus attaches a status callback (typically wrapping
// dist.Checker.Status) whose JSON-marshaled result lands in
// checker.json. It runs during Dump, so it must not require locks a
// violation hook already holds.
func (r *Recorder) SetCheckerStatus(fn func() any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.checkerStatus = fn
	r.mu.Unlock()
}

// SetRates attaches a windowed-delta tracker whose retained windows are
// dumped beside the cumulative snapshot.
func (r *Recorder) SetRates(rates *Rates) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rates = rates
	r.mu.Unlock()
}

// BundleMeta is a bundle's meta.json: what, who, when, and under which
// build and configuration.
type BundleMeta struct {
	Version int     `json:"version"`
	Node    msg.Loc `json:"node"`
	Reason  string  `json:"reason"`
	// WallAt is wall-clock UnixNano at the dump; At is the Obs clock
	// (virtual under the simulator) and LC the node's Lamport clock, the
	// coordinates used for cross-node merging.
	WallAt    int64             `json:"wall_at"`
	At        int64             `json:"at"`
	LC        int64             `json:"lc"`
	GitSHA    string            `json:"git_sha,omitempty"`
	GoVersion string            `json:"go_version"`
	PID       int               `json:"pid"`
	Config    map[string]string `json:"config,omitempty"`
	// TraceEvicted is how many events the trace ring had evicted by the
	// dump: when positive the trace is a suffix of the node's history.
	TraceEvicted int64 `json:"trace_evicted,omitempty"`
}

// bundleLogs is logs.json: the ring contents plus overflow accounting.
type bundleLogs struct {
	Dropped int64       `json:"dropped"`
	Records []LogRecord `json:"records"`
}

// bundleMetrics is metrics.json: the cumulative snapshot plus the
// retained rate windows.
type bundleMetrics struct {
	Snapshot Snapshot     `json:"snapshot"`
	Windows  []RateWindow `json:"windows,omitempty"`
}

// Dump writes one bundle and returns its directory path. The write is
// atomic at the directory level: everything lands under a ".tmp" name
// that only becomes visible (rename + parent fsync) once every file is
// written, so a crash mid-dump leaves a temp directory NewRecorder
// sweeps, never a half-readable bundle.
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("flight: nil recorder")
	}
	r.mu.Lock()
	rates := r.rates
	statusFn := r.checkerStatus
	config := r.config
	r.seq++
	seq := r.seq
	r.mu.Unlock()

	wall := time.Now()
	name := fmt.Sprintf("%s%s-%03d-%s", bundlePrefix,
		wall.UTC().Format("20060102T150405.000"), seq, sanitizeReason(reason))
	final := filepath.Join(r.dir, name)
	tmp := final + bundleTmpSuffix
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", fmt.Errorf("flight: create bundle tmp: %w", err)
	}
	// A failed dump must not leave the temp dir behind for ListBundles'
	// callers to trip on; the rename below makes cleanup a no-op on
	// success.
	defer os.RemoveAll(tmp)

	events := r.o.Events()
	meta := BundleMeta{
		Version: BundleVersion, Node: r.node, Reason: reason,
		WallAt: wall.UnixNano(), At: r.o.Now(), LC: r.o.LC(),
		GitSHA: buildGitSHA(), GoVersion: runtime.Version(),
		PID: os.Getpid(), Config: config, TraceEvicted: RingGap(events),
	}
	if err := writeJSON(filepath.Join(tmp, bundleMetaFile), meta); err != nil {
		return "", err
	}

	logs := bundleLogs{Dropped: r.o.LogDropped(), Records: r.filterLogs(r.o.LogRecords())}
	if err := writeJSON(filepath.Join(tmp, bundleLogsFile), logs); err != nil {
		return "", err
	}

	f, err := os.Create(filepath.Join(tmp, bundleTraceFile))
	if err != nil {
		return "", fmt.Errorf("flight: create trace: %w", err)
	}
	err = EncodeTrace(f, r.filterTrace(events))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("flight: encode trace: %w", err)
	}

	metrics := bundleMetrics{Snapshot: r.o.Snapshot(), Windows: rates.Windows()}
	if err := writeJSON(filepath.Join(tmp, bundleMetricsFile), metrics); err != nil {
		return "", err
	}

	if statusFn != nil {
		if err := writeJSON(filepath.Join(tmp, bundleCheckerFile), statusFn()); err != nil {
			return "", err
		}
	}

	gf, err := os.Create(filepath.Join(tmp, bundleGorosFile))
	if err == nil {
		err = pprof.Lookup("goroutine").WriteTo(gf, 2)
		if cerr := gf.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return "", fmt.Errorf("flight: goroutine profile: %w", err)
	}

	hf, err := os.Create(filepath.Join(tmp, bundleHeapFile))
	if err == nil {
		err = pprof.Lookup("heap").WriteTo(hf, 0)
		if cerr := hf.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return "", fmt.Errorf("flight: heap profile: %w", err)
	}

	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("flight: publish bundle: %w", err)
	}
	syncDir(r.dir)
	return final, nil
}

// TryDump is Dump behind a rate limit for triggers that can fire in a
// storm (checker violations, repeated kill windows): at most one bundle
// per MinDumpGap, extra triggers dropped. Errors are returned to the caller
// but never panic — the recorder must not take the node down.
func (r *Recorder) TryDump(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	now := time.Now().UnixNano()
	for {
		last := r.lastDump.Load()
		if last != 0 && now-last < int64(MinDumpGap) {
			return "", nil
		}
		if r.lastDump.CompareAndSwap(last, now) {
			break
		}
	}
	return r.Dump(reason)
}

// OnPanic is a defer helper: on panic it dumps a bundle and re-panics,
// so the crash still surfaces but ships its evidence first.
//
//	defer rec.OnPanic()
func (r *Recorder) OnPanic() {
	if r == nil {
		return
	}
	if p := recover(); p != nil {
		r.Dump(fmt.Sprintf("panic-%.40s", fmt.Sprint(p)))
		panic(p)
	}
}

// NotifySignals dumps a bundle on each SIGQUIT (the classic "dump your
// state" signal) instead of the Go runtime's default stack-dump-and-exit.
// Returns a stop function detaching the handler.
func (r *Recorder) NotifySignals() func() {
	if r == nil {
		return func() {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				r.TryDump("sigquit")
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// filterLogs keeps records belonging to this recorder's node: its own
// plus unattributed ones (package-level loggers with no binding). With
// no node set, everything passes.
func (r *Recorder) filterLogs(recs []LogRecord) []LogRecord {
	if r.node == "" {
		return recs
	}
	out := recs[:0:0]
	for _, rec := range recs {
		if rec.Node == r.node || rec.Node == "" {
			out = append(out, rec)
		}
	}
	return out
}

// filterTrace keeps this node's trace events. DES runs share one Obs
// across simulated nodes; per-node bundles should each carry their own
// slice of the history so the merge step reconstructs it causally.
func (r *Recorder) filterTrace(events []Event) []Event {
	if r.node == "" {
		return events
	}
	out := events[:0:0]
	for _, e := range events {
		if e.Loc == r.node {
			out = append(out, e)
		}
	}
	return out
}

func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			b.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c + ('a' - 'A'))
		default:
			b.WriteRune('-')
		}
	}
	s := strings.Trim(b.String(), "-")
	if len(s) > 48 {
		s = s[:48]
	}
	if s == "" {
		return "manual"
	}
	return s
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("flight: marshal %s: %w", filepath.Base(path), err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("flight: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// syncDir fsyncs a directory so the rename publishing a bundle is
// durable — same discipline as the store's atomic snapshot rename.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// buildGitSHA extracts the vcs revision stamped into the binary by the
// go tool (absent under plain `go test`, which is fine — bundles from
// tests just omit it).
func buildGitSHA() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}
