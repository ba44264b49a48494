package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"shadowdb/internal/msg"
)

// Reading side of postmortem bundles: load what a Recorder dumped,
// enumerate a bundle directory, and merge bundles from every node of a
// cluster into one causally-ordered cross-node timeline keyed by the
// Lamport clocks both log records and trace events carry.

// Bundle is a loaded postmortem bundle.
type Bundle struct {
	Meta       BundleMeta
	Logs       []LogRecord
	LogDropped int64
	Trace      []Event
	Metrics    Snapshot
	Rates      []RateWindow
	// Checker is checker.json verbatim (shape belongs to dist, which obs
	// cannot import); empty when the bundle had no checker attached.
	Checker json.RawMessage
	// Dir is where the bundle was loaded from.
	Dir string
}

// oldTraceFile is the gob trace of bundles written before trace files
// used the wire codec; LoadBundle refuses a bundle holding one.
const oldTraceFile = "trace.gob"

// LoadBundle reads one bundle directory. Its trace decodes, like a
// /trace download, when the binary links every package whose bodies the
// trace holds: importing a package registers its codecs.
func LoadBundle(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	if err := readJSON(filepath.Join(dir, bundleMetaFile), &b.Meta); err != nil {
		return nil, err
	}
	var logs bundleLogs
	if err := readJSON(filepath.Join(dir, bundleLogsFile), &logs); err != nil {
		return nil, err
	}
	b.Logs, b.LogDropped = logs.Records, logs.Dropped
	f, err := os.Open(filepath.Join(dir, bundleTraceFile))
	if errors.Is(err, fs.ErrNotExist) {
		if _, gerr := os.Stat(filepath.Join(dir, oldTraceFile)); gerr == nil {
			return nil, fmt.Errorf("flight: %s: %s", filepath.Join(dir, oldTraceFile), errTraceFormat)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("flight: open trace: %w", err)
	}
	b.Trace, err = DecodeTrace(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("flight: %s: %w", filepath.Join(dir, bundleTraceFile), err)
	}
	var metrics bundleMetrics
	if err := readJSON(filepath.Join(dir, bundleMetricsFile), &metrics); err != nil {
		return nil, err
	}
	b.Metrics, b.Rates = metrics.Snapshot, metrics.Windows
	if data, err := os.ReadFile(filepath.Join(dir, bundleCheckerFile)); err == nil {
		b.Checker = json.RawMessage(data)
	}
	return b, nil
}

// ListBundles returns the complete bundle directories under root,
// recursively (a cluster data-dir has one flight dir per node),
// oldest-first by name (names embed the dump wall time). In-flight
// ".tmp" directories are skipped.
func ListBundles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, bundlePrefix) {
			if strings.HasSuffix(name, bundleTmpSuffix) {
				return filepath.SkipDir
			}
			out = append(out, path)
			return filepath.SkipDir // bundles don't nest
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("flight: list bundles: %w", err)
	}
	sort.Slice(out, func(i, j int) bool {
		return filepath.Base(out[i]) < filepath.Base(out[j])
	})
	return out, nil
}

// TimelineEntry is one event on the merged cross-node timeline — a log
// record or a trace event reduced to a common shape.
type TimelineEntry struct {
	At   int64   `json:"at"`
	LC   int64   `json:"lc"`
	Node msg.Loc `json:"node"`
	// Source is "log" or "trace".
	Source string `json:"source"`
	// Text is the rendered record: the log message or the trace event's
	// layer/kind line.
	Text string `json:"text"`
	// Level is set on log entries.
	Level Level `json:"level,omitempty"`
	// Trace is the per-request trace ID when the entry carries one.
	Trace string `json:"trace,omitempty"`

	seq int64 // within-node tiebreak
}

// MergeTimeline merges the log records and trace events of bundles from
// different nodes into one timeline ordered by (LC, At, node, seq): the
// Lamport clock gives the causal order across nodes, At and the
// within-ring sequence break ties, and the node id makes the order
// total and deterministic. Entries whose LC is zero (recorded before
// any clock activity) sort by At alone at the front.
//
// Log records with an empty Node (package-level loggers in multi-node
// processes) are stamped with the bundle's node; when several bundles
// from the same process captured the same shared ring, duplicates are
// collapsed by their pre-stamp identity.
func MergeTimeline(bundles ...*Bundle) []TimelineEntry {
	var out []TimelineEntry
	type sharedKey struct {
		seq int64
		at  int64
		msg string
	}
	seenShared := make(map[sharedKey]bool)
	for _, b := range bundles {
		if b == nil {
			continue
		}
		for _, r := range b.Logs {
			node := r.Node
			if node == "" {
				k := sharedKey{seq: r.Seq, at: r.At, msg: r.Msg}
				if seenShared[k] {
					continue
				}
				seenShared[k] = true
				node = b.Meta.Node
			}
			out = append(out, TimelineEntry{
				At: r.At, LC: r.LC, Node: node, Source: "log",
				Text:  "[" + r.Component + "] " + r.Msg,
				Level: r.Level, Trace: r.Trace, seq: r.Seq,
			})
		}
		for _, e := range b.Trace {
			node := e.Loc
			if node == "" {
				node = b.Meta.Node
			}
			text := e.Layer + "." + e.Kind
			if e.Hdr != "" {
				text += " hdr=" + e.Hdr
			}
			if e.Slot != 0 {
				text += fmt.Sprintf(" slot=%d", e.Slot)
			}
			if e.Note != "" {
				text += " " + e.Note
			}
			out = append(out, TimelineEntry{
				At: e.At, LC: e.LC, Node: node, Source: "trace",
				Text: text, Trace: e.Trace, seq: e.Seq,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.LC != b.LC {
			return a.LC < b.LC
		}
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.seq < b.seq
	})
	return out
}

// String renders a timeline entry as one line.
func (t TimelineEntry) String() string {
	src := t.Source
	if t.Source == "log" {
		src = t.Level.String()
	}
	s := fmt.Sprintf("lc=%-6d %-12s %-6s %s", t.LC, t.Node, src, t.Text)
	if t.Trace != "" {
		s += " trace=" + t.Trace
	}
	return s
}

// Traces regroups the bundles' trace events per node, the shape
// dist.Collector consumes. Bundles carve per-node slices out of a
// possibly shared ring (DES runs trace a whole cluster into one Obs),
// which leaves per-node Seq values non-contiguous; each node's events
// are re-sequenced contiguously from the count its source ring had
// evicted (BundleMeta.TraceEvicted, the largest over the node's
// bundles), so the collector's ring-overflow accounting reports a
// wrapped ring's window as the incomplete suffix it is.
func Traces(bundles ...*Bundle) map[string][]Event {
	out := make(map[string][]Event)
	evicted := make(map[string]int64)
	for _, b := range bundles {
		if b == nil || len(b.Trace) == 0 {
			continue
		}
		node := string(b.Meta.Node)
		if node == "" {
			node = b.Dir
		}
		out[node] = append(out[node], b.Trace...)
		evicted[node] = max(evicted[node], b.Meta.TraceEvicted)
	}
	for node, evs := range out {
		resq := append([]Event(nil), evs...)
		sort.SliceStable(resq, func(i, j int) bool { return resq[i].Seq < resq[j].Seq })
		for i := range resq {
			resq[i].Seq = evicted[node] + int64(i)
		}
		out[node] = resq
	}
	return out
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("flight: read %s: %w", filepath.Base(path), err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("flight: parse %s: %w", filepath.Base(path), err)
	}
	return nil
}
