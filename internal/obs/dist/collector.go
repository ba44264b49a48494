package dist

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"shadowdb/internal/obs"
)

// Collector pulls per-node trace rings and merges them into one global
// causal trace. Sources can be live admin endpoints (Pull), in-process
// or simulated nodes' Obs instances (Gather), or pre-downloaded event
// slices (Add) — mixing is fine, e.g. three TCP nodes plus a DES
// cluster's virtual nodes in one collection.
type Collector struct {
	// Client performs the HTTP pulls; nil means a 10-second-timeout
	// default client.
	Client *http.Client

	nodes map[string][]obs.Event
	order []string
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{nodes: make(map[string][]obs.Event)}
}

// Add records one node's downloaded trace under a name. Re-adding a name
// replaces its trace (a later, longer download supersedes).
func (c *Collector) Add(name string, events []obs.Event) {
	if c.nodes == nil {
		c.nodes = make(map[string][]obs.Event)
	}
	if _, ok := c.nodes[name]; !ok {
		c.order = append(c.order, name)
	}
	c.nodes[name] = events
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AddBundles adds the trace windows of loaded postmortem bundles, one
// source per node in node order.
func (c *Collector) AddBundles(bundles ...*obs.Bundle) {
	traces := obs.Traces(bundles...)
	for _, n := range sortedKeys(traces) {
		c.Add(n, traces[n])
	}
}

// Gather adds every node of an in-memory deployment: name -> its Obs.
// Virtual (DES) nodes share one cluster Obs — pass it once under the
// cluster's name.
func (c *Collector) Gather(nodes map[string]*obs.Obs) {
	for _, n := range sortedKeys(nodes) {
		c.Add(n, nodes[n].Events())
	}
}

// Pull downloads one node's trace ring from its admin endpoint
// (GET addr/trace, a trace file) and adds it under the address.
func (c *Collector) Pull(addr string) error {
	cl := c.Client
	if cl == nil {
		cl = &http.Client{Timeout: 10 * time.Second}
	}
	url := addr
	if len(url) < 7 || url[:7] != "http://" && (len(url) < 8 || url[:8] != "https://") {
		url = "http://" + url
	}
	resp, err := cl.Get(url + "/trace")
	if err != nil {
		return fmt.Errorf("dist: pull %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: pull %s: status %s", addr, resp.Status)
	}
	events, err := obs.DecodeTrace(resp.Body)
	if err != nil {
		return fmt.Errorf("dist: pull %s: %w", addr, err)
	}
	c.Add(addr, events)
	return nil
}

// Result is one collection: the per-node traces, their causal merge, the
// reconstructed request spans, and per-node ring-overflow gaps.
type Result struct {
	// Nodes holds each source's raw trace.
	Nodes map[string][]obs.Event `json:"-"`
	// Merged is the global causally ordered trace (obs.MergeCausal).
	Merged []obs.Event `json:"-"`
	// Spans are the per-request path reconstructions over Merged.
	Spans []Span `json:"spans"`
	// Segments summarizes the complete spans' latency segments.
	Segments map[string]SegmentStats `json:"segments"`
	// Gaps maps each source whose ring overflowed to its count of evicted
	// events. A non-empty map means Merged is INCOMPLETE: property
	// checking over it can miss violations (never fabricate them), and
	// span stages may be missing.
	Gaps map[string]int64 `json:"gaps,omitempty"`
}

// Collect merges everything added so far.
func (c *Collector) Collect() Result {
	r := Result{Nodes: make(map[string][]obs.Event, len(c.nodes))}
	traces := make([][]obs.Event, 0, len(c.order))
	for _, name := range c.order {
		t := c.nodes[name]
		r.Nodes[name] = t
		traces = append(traces, t)
		if gap := obs.RingGap(t); gap > 0 {
			if r.Gaps == nil {
				r.Gaps = make(map[string]int64)
			}
			r.Gaps[name] = gap
		}
	}
	r.Merged = obs.MergeCausal(traces...)
	r.Spans = Spans(r.Merged)
	r.Segments = SegmentSummary(r.Spans)
	return r
}

// Check replays the collection through a fresh Checker armed with the
// deployment's facts — offline, the very invariants the live
// subscription runs — and returns its status: the violations, and per
// property how many events it saw or which of the facts (lease window,
// initial member configuration, queue bound) it lacked. Ring gaps are
// reported as an error first: an overflowed ring means the trace is
// incomplete and a clean check proves nothing about the evicted prefix.
func (r Result) Check(f Facts) (Status, error) {
	ck := NewChecker(f)
	if len(r.Gaps) > 0 {
		return ck.Status(), fmt.Errorf("dist: trace incomplete, ring overflowed on %v", sortedKeys(r.Gaps))
	}
	ck.FeedAll(r.Merged)
	return ck.Status(), nil
}
