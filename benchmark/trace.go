package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/core"
	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// Tracing lives entirely in the benchmark: decorators around the layers'
// public interfaces (network.Transport, store.Stable, gpm.Process,
// core.Procedure) record one span per call. Spans stay in memory and are
// written out when the workload ends.

// span is one timed call at a layer boundary. Parent indexes the same
// node's span list: for store and procedure calls it is the step they ran
// inside (same goroutine, so they nest in time); for sends it is the most
// recent finished step on that node, which Host.emit makes the causing
// step except for timer-fired sends. Sends never overlap their parent, so
// self time is unaffected either way.
type span struct {
	Name   int32 // index into tracer.names
	Parent int32 // -1 = none
	Start  int64 // ns since tracer.epoch
	End    int64 // 0 while open
	N      int64 // envelopes sent, bytes appended, messages in a delivered batch
}

type tracer struct {
	epoch time.Time
	// on gates recording, so one run can interleave traced and untraced
	// slices and report the overhead between them.
	on atomic.Bool

	mu    sync.Mutex
	names []string
	ids   map[string]int32
	nodes []*nodeTrace
}

type nodeTrace struct {
	t    *tracer
	name string

	mu    sync.Mutex
	spans []span
	open  int32 // the step running on the host goroutine, -1 between steps
	last  int32 // the most recent finished step

	// hdrName caches header -> span name id; only the host goroutine
	// steps, so it needs no lock.
	hdrName map[string]int32
	// Span name ids of the transport and store decorators.
	idSend, idSendBatch, idAppend, idSync, idSnapshot int32
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, ids: map[string]int32{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) node(name string) *nodeTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt := &nodeTrace{t: t, name: name, open: -1, last: -1, hdrName: map[string]int32{}}
	nt.idSend, nt.idSendBatch = t.nameIDLocked("network.send"), t.nameIDLocked("network.sendbatch")
	nt.idAppend, nt.idSync, nt.idSnapshot = t.nameIDLocked("store.append"), t.nameIDLocked("store.sync"), t.nameIDLocked("store.snapshot")
	t.nodes = append(t.nodes, nt)
	return nt
}

func (t *tracer) nameID(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nameIDLocked(name)
}

func (t *tracer) nameIDLocked(name string) int32 {
	id, ok := t.ids[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

type spanRole uint8

const (
	roleStep  spanRole = iota // a host step: becomes the node's open span
	roleChild                 // runs inside the open step
	roleSend                  // runs after a step, caused by it
)

// begin opens a span and returns its index, or -1 when tracing is off
// (or nt is nil: an untraced run has no nodeTrace at all).
func (nt *nodeTrace) begin(name int32, role spanRole, n int64) int32 {
	if nt == nil || !nt.t.on.Load() {
		return -1
	}
	now := nt.t.now()
	nt.mu.Lock()
	idx := int32(len(nt.spans))
	parent := nt.open
	switch role {
	case roleStep:
		parent = -1
		nt.open = idx
	case roleSend:
		parent = nt.last
	}
	nt.spans = append(nt.spans, span{Name: name, Parent: parent, Start: now, N: n})
	nt.mu.Unlock()
	return idx
}

func (nt *nodeTrace) end(idx int32) {
	if idx < 0 {
		return
	}
	now := nt.t.now()
	nt.mu.Lock()
	nt.spans[idx].End = now
	if nt.open == idx {
		nt.open, nt.last = -1, idx
	}
	nt.mu.Unlock()
}

// ---------------------------------------------------------- decorators --

type tracedTransport struct {
	inner *network.TCP
	nt    *nodeTrace
}

var (
	_ network.Transport   = tracedTransport{}
	_ network.BatchSender = tracedTransport{}
)

func (t tracedTransport) Send(env msg.Envelope) error {
	sp := t.nt.begin(t.nt.idSend, roleSend, 1)
	err := t.inner.Send(env)
	t.nt.end(sp)
	return err
}

func (t tracedTransport) SendBatch(envs []msg.Envelope) error {
	sp := t.nt.begin(t.nt.idSendBatch, roleSend, int64(len(envs)))
	err := t.inner.SendBatch(envs)
	t.nt.end(sp)
	return err
}

func (t tracedTransport) Receive() <-chan msg.Envelope { return t.inner.Receive() }
func (t tracedTransport) Close() error                 { return t.inner.Close() }

type tracedStable struct {
	inner store.Stable
	nt    *nodeTrace
}

func (s tracedStable) Append(rec []byte) error {
	sp := s.nt.begin(s.nt.idAppend, roleChild, int64(len(rec)))
	err := s.inner.Append(rec)
	s.nt.end(sp)
	return err
}

func (s tracedStable) Sync() error {
	sp := s.nt.begin(s.nt.idSync, roleChild, 0)
	err := s.inner.Sync()
	s.nt.end(sp)
	return err
}

func (s tracedStable) SaveSnapshot(snap []byte) error {
	sp := s.nt.begin(s.nt.idSnapshot, roleChild, int64(len(snap)))
	err := s.inner.SaveSnapshot(snap)
	s.nt.end(sp)
	return err
}

func (s tracedStable) Replay(fn func([]byte) error) error { return s.inner.Replay(fn) }
func (s tracedStable) Snapshot() ([]byte, bool, error)    { return s.inner.Snapshot() }
func (s tracedStable) Close() error                       { return s.inner.Close() }

// tracedProc times every Step, labelled by the node's role and the
// incoming header. On a broadcast node bc.* and px.decide are the
// sequencer (px.decide journals the slot and fans out the delivery) and
// the remaining px.* are Synod; on a replica every step is core's.
type tracedProc struct {
	inner gpm.Process
	nt    *nodeTrace
	bcast bool
}

func (p *tracedProc) Halted() bool { return p.inner.Halted() }

func (p *tracedProc) Step(in msg.Msg) (gpm.Process, []msg.Directive) {
	id, ok := p.nt.hdrName[in.Hdr]
	if !ok {
		id = p.nt.t.nameID(stepLayer(p.bcast, in.Hdr) + ".step:" + in.Hdr)
		p.nt.hdrName[in.Hdr] = id
	}
	var n int64
	if d, ok := in.Body.(broadcast.Deliver); ok {
		n = int64(len(d.Msgs))
	}
	sp := p.nt.begin(id, roleStep, n)
	next, outs := p.inner.Step(in)
	p.nt.end(sp)
	p.inner = next
	return p, outs
}

func stepLayer(bcast bool, hdr string) string {
	switch {
	case !bcast:
		return "core"
	case strings.HasPrefix(hdr, "px.") && hdr != synod.HdrDecide:
		return "synod"
	default:
		return "broadcast"
	}
}

func tracedRegistry(reg core.Registry, nt *nodeTrace) core.Registry {
	out := make(core.Registry, len(reg))
	for typ, proc := range reg {
		id := nt.t.nameID("sqldb.proc:" + typ)
		out[typ] = func(db *sqldb.DB, args []any) (core.ProcResult, error) {
			sp := nt.begin(id, roleChild, 0)
			res, err := proc(db, args)
			nt.end(sp)
			return res, err
		}
	}
	return out
}

func tracedFast(reg core.FastRegistry, nt *nodeTrace) core.FastRegistry {
	out := make(core.FastRegistry, len(reg))
	for typ, proc := range reg {
		id := nt.t.nameID("sqldb.proc:" + typ)
		out[typ] = func(db *sqldb.DB, args []any) (bool, error) {
			sp := nt.begin(id, roleChild, 0)
			aborted, err := proc(db, args)
			nt.end(sp)
			return aborted, err
		}
	}
	return out
}

func tracedReads(reg core.ReadRegistry, nt *nodeTrace) core.ReadRegistry {
	out := make(core.ReadRegistry, len(reg))
	for typ, proc := range reg {
		id := nt.t.nameID("sqldb.read:" + typ)
		out[typ] = func(db *sqldb.DB, args []any, res *core.ReadResult) error {
			sp := nt.begin(id, roleChild, 0)
			err := proc(db, args, res)
			nt.end(sp)
			return err
		}
	}
	return out
}

// ------------------------------------------------------------ analysis --

// spanStat is one span name's totals over a window.
type spanStat struct {
	Count int64
	Self  int64 // ns, span minus the part its children cover
	Total int64 // ns
	N     int64
}

// selfTimes totals the finished spans of one node that start inside any
// of the windows. A span's self time is its duration minus the part of
// its interval its child spans cover.
func selfTimes(spans []span, names []string, windows [][2]int64, into map[string]*spanStat) {
	inWindow := func(s span) bool {
		if s.End == 0 {
			return false
		}
		for _, w := range windows {
			if s.Start >= w[0] && s.Start < w[1] {
				return true
			}
		}
		return false
	}
	covered := make(map[int32]int64)
	for _, s := range spans {
		if s.Parent < 0 || !inWindow(s) {
			continue
		}
		p := spans[s.Parent]
		if lo, hi := max(s.Start, p.Start), min(s.End, p.End); hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	for i, s := range spans {
		if !inWindow(s) {
			continue
		}
		st := into[names[s.Name]]
		if st == nil {
			st = &spanStat{}
			into[names[s.Name]] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - covered[int32(i)]
		st.N += s.N
	}
}

func (t *tracer) stats(windows [][2]int64) map[string]*spanStat {
	out := map[string]*spanStat{}
	for _, nt := range t.nodes {
		nt.mu.Lock()
		selfTimes(nt.spans, t.names, windows, out)
		nt.mu.Unlock()
	}
	return out
}

// layerOf is the module a span name belongs to: the part before the
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// sumWhere totals the stats whose name has the prefix.
func sumWhere(stats map[string]*spanStat, prefix string) spanStat {
	var out spanStat
	for name, st := range stats {
		if strings.HasPrefix(name, prefix) {
			out.Count += st.Count
			out.Self += st.Self
			out.Total += st.Total
			out.N += st.N
		}
	}
	return out
}

// interval is a half-open time range in tracer nanoseconds.
type interval struct{ lo, hi int64 }

// unionOf merges intervals into a sorted, disjoint cover.
func unionOf(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var out []interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// coveredShare is the fraction of [lo,hi) the disjoint sorted cover
// overlaps.
func coveredShare(cover []interval, lo, hi int64) float64 {
	if hi <= lo {
		return 0
	}
	i := sort.Search(len(cover), func(i int) bool { return cover[i].hi > lo })
	var c int64
	for ; i < len(cover) && cover[i].lo < hi; i++ {
		c += min(cover[i].hi, hi) - max(cover[i].lo, lo)
	}
	return float64(c) / float64(hi-lo)
}

// overlapping calls fn for every finished span on every node that
// overlaps [lo,hi).
func (t *tracer) overlapping(lo, hi int64, fn func(nt *nodeTrace, s span)) {
	for _, nt := range t.nodes {
		nt.mu.Lock()
		for _, s := range nt.spans {
			if s.End != 0 && s.End > lo && s.Start < hi {
				fn(nt, s)
			}
		}
		nt.mu.Unlock()
	}
}

// cover returns the union of the spans that overlap the window.
func (t *tracer) cover(lo, hi int64) []interval {
	var ivs []interval
	t.overlapping(lo, hi, func(_ *nodeTrace, s span) { ivs = append(ivs, interval{s.Start, s.End}) })
	return unionOf(ivs)
}

// hop is one line of a request's timeline.
type hop struct {
	node, name string
	start, end int64
}

// timeline lists, in start order, the spans that overlap [lo,hi).
func (t *tracer) timeline(lo, hi int64) []hop {
	var hops []hop
	t.overlapping(lo, hi, func(nt *nodeTrace, s span) {
		hops = append(hops, hop{nt.name, t.names[s.Name], s.Start, s.End})
	})
	sort.Slice(hops, func(i, j int) bool { return hops[i].start < hops[j].start })
	return hops
}

// maxFileSpans bounds the span file; the per-layer numbers always use
// every span.
const maxFileSpans = 200_000

// write dumps the spans as JSON: string tables plus one
// [node, name, start_us, dur_us, parent, n] row per span, node by node.
func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	total := 0
	for _, nt := range t.nodes {
		total += len(nt.spans)
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"total_spans\":%d,\"truncated\":%t,\n", workload, seed, total, total > maxFileSpans)
	fmt.Fprintf(w, "\"columns\":[\"node\",\"name\",\"start_us\",\"dur_us\",\"parent\",\"n\"],\n\"names\":[")
	for i, n := range t.names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\n\"nodes\":[")
	for i, nt := range t.nodes {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", nt.name)
	}
	w.WriteString("],\n\"spans\":[\n")
	written := 0
	budget := maxFileSpans / max(len(t.nodes), 1)
	for ni, nt := range t.nodes {
		for i, s := range nt.spans {
			if i >= budget {
				break
			}
			if written > 0 {
				w.WriteString(",\n")
			}
			fmt.Fprintf(w, "[%d,%d,%.1f,%.1f,%d,%d]", ni, s.Name, float64(s.Start)/1e3, float64(max(s.End-s.Start, 0))/1e3, s.Parent, s.N)
			written++
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
