package dist_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/gpm"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/sqldb"
)

// smrNodes builds the bank SMR deployment cmd/shadowdb runs — broadcast
// nodes b1..b3, replicas r1..r3 seeded with rows accounts — through
// deploy.Node.Process. Volatile SMR nodes boot with no directives.
func smrNodes(t *testing.T, rows int) map[msg.Loc]gpm.Process {
	t.Helper()
	cl := &deploy.Cluster{
		Topology: member.Topology{Nodes: map[string]string{}},
		App: deploy.App{Procedures: core.BankRegistry(), Setup: func(db *sqldb.DB) error {
			return core.BankSetup(db, rows)
		}},
	}
	ids := []string{"b1", "b2", "b3", "r1", "r2", "r3"}
	for _, id := range ids {
		cl.Topology.Nodes[id] = id
	}
	procs := make(map[msg.Loc]gpm.Process, len(ids))
	for _, id := range ids {
		n := deploy.Default()
		n.ID, n.Role = id, "smr"
		if deploy.RoleOf(msg.Loc(id)) == deploy.RoleBcast {
			n.Role = "broadcast"
		}
		view, err := n.View(cl)
		if err != nil {
			t.Fatal(err)
		}
		if procs[msg.Loc(id)], _, err = n.Process(cl, nil, view); err != nil {
			t.Fatal(err)
		}
	}
	return procs
}

// seededSMREvents runs the SMR deployment plus 2 clients in the reference
// runner and returns the trace as obs events, to feed the checker and the
// collector.
func seededSMREvents(t *testing.T) []obs.Event {
	t.Helper()
	bnodes := []msg.Loc{"b1", "b2", "b3"}
	procs := smrNodes(t, 20)
	clients := map[msg.Loc]*core.Client{
		"c0": {Slf: "c0", Mode: core.ModeSMR, BcastNodes: bnodes, Retry: 200 * time.Millisecond},
		"c1": {Slf: "c1", Mode: core.ModeSMR, BcastNodes: bnodes, Retry: 200 * time.Millisecond},
	}
	done := 0
	for l, c := range clients {
		procs[l] = core.ClientProc(c, func(core.TxResult) { done++ })
	}
	locs := make([]msg.Loc, 0, len(procs))
	for l := range procs {
		locs = append(locs, l)
	}
	runner := gpm.NewRunner(gpm.System{Locs: locs, Gen: func(l msg.Loc) gpm.Process { return procs[l] }})
	submit := func(cli msg.Loc, typ string, args ...any) {
		want := done + 1
		runner.Inject(cli, msg.M(core.HdrSubmit, core.SubmitBody{Type: typ, Args: args}))
		ok, err := runner.RunUntil(2_000_000, func() bool { return done >= want })
		if err != nil || !ok {
			t.Fatalf("seeded %s did not complete: ok=%v err=%v", typ, ok, err)
		}
	}
	submit("c0", "deposit", 1, 10)
	submit("c1", "deposit", 2, 20)
	submit("c0", "balance", 1)
	if _, err := runner.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	return obs.FromGPM(runner.Trace())
}

func TestCheckerCleanOnSeededRun(t *testing.T) {
	events := seededSMREvents(t)
	ck := dist.NewChecker(dist.Facts{})
	ck.FeedAll(events)
	if vs := ck.Violations(); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("Err on clean run: %v", err)
	}
	st := ck.Status()
	if st.Events != int64(len(events)) {
		t.Errorf("status events = %d, want %d", st.Events, len(events))
	}
	if st.Slots < 2 {
		t.Errorf("checker fingerprinted %d slots, want >= 2", st.Slots)
	}
	if st.Decided < 2 {
		t.Errorf("checker saw %d decided instances, want >= 2", st.Decided)
	}
}

func TestSpansSeededRun(t *testing.T) {
	events := seededSMREvents(t)
	spans := dist.Spans(events)
	if len(spans) < 3 {
		t.Fatalf("got %d spans, want >= 3 (one per submission)", len(spans))
	}
	complete := 0
	for _, s := range spans {
		b := s.Breakdown()
		if !b.Complete {
			continue
		}
		complete++
		if s.Slot < 0 {
			t.Errorf("complete span %s has no slot", s.ID)
		}
		if b.Total < b.Consensus {
			t.Errorf("span %s: total %v < consensus %v", s.ID, b.Total, b.Consensus)
		}
	}
	if complete < 3 {
		t.Fatalf("only %d complete spans: %+v", complete, spans)
	}

	// The segment summary and histogram recording agree on the count.
	segs := dist.SegmentSummary(spans)
	if segs["total"].Count != complete {
		t.Errorf("segment count %d, want %d", segs["total"].Count, complete)
	}
	o := obs.New(16)
	if got := dist.RecordSpans(o, spans); got != complete {
		t.Errorf("RecordSpans = %d, want %d", got, complete)
	}
	snap := o.Snapshot()
	h, ok := snap.Histograms["dist.span.total_ns"]
	if !ok || h.Count != int64(complete) {
		t.Errorf("dist.span.total_ns histogram = %+v, want count %d", h, complete)
	}
	for _, name := range []string{"dist.span.broadcast_ns", "dist.span.consensus_ns", "dist.span.apply_ns"} {
		if _, ok := snap.Histograms[name]; !ok {
			t.Errorf("missing histogram %s", name)
		}
	}
}

func TestCollectorGatherMergeAndCheck(t *testing.T) {
	events := seededSMREvents(t)
	// Split the global trace into per-node rings (what each node's Obs
	// would hold), re-sequencing per node as a ring does.
	perNode := make(map[string][]obs.Event)
	for _, e := range events {
		n := string(e.Loc)
		e.Seq = int64(len(perNode[n]))
		perNode[n] = append(perNode[n], e)
	}
	c := dist.NewCollector()
	for n, t := range perNode {
		c.Add(n, t)
	}
	r := c.Collect()
	if len(r.Gaps) != 0 {
		t.Fatalf("unexpected gaps: %v", r.Gaps)
	}
	if len(r.Merged) != len(events) {
		t.Fatalf("merged %d events, want %d", len(r.Merged), len(events))
	}
	if len(r.Spans) < 3 || r.Segments["total"].Count < 3 {
		t.Fatalf("collector spans missing: %d spans, segments %+v", len(r.Spans), r.Segments)
	}
	st, err := r.Check(dist.Facts{})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(st.Violations) != 0 {
		t.Fatalf("clean collection flagged: %v", st.Violations)
	}
}

func TestCollectorFlagsRingGap(t *testing.T) {
	events := seededSMREvents(t)
	perNode := make(map[string][]obs.Event)
	for _, e := range events {
		n := string(e.Loc)
		e.Seq = int64(len(perNode[n]))
		perNode[n] = append(perNode[n], e)
	}
	c := dist.NewCollector()
	overflowed := ""
	for n, tr := range perNode {
		if overflowed == "" && len(tr) > 2 {
			// Simulate ring overflow: the oldest two events were evicted.
			overflowed = n
			tr = tr[2:]
		}
		c.Add(n, tr)
	}
	r := c.Collect()
	if r.Gaps[overflowed] != 2 {
		t.Fatalf("gap at %s = %d, want 2 (gaps %v)", overflowed, r.Gaps[overflowed], r.Gaps)
	}
	// An incomplete collection must refuse to certify the trace.
	if _, err := r.Check(dist.Facts{}); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("Check on gapped trace: %v", err)
	}
}

// Bundles dumped from a ring that wrapped hold a suffix of each node's
// history; the replay must report the trace incomplete rather than judge
// the suffix as a whole run (where a node's first surviving Deliver
// reads as a slot sent before slot 0).
func TestBundlesFromWrappedRingReplayIncomplete(t *testing.T) {
	events := seededSMREvents(t)
	o := obs.New(len(events) / 2)
	o.EnableTracing(true)
	for _, e := range events {
		e.Seq = 0 // let Record assign
		o.Record(e)
	}
	dir := t.TempDir()
	var bundles []*obs.Bundle
	for _, n := range []msg.Loc{"b1", "b2", "b3", "r1", "r2", "r3"} {
		rec, err := obs.NewRecorder(o, filepath.Join(dir, string(n)), n)
		if err != nil {
			t.Fatal(err)
		}
		path, err := rec.Dump("test")
		if err != nil {
			t.Fatal(err)
		}
		b, err := obs.LoadBundle(path)
		if err != nil {
			t.Fatal(err)
		}
		if b.Meta.TraceEvicted != int64(len(events)-len(events)/2) {
			t.Fatalf("%s: TraceEvicted = %d, want %d", n, b.Meta.TraceEvicted, len(events)-len(events)/2)
		}
		bundles = append(bundles, b)
	}
	c := dist.NewCollector()
	c.AddBundles(bundles...)
	r := c.Collect()
	if len(r.Gaps) == 0 {
		t.Fatal("a wrapped ring's bundles collected as complete")
	}
	if _, err := r.Check(dist.Facts{}); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("Check over a wrapped ring's bundles: %v", err)
	}
}

func TestDistHandlerRoutes(t *testing.T) {
	o := obs.New(1024)
	o.EnableTracing(true)
	ck := dist.NewChecker(dist.Facts{})
	ck.Watch(o)
	for _, e := range seededSMREvents(t) {
		e.Seq = 0 // let Record assign
		o.Record(e)
	}
	srv := httptest.NewServer(dist.HandlerWith(o, ck, nil))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var st dist.Status
	resp, err := http.Get("http://" + addr + "/checker")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/checker status %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Events == 0 || len(st.Violations) != 0 {
		t.Fatalf("checker status %+v", st)
	}

	var spans struct {
		Spans    []dist.Span                  `json:"spans"`
		Segments map[string]dist.SegmentStats `json:"segments"`
	}
	resp, err = http.Get("http://" + addr + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(spans.Spans) < 3 {
		t.Fatalf("/spans returned %d spans", len(spans.Spans))
	}

	// Base obs routes pass through.
	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %s", resp.Status)
	}

	// A violation turns /checker into a failing probe.
	ck.Feed(obs.Event{
		Loc: "rX", At: 1, Slot: obs.NoField, Ballot: obs.NoField,
		M: &msg.Msg{Hdr: broadcast.HdrDeliver, Body: broadcast.Deliver{Slot: 5, Msgs: nil}},
	})
	resp, err = http.Get("http://" + addr + "/checker")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("/checker with violations: status %s, want 409", resp.Status)
	}
}

// An announced restart excuses exactly one in-order-delivery gap: the
// node re-enters the slot stream at its catch-up frontier, and the next
// unannounced gap is flagged again.
func TestCheckerNoteRestart(t *testing.T) {
	ck := dist.NewChecker(dist.Facts{})
	deliver := func(loc msg.Loc, slot int) {
		ck.Feed(obs.Event{
			Loc: loc, At: int64(slot), Slot: obs.NoField, Ballot: obs.NoField,
			M: &msg.Msg{Hdr: broadcast.HdrDeliver, Body: broadcast.Deliver{Slot: slot, Msgs: nil}},
		})
	}
	deliver("r1", 0)
	deliver("r1", 1)

	// Crash + restart: the node resumes at slot 5 after recovering 2..4
	// locally. Without the announcement this is a gap.
	ck.NoteRestart("r1")
	deliver("r1", 5)
	if err := ck.Err(); err != nil {
		t.Fatalf("re-baselined delivery flagged: %v", err)
	}
	deliver("r1", 6)
	if err := ck.Err(); err != nil {
		t.Fatalf("contiguous delivery after re-baseline flagged: %v", err)
	}

	// The pass was consumed: a second gap without a restart is real.
	deliver("r1", 9)
	if err := ck.Err(); err == nil {
		t.Fatal("unannounced gap after restart not flagged")
	}

	// Other locations are unaffected by r1's restart.
	ck2 := dist.NewChecker(dist.Facts{})
	ck2.NoteRestart("r1")
	deliver2 := func(loc msg.Loc, slot int) {
		ck2.Feed(obs.Event{
			Loc: loc, At: int64(slot), Slot: obs.NoField, Ballot: obs.NoField,
			M: &msg.Msg{Hdr: broadcast.HdrDeliver, Body: broadcast.Deliver{Slot: slot, Msgs: nil}},
		})
	}
	deliver2("r2", 3)
	if err := ck2.Err(); err == nil {
		t.Fatal("r2's gap excused by r1's restart")
	}
}
