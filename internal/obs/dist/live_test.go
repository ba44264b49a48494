package dist_test

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/runtime"
)

// TestOnlineCheckerLiveCluster is the CI gate: a 3-node in-process SMR
// cluster runs a write workload with the online checker subscribed to
// every node's live event stream. The build fails if the checker flags
// any violation. It also exercises the whole tentpole path: trace IDs
// and Lamport clocks propagate through the transport, the collector
// gathers and causally merges every node's ring, and per-request span
// breakdowns come out of the merge.
func TestOnlineCheckerLiveCluster(t *testing.T) {
	bnodes := []msg.Loc{"b1", "b2", "b3"}
	rlocs := []msg.Loc{"r1", "r2", "r3"}

	hub := network.NewHub()
	// Registered before the hosts' cleanup so it runs after them (LIFO):
	// each host closes its own transport, which deregisters it; closing
	// the hub first would double-close the inboxes.
	t.Cleanup(func() { hub.Close() })

	procs := smrNodes(t, 10)

	checker := dist.NewChecker(dist.Facts{})
	obses := make(map[string]*obs.Obs)
	var hosts []*runtime.Host
	t.Cleanup(func() {
		for _, h := range hosts {
			_ = h.Close()
		}
	})
	spawn := func(l msg.Loc, p gpm.Process) *runtime.Host {
		tr, err := hub.Register(l)
		if err != nil {
			t.Fatal(err)
		}
		h := runtime.NewHost(l, tr, p)
		h.Obs = obs.New(8192)
		h.Obs.EnableTracing(true)
		checker.Watch(h.Obs)
		obses[string(l)] = h.Obs
		h.Start()
		hosts = append(hosts, h)
		return h
	}
	for _, l := range bnodes {
		spawn(l, procs[l])
	}
	rhosts := make(map[msg.Loc]*runtime.Host)
	for _, l := range rlocs {
		rhosts[l] = spawn(l, procs[l])
	}
	results := make(chan core.TxResult, 64)
	cli := &core.Client{Slf: "cli", Mode: core.ModeSMR, BcastNodes: bnodes, Retry: 500 * time.Millisecond}
	cliHost := spawn("cli", core.ClientProc(cli, func(r core.TxResult) { results <- r }))

	const txs = 8
	for i := 0; i < txs; i++ {
		cliHost.Inject(msg.M(core.HdrSubmit, core.SubmitBody{Type: "deposit", Args: []any{int64(1 + i%5), int64(7)}}))
		select {
		case res := <-results:
			if res.Aborted || res.Err != "" {
				t.Fatalf("tx %d failed: %+v", i, res)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("tx %d timed out", i)
		}
	}
	// The client takes the first answer; wait for the slower replicas to
	// apply the tail so every span's stages are on record.
	deadline := time.Now().Add(5 * time.Second)
	for {
		caughtUp := true
		for _, h := range rhosts {
			h.Inspect(func(p gpm.Process) {
				caughtUp = caughtUp && p.(*core.SMRReplica).Executor().Executed >= txs
			})
		}
		if caughtUp || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The online checker ran during the load: it must have consumed the
	// cluster's events and flagged nothing.
	st := checker.Status()
	if st.Events == 0 {
		t.Fatal("online checker saw no events — sinks not wired")
	}
	if st.Slots < txs {
		t.Errorf("checker fingerprinted %d slots, want >= %d", st.Slots, txs)
	}
	if len(st.Violations) != 0 {
		t.Fatalf("online checker flagged a live violation: %v", st.Violations)
	}

	// Collector path: gather every node's ring, merge causally, rebuild
	// request spans.
	c := dist.NewCollector()
	c.Gather(obses)
	r := c.Collect()
	if len(r.Gaps) != 0 {
		t.Fatalf("ring overflow during a small run: %v", r.Gaps)
	}
	if len(r.Merged) == 0 {
		t.Fatal("no events collected")
	}
	// Every recorded event must carry a Lamport stamp (the merge is
	// causal, not wall-clock), and traced events must carry the request's
	// trace ID once one is born.
	traced := 0
	for _, e := range r.Merged {
		if e.LC <= 0 {
			t.Fatalf("unstamped event in live trace: %+v", e)
		}
		if e.Trace != "" {
			traced++
		}
	}
	if traced == 0 {
		t.Fatal("no event carries a trace ID")
	}
	// The causal merge must respect per-request causality: for each span,
	// the first submit event precedes the first reply event in the merge.
	firstIdx := func(pred func(obs.Event) bool) int {
		for i, e := range r.Merged {
			if pred(e) {
				return i
			}
		}
		return -1
	}
	subIdx := firstIdx(func(e obs.Event) bool { return e.M != nil && e.M.Hdr == core.HdrSubmit })
	repIdx := firstIdx(func(e obs.Event) bool { return e.M != nil && e.M.Hdr == core.HdrTxResult })
	if subIdx < 0 || repIdx < 0 || subIdx > repIdx {
		t.Fatalf("causal merge misordered submit (%d) and reply (%d)", subIdx, repIdx)
	}

	complete := 0
	for _, s := range r.Spans {
		if s.Breakdown().Complete {
			complete++
		}
	}
	if complete < txs {
		t.Fatalf("%d complete spans, want >= %d: %+v", complete, txs, r.Spans)
	}
	for _, seg := range []string{"broadcast", "consensus", "apply", "total"} {
		if r.Segments[seg].Count < txs {
			t.Errorf("segment %s count = %d, want >= %d", seg, r.Segments[seg].Count, txs)
		}
	}

	// Offline replay of the collection agrees with the online verdict.
	off, err := r.Check(dist.Facts{})
	if err != nil {
		t.Fatalf("collection check: %v", err)
	}
	if len(off.Violations) != 0 {
		t.Fatalf("offline replay flagged: %v", off.Violations)
	}
}

// TestCollectorLiveTCPEndToEnd is the deployed shape of the offline
// path: a 3-replica SMR deployment over real TCP, each node carrying its
// own Obs served on an admin endpoint. Tracing is switched on over HTTP
// — the control surface an operator uses — transactions run, and the
// collector pulls every node's /trace, merges causally and replays the
// collection through the checker's invariants.
func TestCollectorLiveTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP deployment")
	}
	bnodes := []msg.Loc{"b1", "b2", "b3"}
	rlocs := []msg.Loc{"r1", "r2", "r3"}
	locs := append(append(append([]msg.Loc{}, bnodes...), rlocs...), "cli")

	transports := make(map[msg.Loc]*network.TCP, len(locs))
	for _, l := range locs {
		tr, err := network.NewTCP(l, map[msg.Loc]string{l: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		transports[l] = tr
	}
	for _, a := range locs {
		for _, b := range locs {
			transports[a].SetPeer(b, transports[b].Addr())
		}
	}

	procs := smrNodes(t, 10)

	var hosts []*runtime.Host
	var servers []*http.Server
	admins := make(map[msg.Loc]string)
	t.Cleanup(func() {
		for _, h := range hosts {
			_ = h.Close()
		}
		for _, s := range servers {
			_ = s.Close()
		}
		for _, tr := range transports {
			_ = tr.Close()
		}
	})
	spawn := func(l msg.Loc, p gpm.Process) *runtime.Host {
		h := runtime.NewHost(l, transports[l], p)
		h.Obs = obs.New(8192)
		srv, addr, err := obs.Serve("127.0.0.1:0", h.Obs)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		admins[l] = addr
		h.Start()
		hosts = append(hosts, h)
		return h
	}
	for _, l := range bnodes {
		spawn(l, procs[l])
	}
	rhosts := make(map[msg.Loc]*runtime.Host)
	for _, l := range rlocs {
		rhosts[l] = spawn(l, procs[l])
	}
	results := make(chan core.TxResult, 64)
	cli := &core.Client{Slf: "cli", Mode: core.ModeSMR, BcastNodes: bnodes, Retry: 500 * time.Millisecond}
	cliHost := spawn("cli", core.ClientProc(cli, func(r core.TxResult) { results <- r }))

	for l, addr := range admins {
		resp, err := http.Post("http://"+addr+"/trace/start", "text/plain", nil)
		if err != nil {
			t.Fatalf("trace/start %s: %v", l, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace/start %s: %s", l, resp.Status)
		}
	}

	const txs = 3
	for i := 0; i < txs; i++ {
		cliHost.Inject(msg.M(core.HdrSubmit, core.SubmitBody{Type: "deposit", Args: []any{int64(1), int64(5)}}))
		select {
		case res := <-results:
			if res.Aborted || res.Err != "" {
				t.Fatalf("tx %d failed: %+v", i, res)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("tx %d timed out", i)
		}
	}
	// The client takes the first answer; give the slower replicas a moment
	// to apply the tail before pulling the traces.
	deadline := time.Now().Add(5 * time.Second)
	for {
		caughtUp := true
		for _, h := range rhosts {
			h.Inspect(func(p gpm.Process) {
				caughtUp = caughtUp && p.(*core.SMRReplica).Executor().Executed >= txs
			})
		}
		if caughtUp || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Metrics endpoint: the replica must have stepped.
	var snap obs.Snapshot
	resp, err := http.Get("http://" + admins["r1"] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if snap.Counters["runtime.steps"] == 0 {
		t.Errorf("r1 reports no runtime steps: %v", snap.Counters)
	}

	c := dist.NewCollector()
	for _, l := range locs {
		if err := c.Pull(admins[l]); err != nil {
			t.Fatal(err)
		}
	}
	r := c.Collect()
	if len(r.Merged) == 0 {
		t.Fatal("no trace events recorded")
	}
	st, err := r.Check(dist.Facts{})
	if err != nil {
		t.Fatalf("live trace refused: %v", err)
	}
	if len(st.Violations) != 0 {
		t.Fatalf("live trace failed the offline replay: %v", st.Violations)
	}
	if st.Slots < txs {
		t.Errorf("replay identified %d slots, want >= %d", st.Slots, txs)
	}
}
