package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/gpm"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// smrHarness wires an SMR deployment (3 broadcast nodes, each notifying
// all 3 replicas) plus clients into a runner.
type smrHarness struct {
	replicas map[msg.Loc]*SMRReplica
	bcast    broadcast.Config
	runner   *gpm.Runner
	clients  map[msg.Loc]*Client
	results  map[msg.Loc][]TxResult
}

func newSMRHarness(t *testing.T, rows, clients int) *smrHarness {
	t.Helper()
	bnodes := []msg.Loc{"b1", "b2", "b3"}
	h := &smrHarness{
		replicas: make(map[msg.Loc]*SMRReplica),
		bcast:    broadcast.Config{Nodes: bnodes, Subscribers: []msg.Loc{"r1", "r2", "r3"}},
		clients:  make(map[msg.Loc]*Client),
		results:  make(map[msg.Loc][]TxResult),
	}
	for _, l := range h.bcast.Subscribers {
		h.replicas[l] = openSMR(t, l, bankDB(t, string(l), rows), false)
	}
	for i := 0; i < clients; i++ {
		loc := msg.Loc(fmt.Sprintf("c%d", i))
		h.clients[loc] = &Client{
			Slf: loc, Mode: ModeSMR, BcastNodes: bnodes, Retry: 200 * time.Millisecond,
		}
	}
	h.runner = gpm.NewRunner(system(h.bcast, h.procs()))
	return h
}

// procs is every process the harness hosts besides the broadcast service.
func (h *smrHarness) procs() map[msg.Loc]gpm.Process {
	ps := make(map[msg.Loc]gpm.Process)
	for l, r := range h.replicas {
		ps[l] = r
	}
	for l, c := range h.clients {
		ps[l] = ClientProc(c, func(res TxResult) { h.results[l] = append(h.results[l], res) })
	}
	return ps
}

// system hosts procs at their locations and the broadcast service bcast
// describes at its nodes, for the reference runner.
func system(bcast broadcast.Config, procs map[msg.Loc]gpm.Process) gpm.System {
	gen := broadcast.Spec(bcast).Generator()
	locs := slices.Clone(bcast.Nodes)
	for l := range procs {
		locs = append(locs, l)
	}
	return gpm.System{Locs: locs, Gen: func(l msg.Loc) gpm.Process {
		if p, ok := procs[l]; ok {
			return p
		}
		return gen(l)
	}}
}

func (h *smrHarness) submit(client msg.Loc, txType string, args ...any) {
	h.runner.Inject(client, msg.M(HdrSubmit, SubmitBody{Type: txType, Args: args}))
}

func (h *smrHarness) totalDone() int {
	n := 0
	for _, rs := range h.results {
		n += len(rs)
	}
	return n
}

func TestSMRNormalCase(t *testing.T) {
	h := newSMRHarness(t, 20, 3)
	h.submit("c0", "deposit", 1, 10)
	h.submit("c1", "deposit", 2, 20)
	h.submit("c2", "balance", 1)
	ok, err := h.runner.RunUntil(2_000_000, func() bool { return h.totalDone() == 3 })
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v done=%d", ok, err, h.totalDone())
	}
	// Every replica executed every transaction in the same order.
	var dbs []*sqldb.DB
	for _, r := range h.replicas {
		if r.Executor().Executed != 3 {
			t.Errorf("replica executed %d, want 3", r.Executor().Executed)
		}
		dbs = append(dbs, r.Executor().DB)
	}
	if err := CheckStateAgreement(dbs...); err != nil {
		t.Error(err)
	}
}

func TestSMRClientTakesFirstAnswer(t *testing.T) {
	h := newSMRHarness(t, 5, 1)
	h.submit("c0", "deposit", 0, 5)
	ok, err := h.runner.RunUntil(2_000_000, func() bool { return h.totalDone() == 1 })
	if err != nil || !ok {
		t.Fatal("transaction did not complete")
	}
	// Three answers were produced, but the client completed exactly once.
	if h.clients["c0"].Done != 1 {
		t.Errorf("client Done = %d", h.clients["c0"].Done)
	}
	if _, err := h.runner.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if h.clients["c0"].Done != 1 {
		t.Errorf("late duplicate answers bumped Done to %d", h.clients["c0"].Done)
	}
}

func TestSMRReplicaCrashTransparent(t *testing.T) {
	h := newSMRHarness(t, 10, 2)
	// Crash one replica: clients still complete with no reconfiguration.
	h.runner.Replace("r1", gpm.Halt())
	h.submit("c0", "deposit", 1, 5)
	h.submit("c1", "deposit", 2, 5)
	ok, err := h.runner.RunUntil(2_000_000, func() bool { return h.totalDone() == 2 })
	if err != nil || !ok {
		t.Fatalf("crash was not transparent: done=%d", h.totalDone())
	}
	r2, r3 := h.replicas["r2"], h.replicas["r3"]
	if err := CheckStateAgreement(r2.Executor().DB, r3.Executor().DB); err != nil {
		t.Error(err)
	}
}

func TestSMRExactlyOnceUnderRetry(t *testing.T) {
	h := newSMRHarness(t, 5, 1)
	// A very short retry forces at least one resend before delivery.
	h.clients["c0"].Retry = time.Nanosecond
	h.submit("c0", "deposit", 3, 100)
	ok, err := h.runner.RunUntil(5_000_000, func() bool { return h.totalDone() == 1 })
	if err != nil || !ok {
		t.Fatal("transaction did not complete under retry")
	}
	if _, err := h.runner.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	for _, r := range h.replicas {
		if got := balanceOf(t, r.Executor().DB, 3); got != 1100 {
			t.Errorf("balance = %d, want one deposit exactly", got)
		}
	}
}

// An ordered member.Command{AddReplica} makes the deterministic proposer
// — the first replica of the pre-join epoch, and only it — push the
// bootstrap snapshot; the joiner parks the deliveries made in the
// meantime, activates on the transfer and converges with the group.
func TestSMRMemberAddBootstrapsJoiner(t *testing.T) {
	h := newSMRHarness(t, 30, 1)
	view := member.NewView(member.Config{Bcast: h.bcast.Nodes, Replicas: []msg.Loc{"r1", "r2", "r3"}}, 1)
	for _, r := range h.replicas {
		r.SetView(view)
	}
	// Attach a joining replica r4, subscribed to the service's deliveries.
	db4, err := sqldb.Open("derby:mem:r4")
	if err != nil {
		t.Fatal(err)
	}
	r4 := openSMR(t, "r4", db4, true)
	r4.SetView(view)
	h.bcast.Subscribers = append(h.bcast.Subscribers, "r4")
	// Rebuild the runner with the extended subscriber list and r4 hosted.
	procs := h.procs()
	procs["r4"] = r4
	h.runner = gpm.NewRunner(system(h.bcast, procs))

	// Some committed history before the join.
	h.submit("c0", "deposit", 1, 10)
	ok, err := h.runner.RunUntil(2_000_000, func() bool { return h.totalDone() == 1 })
	if err != nil || !ok {
		t.Fatal("pre-join transaction did not complete")
	}
	// Order the membership command.
	sent := mSMRSnapshotsSent.Value()
	add := broadcast.Bcast{From: "admin", Seq: 1, Payload: member.EncodeCommand(member.Command{
		Op: member.AddReplica, Node: "r4",
	})}
	h.runner.Inject("b1", msg.M(broadcast.HdrBcast, add))
	// More traffic after the reconfiguration.
	h.submit("c0", "deposit", 2, 20)
	ok, err = h.runner.RunUntil(5_000_000, func() bool { return h.totalDone() == 2 })
	if err != nil || !ok {
		t.Fatal("post-join transaction did not complete")
	}
	if _, err := h.runner.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if pushed := mSMRSnapshotsSent.Value() - sent; pushed != 1 {
		t.Errorf("%d replicas pushed a bootstrap snapshot, want the proposer alone", pushed)
	}
	if !r4.Active() {
		t.Fatal("joining replica never activated")
	}
	if !view.Current().HasReplica("r4") || len(r4.peers) != 3 {
		t.Errorf("epoch %v, joiner's peers %v: want r4 a member with the other three as catch-up peers", view.Current(), r4.peers)
	}
	if err := CheckStateAgreement(h.replicas["r1"].Executor().DB, r4.Executor().DB); err != nil {
		t.Error(err)
	}
	if got := balanceOf(t, r4.Executor().DB, 2); got != 1020 {
		t.Errorf("joined replica balance(2) = %d, want 1020", got)
	}
}

func TestSMRPayloadCodecs(t *testing.T) {
	req := TxRequest{Client: "c1", Seq: 9, Type: "deposit", Args: []any{int64(3), int64(5)}}
	b, err := EncodeTx(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := msg.DecodeBody[TxRequest](b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Client != "c1" || out.Seq != 9 || out.Type != "deposit" || len(out.Args) != 2 {
		t.Errorf("round trip = %+v", out)
	}
	if _, err := msg.DecodeBody[TxRequest](EncodeLease(LeaseRenewal{Holder: "r1"})); err == nil {
		t.Error("non-tx payload accepted")
	}
}

// The slot loop looks up every payload's codec tag in the handler
// table; the lookup allocates nothing, whether it finds an ordered
// event, a transaction or an unknown tag.
func TestOrderedDispatchDoesNotAllocate(t *testing.T) {
	r := openSMR(t, "r1", emptyDB(t, "dispatch"), false)
	tx, err := EncodeTx(TxRequest{Client: "c1", Seq: 1, Type: "deposit"})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{EncodeLease(LeaseRenewal{Holder: "r1"}), tx, {0xfe}, nil}
	handler := func(p []byte) OrderedHandler { return r.handlers[msg.PayloadTag(p)] }
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range payloads {
			_ = handler(p)
		}
	}); n != 0 {
		t.Errorf("tag dispatch allocates %v times per four payloads", n)
	}
	if handler(payloads[0]) == nil || handler(payloads[1]) != nil || handler(payloads[2]) != nil || handler(payloads[3]) != nil {
		t.Error("dispatch finds the wrong handlers")
	}
}

func TestSMRDeliverDeduplication(t *testing.T) {
	// Two service nodes notify the same replica; the second notification
	// of a slot must be ignored.
	db, err := sqldb.Open("h2:mem:d")
	if err != nil {
		t.Fatal(err)
	}
	if err := BankSetup(db, 5); err != nil {
		t.Fatal(err)
	}
	r := openSMR(t, "rx", db, false)
	payload, err := EncodeTx(depositReq("c", 1, 0, 50))
	if err != nil {
		t.Fatal(err)
	}
	d := broadcast.Deliver{Slot: 0, Msgs: []broadcast.Bcast{{From: "c", Seq: 1, Payload: payload}}}
	var p gpm.Process = r
	p, outs := p.Step(msg.M(broadcast.HdrDeliver, d))
	if len(outs) != 1 {
		t.Fatalf("first delivery outputs = %v", outs)
	}
	_, outs = p.Step(msg.M(broadcast.HdrDeliver, d))
	if len(outs) != 0 {
		t.Errorf("duplicate delivery produced outputs: %v", outs)
	}
	if got := balanceOf(t, db, 0); got != 1050 {
		t.Errorf("balance = %d", got)
	}
}
