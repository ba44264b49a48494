package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// testDeployment builds the paper's PBR setup: primary + backup + spare,
// Paxos broadcast on three nodes, fast failure detection for tests.
func testDeployment() PBRDeployment {
	return PBRDeployment{
		Pool:           []msg.Loc{"r1", "r2", "r3"},
		InitialMembers: 2,
		BcastNodes:     []msg.Loc{"b1", "b2", "b3"},
		Timing: Timing{
			HeartbeatEvery: 10 * time.Millisecond,
			SuspectAfter:   50 * time.Millisecond,
			ClientRetry:    100 * time.Millisecond,
		},
	}
}

// pbrHarness wires a full PBR system plus n clients into a runner.
type pbrHarness struct {
	replicas map[msg.Loc]*PBRReplica
	runner   *gpm.Runner
	clients  map[msg.Loc]*Client
	results  map[msg.Loc][]TxResult
}

func newPBRHarness(t *testing.T, rows, clients int) *pbrHarness {
	t.Helper()
	dep := testDeployment()
	h := &pbrHarness{
		replicas: make(map[msg.Loc]*PBRReplica),
		clients:  make(map[msg.Loc]*Client),
		results:  make(map[msg.Loc][]TxResult),
	}
	procs := make(map[msg.Loc]gpm.Process)
	for i, l := range dep.Pool {
		// Initial members start with the populated database; the spare
		// starts empty (it receives a snapshot on promotion).
		seed := 0
		if i < dep.InitialMembers {
			seed = rows
		}
		h.replicas[l] = NewPBRReplica(l, bankDB(t, string(l), seed), BankRegistry(), dep)
		procs[l] = h.replicas[l]
	}
	for i := 0; i < clients; i++ {
		loc := msg.Loc(fmt.Sprintf("c%d", i))
		h.clients[loc] = &Client{
			Slf: loc, Mode: ModePBR,
			Replicas: dep.Pool, Retry: dep.Timing.ClientRetry,
		}
		procs[loc] = ClientProc(h.clients[loc], func(res TxResult) { h.results[loc] = append(h.results[loc], res) })
	}
	// Replicas subscribe to the broadcast service for recovery proposals.
	h.runner = gpm.NewRunner(system(broadcast.Config{Nodes: dep.BcastNodes, Subscribers: dep.Pool}, procs))
	// Boot the failure detectors in pool order.
	for _, l := range dep.Pool {
		for _, d := range h.replicas[l].Start() {
			h.runner.InjectAfter(d.Delay, d.Dest, d.M)
		}
	}
	return h
}

func (h *pbrHarness) submit(client msg.Loc, txType string, args ...any) {
	h.runner.Inject(client, msg.M(HdrSubmit, SubmitBody{Type: txType, Args: args}))
}

func (h *pbrHarness) totalDone() int {
	n := 0
	for _, rs := range h.results {
		n += len(rs)
	}
	return n
}

func (h *pbrHarness) answered() []TxResult {
	var out []TxResult
	for _, rs := range h.results {
		out = append(out, rs...)
	}
	return out
}

func TestPBRNormalCase(t *testing.T) {
	h := newPBRHarness(t, 20, 2)
	h.submit("c0", "deposit", 1, 10)
	h.submit("c1", "deposit", 2, 20)
	ok, err := h.runner.RunUntil(500_000, func() bool { return h.totalDone() == 2 })
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("transactions did not complete")
	}
	// Both primary and backup executed both transactions.
	r1, r2 := h.replicas["r1"], h.replicas["r2"]
	if r1.Executor().Executed != 2 || r2.Executor().Executed != 2 {
		t.Errorf("executed: primary=%d backup=%d", r1.Executor().Executed, r2.Executor().Executed)
	}
	if err := CheckStateAgreement(r1.Executor().DB, r2.Executor().DB); err != nil {
		t.Error(err)
	}
	if err := CheckDurability(h.answered(), r1.Executor(), r2.Executor()); err != nil {
		t.Error(err)
	}
	if got := balanceOf(t, r2.Executor().DB, 1); got != 1010 {
		t.Errorf("backup balance = %d", got)
	}
}

func TestPBRRedirectFromBackup(t *testing.T) {
	h := newPBRHarness(t, 5, 1)
	// Point the client's first guess at the backup.
	h.clients["c0"].primary = 1
	h.submit("c0", "deposit", 0, 5)
	ok, err := h.runner.RunUntil(500_000, func() bool { return h.totalDone() == 1 })
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if h.clients["c0"].Done != 1 {
		t.Error("client did not complete after redirect")
	}
}

func TestPBRAnswerWaitsForBackupAck(t *testing.T) {
	// Crash the backup BEFORE submitting: the primary must not answer
	// until recovery removes the backup from the configuration.
	h := newPBRHarness(t, 5, 1)
	h.runner.Replace("r2", gpm.Halt())
	h.submit("c0", "deposit", 1, 7)
	// Run a little: no answer can arrive while the backup is required.
	preDone := false
	_, err := h.runner.RunUntil(2_000, func() bool { preDone = h.totalDone() > 0; return preDone })
	if err != nil {
		t.Fatal(err)
	}
	// Eventually the detector fires, r3 is promoted to backup via
	// recovery, and the (retried) transaction completes.
	ok, err := h.runner.RunUntil(2_000_000, func() bool { return h.totalDone() >= 1 })
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("transaction never completed after backup crash")
	}
	r1 := h.replicas["r1"]
	if r1.ConfigNow().Seq == 0 {
		t.Error("no reconfiguration happened")
	}
	if !r1.IsPrimary() {
		t.Error("surviving primary lost leadership")
	}
}

func TestPBRPrimaryCrashRecovery(t *testing.T) {
	h := newPBRHarness(t, 50, 2)
	h.submit("c0", "deposit", 1, 10)
	h.submit("c1", "deposit", 2, 20)
	ok, err := h.runner.RunUntil(500_000, func() bool { return h.totalDone() == 2 })
	if err != nil || !ok {
		t.Fatalf("warm-up failed: ok=%v err=%v", ok, err)
	}

	// Crash the primary, then submit more work: clients must retry and
	// complete against the new configuration [r2 (new primary), r3].
	h.runner.Replace("r1", gpm.Halt())
	h.submit("c0", "deposit", 3, 30)
	h.submit("c1", "deposit", 4, 40)
	ok, err = h.runner.RunUntil(5_000_000, func() bool { return h.totalDone() == 4 })
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("transactions stalled after primary crash (done=%d)", h.totalDone())
	}

	r2, r3 := h.replicas["r2"], h.replicas["r3"]
	if !r2.IsPrimary() {
		t.Errorf("new primary = %s, want r2 (highest executed seq)", r2.ConfigNow().Primary())
	}
	if r2.ConfigNow().Seq != 1 || r3.ConfigNow().Seq != 1 {
		t.Errorf("config seqs = %d/%d, want 1", r2.ConfigNow().Seq, r3.ConfigNow().Seq)
	}
	// The spare received the full snapshot and caught up.
	if err := CheckStateAgreement(r2.Executor().DB, r3.Executor().DB); err != nil {
		t.Error(err)
	}
	if err := CheckDurability(h.answered(), r2.Executor(), r3.Executor()); err != nil {
		t.Error(err)
	}
	if got := balanceOf(t, r3.Executor().DB, 3); got != 1030 {
		t.Errorf("spare's balance(3) = %d, want 1030", got)
	}
	if got := balanceOf(t, r3.Executor().DB, 1); got != 1010 {
		t.Errorf("spare's balance(1) = %d, want 1010 (pre-crash history)", got)
	}
}

func TestPBRExactlyOnceUnderRetry(t *testing.T) {
	// Force client retries by making the retry timer shorter than the
	// heartbeat-induced latency is NOT possible deterministically here;
	// instead, inject the same request twice directly at the primary.
	h := newPBRHarness(t, 5, 1)
	req := depositReq("c9", 1, 2, 100)
	h.runner.Inject("r1", msg.M(HdrTx, req))
	h.runner.Inject("r1", msg.M(HdrTx, req))
	if _, err := h.runner.Run(500_000); err != nil {
		t.Fatal(err)
	}
	r1 := h.replicas["r1"]
	if got := balanceOf(t, r1.Executor().DB, 2); got != 1100 {
		t.Errorf("balance = %d, want exactly one deposit (1100)", got)
	}
	if r1.Executor().Executed != 1 {
		t.Errorf("executed = %d, want 1", r1.Executor().Executed)
	}
}

func TestPBRSerializableHistory(t *testing.T) {
	h := newPBRHarness(t, 10, 3)
	for round := 0; round < 5; round++ {
		for c := 0; c < 3; c++ {
			h.submit(msg.Loc(fmt.Sprintf("c%d", c)), "deposit", (round+c)%10, 1)
		}
		// Interleave: let some work complete before submitting more.
		want := (round + 1) * 3
		if ok, err := h.runner.RunUntil(500_000, func() bool { return h.totalDone() >= want }); err != nil || !ok {
			t.Fatalf("round %d stalled: %v", round, err)
		}
	}
	r1 := h.replicas["r1"]
	setup := func(db *sqldb.DB) error { return BankSetup(db, 10) }
	if err := CheckSerializable(BankRegistry(), setup, r1, h.answered()); err != nil {
		t.Error(err)
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{Seq: 2, Members: []msg.Loc{"a", "b", "c"}}
	if c.Primary() != "a" {
		t.Error("Primary")
	}
	if len(c.Backups()) != 2 || c.Backups()[0] != "b" {
		t.Error("Backups")
	}
	if !c.Contains("c") || c.Contains("z") {
		t.Error("Contains")
	}
	empty := Config{}
	if empty.Primary() != "" || empty.Backups() != nil {
		t.Error("empty config helpers")
	}
}

// proposal is c as the broadcast payload a PBR replica proposes.
func proposal(t *testing.T, c NewConfig) []byte {
	t.Helper()
	b, err := msg.AppendBody(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestProposalCodec(t *testing.T) {
	in := NewConfig{OldSeq: 3, Members: []msg.Loc{"r2", "a|b"}, Proposer: "r2"}
	out, err := msg.DecodeBody[NewConfig](proposal(t, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip = %+v", out)
	}
	tx, _ := EncodeTx(TxRequest{Client: "c1", Seq: 1, Type: "deposit"})
	if _, err := msg.DecodeBody[NewConfig](tx); err == nil {
		t.Error("non-proposal accepted")
	}
}

// Divergent state must not win a later election — not after a restart
// either. A primary executes transactions its backups never acknowledge,
// is excluded from the successor configuration and wipes itself to a
// spare; a new incarnation over the same store must come back as that
// empty spare, not with the journal of the discarded history.
func TestPBRWipeReachesTheStore(t *testing.T) {
	prov := store.NewMem()
	dep := testDeployment()
	open := func(name string) *PBRReplica {
		// Populated before construction, like cmd/shadowdb: recovery
		// restores over the population.
		r, _, err := NewDurablePBRReplica("r1", bankDB(t, name, 10), BankRegistry(), dep, mustOpen(t, prov, "r1"), 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := open("wipe-r1")
	for seq := int64(1); seq <= 3; seq++ {
		r.Step(msg.M(HdrTx, durDeposit(seq)))
	}
	if r.Executor().Executed != 3 {
		t.Fatalf("primary executed %d, want 3", r.Executor().Executed)
	}
	r.Step(msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: 0, Msgs: []broadcast.Bcast{{
		From: "r2", Seq: 1, Payload: proposal(t, NewConfig{OldSeq: 0, Members: []msg.Loc{"r2", "r3"}, Proposer: "r2"}),
	}}}))
	if r.hasData() {
		t.Fatal("excluded replica kept its database")
	}

	rb := open("wipe-r1b")
	if rb.Executor().Executed != 0 || rb.hasData() {
		t.Errorf("restarted spare came back with Executed = %d and %d tables; the wiped history was resurrected",
			rb.Executor().Executed, rb.Executor().DB.NumTables())
	}
}

// A state transfer supersedes the local journal: a backup restarted
// after installing one must recover the transferred frontier, rows and
// dedup horizon, not its pre-transfer state.
func TestPBRTransferRebaselinesStore(t *testing.T) {
	prov := store.NewMem()
	dep := testDeployment()
	primary := NewExecutor(bankDB(t, "xfer-r1", 10), BankRegistry())
	for seq := int64(1); seq <= 7; seq++ {
		if _, err := primary.Apply(seq, durDeposit(seq)); err != nil {
			t.Fatal(err)
		}
	}
	open := func(name string) *PBRReplica {
		r, _, err := NewDurablePBRReplica("r2", bankDB(t, name, 10), BankRegistry(), dep, mustOpen(t, prov, "r2"), 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := open("xfer-r2")
	for seq := int64(1); seq <= 2; seq++ {
		r.Step(msg.M(HdrRepl, Repl{Order: seq, Req: durDeposit(seq)}))
	}
	xfer, _ := primary.SnapshotDirectives("r2", 0, 1)
	for _, o := range xfer {
		r.Step(o.M)
	}
	if r.Executor().Executed != 7 || !sqldb.Equal(primary.DB, r.Executor().DB) {
		t.Fatalf("backup installed Executed = %d, want the primary's 7 and its rows", r.Executor().Executed)
	}
	if _, dup := r.Executor().Duplicate(durDeposit(5)); !dup {
		t.Error("transfer did not carry the dedup horizon: a retry of an executed request would run twice")
	}

	rb := open("xfer-r2b")
	if rb.Executor().Executed != 7 || !sqldb.Equal(primary.DB, rb.Executor().DB) {
		t.Errorf("restarted backup recovered Executed = %d, want the transferred frontier 7 and its rows", rb.Executor().Executed)
	}
}
