package runtime

import (
	"fmt"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/gpm"
	"shadowdb/internal/leaktest"
	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/sqldb"
)

// TestCLKOverHub runs the Lamport-clock ring over the in-process network
// with real goroutines.
func TestCLKOverHub(t *testing.T) {
	hub := network.NewHub()
	defer func() { _ = hub.Close() }()
	spec := loe.ClkRing(3)
	var hosts []*Host
	hops := make(chan int, 1024)
	for _, l := range spec.Locs {
		tr, err := hub.Register(l)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHost(l, tr, spec.Generator()(l))
		h.OnStep = func(in msg.Msg, outs []msg.Directive) {
			select {
			case hops <- in.Body.(loe.ClkBody).Val.(int):
			default:
			}
		}
		h.Start()
		hosts = append(hosts, h)
	}
	hosts[0].Inject(msg.M(loe.ClkHeader, loe.ClkBody{Val: 0, TS: 0}))
	seen := 0
	deadline := time.After(5 * time.Second)
	for seen < 10 {
		select {
		case <-hops:
			seen++
		case <-deadline:
			t.Fatalf("ring made only %d hops", seen)
		}
	}
	for _, h := range hosts {
		_ = h.Close()
	}
}

// deployPBR starts a full ShadowDB-PBR deployment (2 replicas + spare,
// 3 broadcast nodes) on a transport factory and returns the replicas and
// a submit/await client helper.
type pbrDeployment struct {
	hosts    map[msg.Loc]*Host
	replicas map[msg.Loc]*core.PBRReplica
	results  chan core.TxResult
	client   *core.Client
	cliHost  *Host
}

func deployPBR(t *testing.T, register func(msg.Loc) network.Transport, timing core.Timing) *pbrDeployment {
	t.Helper()
	dep := core.PBRDeployment{
		Pool:           []msg.Loc{"r1", "r2", "r3"},
		InitialMembers: 2,
		BcastNodes:     []msg.Loc{"b1", "b2", "b3"},
		Timing:         timing,
	}
	mkDB := func(slf msg.Loc) *sqldb.DB {
		db, err := sqldb.Open("h2:mem:" + string(slf))
		if err != nil {
			t.Fatal(err)
		}
		if slf != "r3" {
			if err := core.BankSetup(db, 100); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	d := &pbrDeployment{
		hosts:    make(map[msg.Loc]*Host),
		replicas: make(map[msg.Loc]*core.PBRReplica),
		results:  make(chan core.TxResult, 256),
	}
	// Replicas subscribe to the broadcast service for recovery proposals.
	bgen := broadcast.Spec(broadcast.Config{Nodes: dep.BcastNodes, Subscribers: dep.Pool}).Generator()
	for _, l := range dep.BcastNodes {
		h := NewHost(l, register(l), bgen(l))
		h.Start()
		d.hosts[l] = h
	}
	for _, l := range dep.Pool {
		r := core.NewPBRReplica(l, mkDB(l), core.BankRegistry(), dep)
		d.replicas[l] = r
		h := NewHost(l, register(l), r)
		h.Start()
		d.hosts[l] = h
		h.Emit(r.Start())
	}
	d.client = &core.Client{Slf: "cli", Mode: core.ModePBR, Replicas: dep.Pool, Retry: 300 * time.Millisecond}
	cliProc := core.ClientProc(d.client, func(res core.TxResult) { d.results <- res })
	d.cliHost = NewHost("cli", register("cli"), cliProc)
	d.cliHost.Start()
	d.hosts["cli"] = d.cliHost
	return d
}

func (d *pbrDeployment) close() {
	for _, h := range d.hosts {
		_ = h.Close()
	}
}

func (d *pbrDeployment) submitAndAwait(t *testing.T, timeout time.Duration, typ string, args ...any) core.TxResult {
	t.Helper()
	d.cliHost.Inject(msg.M(core.HdrSubmit, core.SubmitBody{Type: typ, Args: args}))
	select {
	case res := <-d.results:
		return res
	case <-time.After(timeout):
		t.Fatalf("transaction %s timed out", typ)
		return core.TxResult{}
	}
}

func TestShadowDBPBROverHub(t *testing.T) {
	hub := network.NewHub()
	defer func() { _ = hub.Close() }()
	reg := func(l msg.Loc) network.Transport {
		tr, err := hub.Register(l)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	d := deployPBR(t, reg, core.Timing{
		HeartbeatEvery: 20 * time.Millisecond,
		SuspectAfter:   150 * time.Millisecond,
		ClientRetry:    200 * time.Millisecond,
	})
	defer d.close()

	for i := 0; i < 5; i++ {
		res := d.submitAndAwait(t, 5*time.Second, "deposit", int64(i), int64(10))
		if res.Aborted || res.Err != "" {
			t.Fatalf("tx %d failed: %+v", i, res)
		}
	}
	res := d.submitAndAwait(t, 5*time.Second, "balance", int64(0))
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1010) {
		t.Errorf("balance = %v", res.Rows)
	}
}

func TestShadowDBPBRCrashRecoveryOverHub(t *testing.T) {
	hub := network.NewHub()
	defer func() { _ = hub.Close() }()
	reg := func(l msg.Loc) network.Transport {
		tr, err := hub.Register(l)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	d := deployPBR(t, reg, core.Timing{
		HeartbeatEvery: 20 * time.Millisecond,
		SuspectAfter:   150 * time.Millisecond,
		ClientRetry:    200 * time.Millisecond,
	})
	defer d.close()

	if res := d.submitAndAwait(t, 5*time.Second, "deposit", int64(1), int64(5)); res.Err != "" {
		t.Fatal(res.Err)
	}
	// Kill the primary's host: real crash, messages to it are dropped.
	_ = d.hosts["r1"].Close()

	// The system must recover (detect, reconfigure through the broadcast
	// service, promote r2, state-transfer to r3) and then serve this:
	res := d.submitAndAwait(t, 20*time.Second, "deposit", int64(2), int64(7))
	if res.Aborted || res.Err != "" {
		t.Fatalf("post-crash tx failed: %+v", res)
	}
	d.hosts["r2"].Inspect(func(p gpm.Process) {
		if r2 := p.(*core.PBRReplica); !r2.IsPrimary() {
			t.Errorf("new primary = %s, want r2", r2.ConfigNow().Primary())
		}
	})
	if !sqldb.Equal(d.replicas["r2"].Executor().DB, d.replicas["r3"].Executor().DB) {
		t.Error("r2 and r3 hold different databases")
	}
}

func TestShadowDBPBROverTCP(t *testing.T) {
	leaktest.Check(t, "shadowdb/internal/runtime.", "shadowdb/internal/network.")

	// Bind every location on an ephemeral port, then share the directory.
	locs := []msg.Loc{"r1", "r2", "r3", "b1", "b2", "b3", "cli"}
	transports := make(map[msg.Loc]*network.TCP, len(locs))
	for _, l := range locs {
		tr, err := network.NewTCP(l, map[msg.Loc]string{l: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		transports[l] = tr
	}
	t.Cleanup(func() {
		for _, tr := range transports {
			_ = tr.Close()
		}
	})
	for _, a := range locs {
		for _, b := range locs {
			transports[a].SetPeer(b, transports[b].Addr())
		}
	}
	reg := func(l msg.Loc) network.Transport { return transports[l] }
	d := deployPBR(t, reg, core.Timing{
		HeartbeatEvery: 50 * time.Millisecond,
		SuspectAfter:   500 * time.Millisecond,
		ClientRetry:    500 * time.Millisecond,
	})
	defer d.close()

	for i := 0; i < 3; i++ {
		res := d.submitAndAwait(t, 10*time.Second, "deposit", int64(i), int64(3))
		if res.Aborted || res.Err != "" {
			t.Fatalf("tx over TCP failed: %+v", res)
		}
	}
	res := d.submitAndAwait(t, 10*time.Second, "balance", int64(1))
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1003) {
		t.Errorf("balance over TCP = %v", res.Rows)
	}
	if !sqldb.Equal(d.replicas["r1"].Executor().DB, d.replicas["r2"].Executor().DB) {
		t.Error("r1 and r2 hold different databases")
	}
}

func TestSMROverHub(t *testing.T) {
	hub := network.NewHub()
	defer func() { _ = hub.Close() }()
	bnodes := []msg.Loc{"b1", "b2", "b3"}
	rlocs := []msg.Loc{"r1", "r2", "r3"}
	mkDB := func(slf msg.Loc) *sqldb.DB {
		db, err := sqldb.Open("h2:mem:" + string(slf))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.BankSetup(db, 50); err != nil {
			t.Fatal(err)
		}
		return db
	}
	replicas := make(map[msg.Loc]*core.SMRReplica)
	for _, l := range rlocs {
		r, err := core.OpenSMRReplica(core.SMRConfig{Self: l, DB: mkDB(l), Registry: core.BankRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		replicas[l] = r
	}
	var hosts []*Host
	mustReg := func(l msg.Loc) network.Transport {
		tr, err := hub.Register(l)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	bgen := broadcast.Spec(broadcast.Config{Nodes: bnodes, Subscribers: rlocs}).Generator()
	for _, l := range bnodes {
		h := NewHost(l, mustReg(l), bgen(l))
		h.Start()
		hosts = append(hosts, h)
	}
	rhosts := make(map[msg.Loc]*Host)
	for _, l := range rlocs {
		h := NewHost(l, mustReg(l), replicas[l])
		h.Start()
		hosts = append(hosts, h)
		rhosts[l] = h
	}
	results := make(chan core.TxResult, 64)
	cli := &core.Client{Slf: "cli", Mode: core.ModeSMR, BcastNodes: bnodes, Retry: 300 * time.Millisecond}
	ch := NewHost("cli", mustReg("cli"), core.ClientProc(cli, func(r core.TxResult) { results <- r }))
	ch.Start()
	hosts = append(hosts, ch)
	defer func() {
		for _, h := range hosts {
			_ = h.Close()
		}
	}()

	for i := 0; i < 4; i++ {
		ch.Inject(msg.M(core.HdrSubmit, core.SubmitBody{Type: "deposit", Args: []any{int64(1), int64(2)}}))
		select {
		case res := <-results:
			if res.Aborted || res.Err != "" {
				t.Fatalf("tx %d: %+v", i, res)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("tx %d timed out", i)
		}
	}
	// The client takes the FIRST answer; the other replicas may still be
	// applying the last delivery. Wait for convergence before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		caughtUp := true
		for _, h := range rhosts {
			h.Inspect(func(p gpm.Process) {
				caughtUp = caughtUp && p.(*core.SMRReplica).Executor().Executed >= 4
			})
		}
		if caughtUp || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var dbs []*sqldb.DB
	for _, r := range replicas {
		dbs = append(dbs, r.Executor().DB)
	}
	for i := 1; i < len(dbs); i++ {
		if !sqldb.Equal(dbs[0], dbs[i]) {
			t.Errorf("replica 0 and %d hold different databases", i)
		}
	}
	if got, _ := dbs[0].Exec("SELECT balance FROM accounts WHERE id = 1"); len(got.Rows) == 1 {
		if got.Rows[0][0] != int64(1008) {
			t.Errorf("balance = %v, want 1008", got.Rows[0][0])
		}
	}
}

func TestHostEmitDelayed(t *testing.T) {
	hub := network.NewHub()
	defer func() { _ = hub.Close() }()
	tr, err := hub.Register("x")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan msg.Msg, 1)
	var rec gpm.StepFunc
	rec = func(in msg.Msg) (gpm.Process, []msg.Directive) {
		got <- in
		return rec, nil
	}
	h := NewHost("x", tr, rec)
	h.Start()
	defer func() { _ = h.Close() }()
	start := time.Now()
	h.Emit([]msg.Directive{msg.SendAfter(100*time.Millisecond, "x", msg.M("timer", nil))})
	select {
	case <-got:
		if since := time.Since(start); since < 80*time.Millisecond {
			t.Errorf("timer fired after %v, want >= 100ms", since)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timer never fired")
	}
	_ = fmt.Sprint()
}

// TestHostEmitBeforeStart emits a delayed directive before Start, the
// way cmd/shadowdb arms boot timers while it is still wiring the host:
// the timer callback reads Host.Obs on its own goroutine, so Start must
// not be the one to write it (run under -race).
func TestHostEmitBeforeStart(t *testing.T) {
	hub := network.NewHub()
	defer func() { _ = hub.Close() }()
	tr, err := hub.Register("x")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan msg.Msg, 1)
	var rec gpm.StepFunc
	rec = func(in msg.Msg) (gpm.Process, []msg.Directive) {
		got <- in
		return rec, nil
	}
	h := NewHost("x", tr, rec)
	h.Emit([]msg.Directive{msg.SendAfter(time.Microsecond, "x", msg.M("boot", nil))})
	h.Start()
	defer func() { _ = h.Close() }()
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("boot timer never fired")
	}
}
