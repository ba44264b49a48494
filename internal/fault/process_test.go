package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shadowdb/internal/des"
	"shadowdb/internal/msg"
	"shadowdb/internal/store"
)

func writePlan(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	path := writePlan(t, `{"seed": 1, "rules": [{"match": {}, "dorp": true}]}`)
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "dorp") {
		t.Fatalf("misspelled field accepted: %v", err)
	}
	// A restarted node keeps its state (BindProcess rebuilds it from its
	// store), so a plan asking to lose it is refused, not run as a
	// retained-state restart.
	path = writePlan(t, `{"crashes": [{"at": "1s", "node": "r1", "restart_after": "1s", "lose_state": true}]}`)
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "lose_state") {
		t.Fatalf("lose_state accepted: %v", err)
	}
	path = writePlan(t, `{"seed": 1} trailing`)
	if _, err := Load(path); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestValidatePositionalErrors(t *testing.T) {
	cases := []struct {
		plan Plan
		want string
	}{
		{Plan{Rules: []Rule{{Drop: true}, {Prob: 2, Drop: true}}}, "rule 1"},
		{Plan{Rules: []Rule{{Drop: true, From: Duration(-1)}}}, "rule 0"},
		{Plan{Rules: []Rule{{Drop: true, Match: Match{Hdr: "bc deliver"}}}}, "rule 0: hdr"},
		{Plan{Rules: []Rule{{Drop: true, Match: Match{Src: "a|b"}}}}, "rule 0: src"},
		{Plan{Partitions: []Partition{{A: []msg.Loc{"a"}, B: nil}}}, "partition 0"},
		{Plan{Crashes: []Crash{{At: Duration(time.Second), Node: "n1"}, {At: Duration(-1), Node: "n2"}}}, "crash 1"},
		{Plan{Crashes: []Crash{{At: 0, Node: "n1", CorruptTail: true}}}, "crash 0"},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate() = %v, want mention of %q", err, c.want)
		}
	}
	good := Plan{
		Rules:      []Rule{{Match: Match{Src: "r1", Hdr: "bc.deliver"}, Drop: true, Prob: 0.5}},
		Partitions: []Partition{{A: []msg.Loc{"a"}, B: []msg.Loc{"b"}}},
		Crashes:    []Crash{{At: Duration(time.Second), Node: "r1", RestartAfter: Duration(time.Second), CorruptTail: true}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("well-formed plan rejected: %v", err)
	}
}

// CorruptWALTail must break exactly the newest segment's last record:
// the store reopens cleanly and replays everything but the mangled
// tail.
func TestCorruptWALTail(t *testing.T) {
	root := t.TempDir()
	prov, err := store.NewDir(root, store.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	st, err := prov.Open("acc-a1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Append([]byte{byte(i), 0xAA, 0xBB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Node-root form: finds the wal under the component subdirectory.
	if err := CorruptWALTail(root); err != nil {
		t.Fatal(err)
	}

	prov2, err := store.NewDir(root, store.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := prov2.Open("acc-a1")
	if err != nil {
		t.Fatalf("corrupt tail prevented reopen: %v", err)
	}
	var got []byte
	if err := st2.Replay(func(rec []byte) error {
		got = append(got, rec[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d records after tail corruption, want 4 (last truncated)", len(got))
	}
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("surviving record %d has payload %d", i, b)
		}
	}
}

// BindProcess: a killed node is rebuilt from its durable store by the
// host's Restart hook — a genuinely fresh incarnation — and resumes
// with its journaled state.
func TestBindProcessKillRestart(t *testing.T) {
	root := t.TempDir()
	sim := &des.Sim{}
	clu := des.NewCluster(sim)

	openStore := func() store.Stable {
		prov, err := store.NewDir(root, store.SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		st, err := prov.Open("counter")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// The process journals every tick; its in-memory count is its state.
	mkHandler := func(st store.Stable) (des.CostedHandler, *int) {
		count := 0
		if err := st.Replay(func([]byte) error { count++; return nil }); err != nil {
			t.Fatal(err)
		}
		h := func(env msg.Envelope) ([]msg.Directive, time.Duration) {
			if err := st.Append([]byte{1}); err != nil {
				t.Error(err)
			}
			count++
			return nil, 0
		}
		return h, &count
	}
	st := openStore()
	h, count := mkHandler(st)
	n := clu.AddCostedNode("svc", 1, h)

	killed, restarted := false, false
	BindProcess(clu, Plan{Crashes: []Crash{
		{At: Duration(100 * time.Millisecond), Node: "svc", RestartAfter: Duration(50 * time.Millisecond)},
	}}, ProcessHooks{
		Kill: func(node msg.Loc) {
			killed = true
			st.Close()
		},
		Restart: func(node msg.Loc) {
			restarted = true
			st = openStore()
			var h2 des.CostedHandler
			h2, count = mkHandler(st)
			n.RebindCosted(h2)
		},
		DataDir: func(node msg.Loc) string { return root },
	})

	for _, at := range []time.Duration{10, 20, 30, 200, 210} {
		at := at * time.Millisecond
		sim.At(at, func() { clu.Send("external", "svc", msg.M("tick", nil)) })
	}
	sim.Run(time.Second, 1_000_000)
	if !killed || !restarted {
		t.Fatalf("hooks not run: killed=%v restarted=%v", killed, restarted)
	}
	// 3 pre-crash ticks recovered from the journal + 2 post-restart.
	if *count != 5 {
		t.Fatalf("recovered count = %d, want 5 (3 journaled + 2 live)", *count)
	}
}
