package fault

import (
	"testing"
	"time"

	"shadowdb/internal/des"
	"shadowdb/internal/msg"
)

// pingCluster wires two DES nodes that ping-pong forever (each reply
// after 10ms), plus a counter of deliveries at b.
func pingCluster(p Plan) (sim *des.Sim, delivered *int, fp func() uint64) {
	sim = &des.Sim{}
	clu := des.NewCluster(sim)
	n := 0
	delivered = &n
	mk := func(self, peer msg.Loc, count bool) des.CostedHandler {
		return func(env msg.Envelope) ([]msg.Directive, time.Duration) {
			if count {
				n++
			}
			return []msg.Directive{msg.SendAfter(10*time.Millisecond, peer, env.M)}, 0
		}
	}
	clu.AddCostedNode("a", 1, mk("a", "b", false))
	clu.AddCostedNode("b", 1, mk("b", "a", true))
	inj := BindCluster(clu, p)
	clu.Send("external", "a", msg.M("ping", nil))
	return sim, delivered, inj.Fingerprint
}

func TestBindClusterPartitionWindow(t *testing.T) {
	// a->b cut during [1s,2s): b's delivery rate dips while the window
	// is open and resumes after it heals.
	plan := Plan{Partitions: []Partition{
		{From: Duration(time.Second), To: Duration(2 * time.Second), A: []msg.Loc{"a"}, B: []msg.Loc{"b"}},
	}}
	sim, delivered, _ := pingCluster(plan)
	// Run just past the window open so messages judged before 1s (and
	// still in flight across it) are counted as "before" traffic —
	// faults are judged at send time, not delivery time.
	sim.Run(1020*time.Millisecond, 1_000_000)
	before := *delivered
	if before == 0 {
		t.Fatal("no traffic before the partition")
	}
	sim.Run(1900*time.Millisecond, 1_000_000)
	during := *delivered - before
	if during > 1 {
		t.Fatalf("partition open but b received %d messages", during)
	}
	// The ping-pong ball was dropped inside the window — exactly what a
	// partition does to an unacknowledged protocol — so nothing more
	// arrives until new traffic is injected.
	sim.Run(3*time.Second, 1_000_000)
	if *delivered != before+during {
		t.Fatalf("unexpected deliveries after ball dropped: %d", *delivered)
	}
}

func TestBindClusterCrashRestart(t *testing.T) {
	// b crashes at 500ms and restarts (state retained) at 700ms. The
	// ping-pong ball is lost while b is down; send a fresh ball after
	// restart and the pair keeps counting.
	sim := &des.Sim{}
	clu := des.NewCluster(sim)
	delivered := 0
	clu.AddCostedNode("a", 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
		return []msg.Directive{msg.SendAfter(10*time.Millisecond, "b", env.M)}, 0
	})
	clu.AddCostedNode("b", 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
		delivered++
		return []msg.Directive{msg.SendAfter(10*time.Millisecond, "a", env.M)}, 0
	})
	BindCluster(clu, Plan{Crashes: []Crash{
		{At: Duration(500 * time.Millisecond), Node: "b", RestartAfter: Duration(200 * time.Millisecond)},
	}})
	clu.Send("external", "a", msg.M("ping", nil))
	sim.At(time.Second, func() { clu.Send("external", "b", msg.M("ping", nil)) })

	sim.Run(600*time.Millisecond, 1_000_000)
	if !clu.Node("b").Crashed() {
		t.Fatal("b should be crashed at 600ms")
	}
	atCrash := delivered
	if atCrash == 0 {
		t.Fatal("no traffic before crash")
	}
	sim.Run(800*time.Millisecond, 1_000_000)
	if clu.Node("b").Crashed() {
		t.Fatal("b should have restarted at 800ms")
	}
	sim.Run(2*time.Second, 1_000_000)
	if delivered <= atCrash {
		t.Fatal("b processed nothing after restart")
	}
}

func TestBindClusterFingerprintDeterministic(t *testing.T) {
	plan := Plan{
		Seed:  1234,
		Rules: []Rule{{Match: Match{}, Prob: 0.3, Drop: true}},
	}
	fpOf := func() uint64 {
		sim, _, fp := pingCluster(plan)
		sim.Run(5*time.Second, 1_000_000)
		return fp()
	}
	a, b := fpOf(), fpOf()
	if a != b {
		t.Fatalf("same plan+seed on the simulator must reproduce the injection schedule: %x vs %x", a, b)
	}
}
