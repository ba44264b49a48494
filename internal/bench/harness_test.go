package bench

import (
	"os"
	"strings"
	"testing"

	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/obs"
)

// One gate list drives the verdict, the report's boolean metrics and the
// failure line.
func TestGatesDeriveVerdictMetricsAndFailureLine(t *testing.T) {
	gates := []Gate{
		boolGate("caught_up", true),
		gate("clients_finished", false, "%d/%d", 3, 4),
		boolGate("state_equal", false),
	}
	if Certified(gates) {
		t.Error("a failed gate certified")
	}
	if !Certified(gates[:1]) || !Certified(nil) {
		t.Error("passing (or empty) gate list did not certify")
	}
	want := "x: certification failed: clients_finished (3/4), state_equal"
	if got := FailureLine("x", gates); got != want {
		t.Errorf("FailureLine = %q, want %q", got, want)
	}
	if got := FailureLine("x", gates[:1]); got != "" {
		t.Errorf("FailureLine of a certified list = %q", got)
	}

	r := NewReport("x", true)
	r.AddCertified(gates)
	got := map[string]float64{}
	for _, m := range r.Metrics {
		got[m.Name] = m.Value
	}
	// Numeric gates are not repeated as metrics; boolean outcomes are.
	if len(got) != 3 || got["x.caught_up"] != 1 || got["x.state_equal"] != 0 || got["x.certified"] != 0 {
		t.Errorf("report metrics = %v", got)
	}
}

// The registry is what cmd/bench validates -experiment against.
func TestRegistryNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		seen[e.Name] = true
	}
	for _, name := range []string{"ablations", "postmortem", "table1"} {
		if !seen[name] {
			t.Errorf("experiment %q missing from the registry", name)
		}
	}
}

// An uncertified Close must leave one flight bundle per protocol node
// behind and remove the temp data directory it created.
func TestRunCloseDumpsUncertifiedAndCleansUp(t *testing.T) {
	flight := t.TempDir()
	run := startRun("harness", 1<<10, flight, "")
	root := run.Root()
	c := run.Attach(newCluster(deployment{app: bankApp(8), root: root,
		nodes: literal("smr", []string{"h2", "h2", "h2"}, 3, func(n *deploy.Node) { n.Fsync = "always" })}))
	stats := &loadStats{}
	shadowClients(c.clu, stats, 1, 3, core.ModeSMR, c.rloc, c.bloc, 0,
		func(int) Workload { return MicroWorkload(8, 1) })
	runToFinish(c.sim, stats, 1)
	if stats.committed != 3 {
		t.Fatalf("committed %d of 3", stats.committed)
	}
	if vs := run.Audit().Violations; len(vs) != 0 {
		t.Fatalf("clean run flagged %v", vs)
	}
	run.Close(false)

	bundles, err := obs.ListBundles(flight)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != len(c.nodes) {
		t.Errorf("%d bundles for %d nodes: %v", len(bundles), len(c.nodes), bundles)
	}
	for _, b := range bundles {
		if !strings.Contains(b, "uncertified") {
			t.Errorf("bundle %s not labelled uncertified", b)
		}
	}
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Errorf("temp data dir %s survived Close (stat err %v)", root, err)
	}
}

// The simulator builds every node through deploy.Node.Process, so a
// setting cmd/shadowdb would refuse at startup fails the experiment with
// the same error instead of running a deployment that cannot ship.
func TestClusterRefusesWhatProcessRefuses(t *testing.T) {
	for want, set := range map[string]func(*deploy.Node){
		"bench: r1: -alpha 16 must exceed twice the -pipeline window 8": func(n *deploy.Node) { n.Pipeline = 8 },
		"bench: b1: -lease applies to -role smr only (got -role broadcast)": func(n *deploy.Node) {
			n.Lease = n.ID != "r1"
		},
	} {
		func() {
			defer func() {
				if err, _ := recover().(error); err == nil || err.Error() != want {
					t.Errorf("cluster built with %v, want the panic %q", err, want)
				}
			}()
			newCluster(deployment{app: bankApp(8), nodes: literal("smr", []string{"h2", "h2"}, 3, set)})
		}()
	}
}
