package broadcast

import (
	"testing"

	"shadowdb/internal/gpm"
	"shadowdb/internal/interp"
	"shadowdb/internal/msg"
)

// Section III-C of the paper: "We can exploit this diversity for
// increased reliability by running different replicas in different
// interpreters." Because the interpreted, optimized and compiled forms
// of the service are bisimilar, a deployment may mix them freely; this
// test runs one node per execution mode and checks the service still
// delivers a correct total order.
func TestDiverseExecutionModes(t *testing.T) {
	cfg := Config{
		Nodes:       []msg.Loc{"b1", "b2", "b3"},
		Subscribers: []msg.Loc{"sub1", "sub2"},
	}
	spec := Spec(cfg)
	native := spec.Generator()
	ev := &interp.Evaluator{}
	interpGen, err := interp.Generator(interp.CompileSpec(spec), spec.Locs, ev)
	if err != nil {
		t.Fatal(err)
	}
	optGen, err := interp.Generator(interp.OptimizeSpec(spec), spec.Locs, ev)
	if err != nil {
		t.Fatal(err)
	}
	// b1 compiled (it is the sequencer), b2 interpreted, b3 optimized.
	gen := func(slf msg.Loc) gpm.Process {
		switch slf {
		case "b2":
			return interpGen(slf)
		case "b3":
			return optGen(slf)
		default:
			return native(slf)
		}
	}
	r := gpm.NewRunner(gpm.System{Gen: gen, Locs: cfg.Nodes})
	const n = 6
	for i := 0; i < n; i++ {
		r.Inject(cfg.Nodes[i%3], msg.M(HdrBcast, Bcast{
			From: "client", Seq: int64(i), Payload: []byte{byte(i)},
		}))
	}
	if _, err := r.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if err := CheckTotalOrder(r.Trace()); err != nil {
		t.Fatalf("diverse deployment broke total order: %v", err)
	}
	// Every message was delivered despite the mixed runtimes.
	seen := make(map[int]bool)
	count := 0
	for _, d := range DeliveriesTo(r.Trace(), "sub1") {
		if seen[d.Slot] {
			continue
		}
		seen[d.Slot] = true
		count += len(d.Msgs)
	}
	if count != n {
		t.Errorf("delivered %d of %d messages", count, n)
	}
	if ev.Steps == 0 {
		t.Error("the interpreted nodes did no term-reduction work")
	}
}
