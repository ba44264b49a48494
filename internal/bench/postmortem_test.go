package bench

import (
	"strings"
	"testing"
)

// TestPostmortemQuick runs the full flight-recorder loop at test scale:
// forged violation → per-node bundle dumps → causal merge → offline
// re-detection by the offline replay.
func TestPostmortemQuick(t *testing.T) {
	cfg := QuickPostmortem()
	cfg.Dir = t.TempDir()
	res, err := Postmortem(cfg)
	if err != nil {
		t.Fatalf("postmortem: %v", err)
	}
	if res.Committed == 0 {
		t.Fatal("no commits — the forgery must not stall the system")
	}
	if len(res.Violations) == 0 {
		t.Fatal("forged slot-0 delivery was not flagged by the online checker")
	}
	sawTotalOrder := false
	for _, v := range res.Violations {
		if v.Property == "broadcast/total-order" {
			sawTotalOrder = true
		}
	}
	if !sawTotalOrder {
		t.Fatalf("expected a broadcast/total-order violation, got %v", res.Violations)
	}
	if len(res.Bundles) != res.Nodes {
		t.Fatalf("bundles on %d of %d nodes: %v", len(res.Bundles), res.Nodes, res.Bundles)
	}
	if !res.TimelineOrdered {
		t.Fatal("merged timeline is not causally ordered")
	}
	if res.TimelineLen == 0 {
		t.Fatal("merged timeline is empty")
	}
	if !res.ForgedInTimeline {
		t.Fatal("forged delivery missing from the merged timeline")
	}
	if !res.ReplayDetected {
		t.Fatal("offline replay over the bundles did not re-detect the violation")
	}
	if !strings.Contains(res.ReplayErr, "total-order") {
		t.Fatalf("replay error does not name total-order: %s", res.ReplayErr)
	}
	if !res.Certified() {
		t.Fatal("result not certified despite all checks passing")
	}
}
