package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	names := []string{"core.step:bc.deliver", "store.append", "store.sync", "network.send"}
	spans := []span{
		{Name: 0, Parent: -1, Start: 0, End: 100},          // the step
		{Name: 1, Parent: 0, Start: 10, End: 30, N: 512},   // child, nested
		{Name: 2, Parent: 0, Start: 40, End: 70},           // child, nested
		{Name: 3, Parent: 0, Start: 110, End: 120, N: 2},   // caused by the step, after it: no overlap
		{Name: 0, Parent: -1, Start: 200, End: 260},        // a second step
		{Name: 1, Parent: 4, Start: 250, End: 280, N: 100}, // child running past its parent: only the overlap counts
		{Name: 0, Parent: -1, Start: 1000, End: 1100},      // outside the window
		{Name: 2, Parent: 4, Start: 255, End: 0},           // still open: ignored
	}
	got := map[string]*spanStat{}
	selfTimes(spans, names, [][2]int64{{0, 500}}, got)

	want := map[string]spanStat{
		"core.step:bc.deliver": {Count: 2, Total: 160, Self: 160 - 20 - 30 - 10},
		"store.append":         {Count: 2, Total: 50, Self: 50, N: 612},
		"store.sync":           {Count: 1, Total: 30, Self: 30},
		"network.send":         {Count: 1, Total: 10, Self: 10, N: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d", len(got), len(want))
	}
	for name, w := range want {
		if g := got[name]; g == nil || *g != w {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
	if l := layerOf("core.step:bc.deliver"); l != "core" {
		t.Errorf("layerOf = %q, want core", l)
	}
	if s := sumWhere(got, "store."); s.Count != 3 || s.Self != 80 || s.N != 612 {
		t.Errorf("sumWhere(store.) = %+v", s)
	}
}

func TestCoveredShare(t *testing.T) {
	cover := unionOf([]interval{{50, 60}, {0, 10}, {5, 20}, {20, 25}, {90, 200}})
	if len(cover) != 3 || cover[0] != (interval{0, 25}) || cover[1] != (interval{50, 60}) || cover[2] != (interval{90, 200}) {
		t.Fatalf("union = %v", cover)
	}
	// [10,100) overlaps 15 of the first, all 10 of the second, 10 of the third.
	if got := coveredShare(cover, 10, 100); math.Abs(got-35.0/90) > 1e-12 {
		t.Errorf("covered share = %v, want %v", got, 35.0/90)
	}
	if got := coveredShare(cover, 30, 40); got != 0 {
		t.Errorf("covered share of a gap = %v, want 0", got)
	}
}

// The recorder must attribute a store call to the step open on the node
// and a send to the step that just finished, and record nothing while off.
func TestRecorderParents(t *testing.T) {
	tr := newTracer(time.Now())
	nt := tr.node("r1")
	if sp := nt.begin(nt.idAppend, roleChild, 1); sp != -1 {
		t.Fatalf("recorded while off: %d", sp)
	}
	tr.on.Store(true)
	step := nt.begin(tr.nameID("core.step:x"), roleStep, 0)
	app := nt.begin(nt.idAppend, roleChild, 7)
	nt.end(app)
	nt.end(step)
	send := nt.begin(nt.idSend, roleSend, 1)
	nt.end(send)
	if len(nt.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(nt.spans))
	}
	if p := nt.spans[app].Parent; p != step {
		t.Errorf("append parent = %d, want the open step %d", p, step)
	}
	if p := nt.spans[send].Parent; p != step {
		t.Errorf("send parent = %d, want the finished step %d", p, step)
	}
	if nt.spans[step].Parent != -1 || nt.open != -1 {
		t.Errorf("step parent %d, open %d", nt.spans[step].Parent, nt.open)
	}
}

func TestStepLayer(t *testing.T) {
	for _, tc := range []struct {
		bcast bool
		hdr   string
		want  string
	}{
		{true, "bc.bcast", "broadcast"}, {true, "bc.flush", "broadcast"}, {true, "px.decide", "broadcast"},
		{true, "px.p2a", "synod"}, {true, "px.p1b", "synod"},
		{false, "bc.deliver", "core"}, {false, "sdb.read", "core"}, {false, "sdb.tx", "core"},
	} {
		if got := stepLayer(tc.bcast, tc.hdr); got != tc.want {
			t.Errorf("stepLayer(%v, %s) = %s, want %s", tc.bcast, tc.hdr, got, tc.want)
		}
	}
}
