package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"shadowdb/internal/obs"
)

// showEvent renders everything a trace file carries of an event: its
// fields, and its message and outputs with their bodies' types.
func showEvent(e obs.Event) string {
	var b strings.Builder
	m, outs := e.M, e.Outs
	e.M, e.Outs = nil, nil
	fmt.Fprintf(&b, "%+v", e)
	if m != nil {
		fmt.Fprintf(&b, " in %T %v", m.Body, *m)
	}
	for _, d := range outs {
		fmt.Fprintf(&b, " out %T %v", d.M.Body, d)
	}
	return b.String()
}

// Every event of a quick chaos, shard and membership run — every body
// their processes step on or send — writes to a trace file and reads
// back equal: no emitted body lacks a codec.
func TestTraceFilesRoundTrip(t *testing.T) {
	var events []obs.Event
	watchRun = func(o *obs.Obs) { o.AddSink(func(e obs.Event) { events = append(events, e) }) }
	defer func() { watchRun = nil }()
	for name, run := range map[string]func(){
		"chaos":      func() { Chaos(QuickChaos()) },
		"shard":      func() { Shard(QuickShard()) },
		"membership": func() { Membership(QuickMembership()) },
	} {
		events = events[:0]
		run()
		if len(events) == 0 {
			t.Fatalf("%s: no events traced", name)
		}
		var buf bytes.Buffer
		if err := obs.EncodeTrace(&buf, events); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := obs.DecodeTrace(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(back) != len(events) {
			t.Fatalf("%s: %d events read back from %d", name, len(back), len(events))
		}
		steps := 0
		for i := range events {
			if events[i].M != nil {
				steps++
			}
			if got, want := showEvent(back[i]), showEvent(events[i]); got != want {
				t.Fatalf("%s: event %d reads back as\n%s\nwant\n%s", name, i, got, want)
			}
		}
		t.Logf("%s: %d events, %d with a message", name, len(events), steps)
	}
}
