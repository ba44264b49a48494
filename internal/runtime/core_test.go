package runtime

import (
	"slices"
	"testing"
	"time"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// fanOut answers every message with the same four sends: three to a, one
// to b.
type fanOut struct{ outs []msg.Directive }

func (p *fanOut) Halted() bool                                { return false }
func (p *fanOut) Step(msg.Msg) (gpm.Process, []msg.Directive) { return p, p.outs }

// TestCoreStepAllocs guards the cost of hosting a step with tracing off:
// witnessing, stamping and framing four outputs allocate only the one
// slice of stamped envelopes.
func TestCoreStepAllocs(t *testing.T) {
	m := msg.M("x", nil)
	var p gpm.Process = &fanOut{outs: []msg.Directive{msg.Send("a", m), msg.Send("a", m), msg.Send("a", m), msg.Send("b", m)}}
	c := Core{Self: "p", Layer: obs.LayerRuntime}
	o := obs.New(0)
	env := msg.Envelope{From: "cli", To: "p", M: m, LC: 7}
	frames, envs := 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		d := c.Receive(o, env)
		p, d.Outs = p.Step(d.In.M)
		c.Emit(o, d).Frames(func(f []msg.Envelope) { frames++; envs += len(f) }, nil)
	})
	if allocs > 1 {
		t.Errorf("a hosted step allocates %.1f objects, want <= 1", allocs)
	}
	if frames != 2*101 || envs != 4*101 {
		t.Errorf("framed %d envelopes in %d frames over 101 steps, want 4 in 2 per step", envs, frames)
	}
}

// TestOutSends pins the live host's view of a step: delayed sends go to
// the timer, and the immediate ones come back in directive order in the
// step's own array, without a copy.
func TestOutSends(t *testing.T) {
	m := msg.M("x", nil)
	outs := []msg.Directive{msg.Send("a", m), msg.SendAfter(1, "p", m), msg.Send("b", m), msg.Send("a", m)}
	c := Core{Self: "p", Layer: obs.LayerRuntime}
	o := obs.New(0)
	var timed []msg.Loc
	var sends []msg.Envelope
	allocs := testing.AllocsPerRun(100, func() {
		timed = timed[:0]
		sends = c.stamp(o, outs, "").Sends(func(_ time.Duration, env msg.Envelope) { timed = append(timed, env.To) })
	})
	if allocs > 1 {
		t.Errorf("stamping and splitting a step allocates %.1f objects, want <= 1 (the stamped envelopes)", allocs)
	}
	var to []msg.Loc
	for _, env := range sends {
		to = append(to, env.To)
	}
	if !slices.Equal(to, []msg.Loc{"a", "b", "a"}) || !slices.Equal(timed, []msg.Loc{"p"}) {
		t.Errorf("immediate sends to %v, timed to %v; want [a b a] and [p]", to, timed)
	}
	if sends[1].LC+1 != sends[2].LC || sends[0].LC+2 != sends[1].LC {
		t.Errorf("sends lost their directive-order stamps: %+v", sends)
	}
}
