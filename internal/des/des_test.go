package des

import (
	"testing"
	"time"

	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
)

const ms = time.Millisecond

func TestSimOrdering(t *testing.T) {
	var s Sim
	var order []int
	s.After(5*ms, func() { order = append(order, 2) })
	s.After(1*ms, func() { order = append(order, 1) })
	s.After(5*ms, func() { order = append(order, 3) }) // FIFO tie-break
	s.Run(0, 0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 5*ms {
		t.Errorf("Now = %v, want 5ms", s.Now())
	}
}

func TestSimRunBounds(t *testing.T) {
	var s Sim
	n := 0
	var tick func()
	tick = func() {
		n++
		s.After(ms, tick)
	}
	s.After(0, tick)

	if got := s.Run(0, 10); got != 10 {
		t.Errorf("maxEvents bound executed %d, want 10", got)
	}
	s2 := &Sim{}
	n = 0
	s2.After(0, func() { n++; s2.After(10*ms, func() { n++ }) })
	s2.Run(5*ms, 0)
	if n != 1 {
		t.Errorf("time bound executed %d events, want 1", n)
	}
	if !s2.Idle() == true && s2.events.Len() != 1 {
		t.Error("pending event lost")
	}
}

// sink registers a zero-cost node that records the virtual time of each
// arrival.
func sink(c *Cluster, name msg.Loc, at *[]time.Duration) {
	c.AddCostedNode(name, 1, func(msg.Envelope) ([]msg.Directive, time.Duration) {
		*at = append(*at, c.Sim.Now())
		return nil, 0
	})
}

// server registers a node whose every step costs svc and answers cli.
func server(c *Cluster, cores int, svc time.Duration) *Node {
	return c.AddCostedNode("srv", cores, func(msg.Envelope) ([]msg.Directive, time.Duration) {
		return []msg.Directive{msg.Send("cli", msg.M("resp", nil))}, svc
	})
}

func TestNodeServiceQueueing(t *testing.T) {
	// A 1-core node with 10ms service handles 3 simultaneous messages in
	// series: completions at 10, 20, 30ms.
	var s Sim
	c := NewCluster(&s)
	var completions []time.Duration
	sink(c, "cli", &completions)
	server(c, 1, 10*ms)
	for i := 0; i < 3; i++ {
		c.Inject("srv", msg.M("req", i))
	}
	s.Run(0, 0)
	want := []time.Duration{10 * ms, 20 * ms, 30 * ms}
	if len(completions) != 3 {
		t.Fatalf("completions = %v", completions)
	}
	for i, w := range want {
		if completions[i] != w {
			t.Errorf("completion %d at %v, want %v", i, completions[i], w)
		}
	}
	if got := c.Node("srv").Processed; got != 3 {
		t.Errorf("Processed = %d", got)
	}
	if got := c.Node("srv").BusyTime; got != 30*ms {
		t.Errorf("BusyTime = %v", got)
	}
}

func TestMultiCoreParallelism(t *testing.T) {
	var s Sim
	c := NewCluster(&s)
	var done []time.Duration
	sink(c, "cli", &done)
	server(c, 4, 10*ms)
	for i := 0; i < 4; i++ {
		c.Inject("srv", msg.M("req", i))
	}
	s.Run(0, 0)
	if last := done[len(done)-1]; last != 10*ms {
		t.Errorf("4 cores finished at %v, want 10ms (parallel)", last)
	}
}

func TestLinkLatencyAndBandwidth(t *testing.T) {
	var s Sim
	c := NewCluster(&s)
	c.Link = func(from, to msg.Loc) LinkSpec {
		return LinkSpec{Latency: 5 * ms, Bandwidth: 1000} // 1000 B/s
	}
	c.SizeOf = func(m msg.Msg) int { return 100 } // 100 B -> 100ms transmission
	var arrived []time.Duration
	sink(c, "dst", &arrived)
	c.Send("src", "dst", msg.M("data", nil))
	s.Run(0, 0)
	want := 105 * ms
	if len(arrived) != 1 || arrived[0] != want {
		t.Errorf("arrived at %v, want %v", arrived, want)
	}
}

func TestCrashDropsTraffic(t *testing.T) {
	var s Sim
	c := NewCluster(&s)
	var answered []time.Duration
	sink(c, "cli", &answered)
	n := server(c, 1, 10*ms)
	c.Inject("srv", msg.M("a", nil)) // in service when crash hits
	c.Inject("srv", msg.M("b", nil)) // queued
	s.After(5*ms, n.Crash)
	c.Sim.After(20*ms, func() { c.Inject("srv", msg.M("c", nil)) })
	s.Run(0, 0)
	if len(answered) != 0 || n.Processed != 0 {
		t.Errorf("crashed node completed %d messages, answered %d", n.Processed, len(answered))
	}
	if c.Dropped == 0 {
		t.Error("no messages counted as dropped")
	}
}

func TestClusterHostsGPMSystem(t *testing.T) {
	// The CLK ring runs on the simulated cluster: virtual time advances by
	// link latency per hop.
	spec := loe.ClkRing(3)
	var s Sim
	c := NewCluster(&s)
	c.Link = func(from, to msg.Loc) LinkSpec { return LinkSpec{Latency: ms} }
	sys := spec.System()
	for _, l := range sys.Locs {
		c.AddCostedProcess(l, 1, sys.Gen(l), func() time.Duration { return 0 })
	}
	c.Inject(loe.RingLoc(0), msg.M(loe.ClkHeader, loe.ClkBody{Val: 0, TS: 0}))
	s.Run(10*ms, 0)
	// 1ms per hop: by 10ms the ring made ~10 hops.
	hops := c.Node(loe.RingLoc(0)).Processed +
		c.Node(loe.RingLoc(1)).Processed +
		c.Node(loe.RingLoc(2)).Processed
	if hops < 8 || hops > 11 {
		t.Errorf("ring made %d hops in 10ms, want ~10", hops)
	}
}

func TestDelayedDirectiveBecomesTimer(t *testing.T) {
	var s Sim
	c := NewCluster(&s)
	var at time.Duration
	c.AddCostedNode("a", 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
		if env.M.Hdr == "start" {
			return []msg.Directive{msg.SendAfter(30*ms, "a", msg.M("timer", nil))}, 0
		}
		at = s.Now()
		return nil, 0
	})
	c.Inject("a", msg.M("start", nil))
	s.Run(0, 0)
	if at != 30*ms {
		t.Errorf("timer fired at %v, want 30ms", at)
	}
}

// A delayed send to a peer holds nothing up: the link is taken when its
// timer fires, so a message sent after it arrives at link latency. The
// timer dies with a sender crashed when it falls due.
func TestDelayedRemoteSendDoesNotHoldLink(t *testing.T) {
	var s Sim
	c := NewCluster(&s)
	c.Link = func(from, to msg.Loc) LinkSpec { return LinkSpec{Latency: 5 * ms} }
	var arrived []time.Duration
	sink(c, "b", &arrived)
	a := c.AddCostedNode("a", 1, func(msg.Envelope) ([]msg.Directive, time.Duration) { return nil, 0 })
	c.SendAfter(2*time.Second, "a", "b", msg.M("retry", nil))
	c.Send("a", "b", msg.M("now", nil))
	s.Run(0, 0)
	want := []time.Duration{5 * ms, 2*time.Second + 5*ms}
	if len(arrived) != 2 || arrived[0] != want[0] || arrived[1] != want[1] {
		t.Errorf("arrivals at %v, want %v", arrived, want)
	}

	c.SendAfter(time.Second, "a", "b", msg.M("retry", nil))
	s.After(500*ms, a.Crash)
	s.Run(0, 0)
	if len(arrived) != 2 || c.Dropped != 1 {
		t.Errorf("a crashed sender's timer fired: arrivals %v, dropped %d", arrived, c.Dropped)
	}
}

func TestResource(t *testing.T) {
	var s Sim
	r := NewResource(&s)

	var log []string
	r.Acquire(0, func() { log = append(log, "g1") }, nil)
	r.Acquire(0, func() { log = append(log, "g2") }, nil)
	r.Acquire(5*ms, func() { log = append(log, "g3") }, func() { log = append(log, "t3") })

	// Holder releases at 10ms: g2 gets it; g3 timed out at 5ms.
	s.After(10*ms, r.Release)
	s.Run(0, 0)
	want := []string{"g1", "t3", "g2"}
	if len(log) != 3 || log[0] != want[0] || log[1] != want[1] || log[2] != want[2] {
		t.Errorf("log = %v, want %v", log, want)
	}
	if r.Timeouts != 1 || r.Grants != 2 {
		t.Errorf("timeouts=%d grants=%d", r.Timeouts, r.Grants)
	}
}

func TestResourceReleaseFreesWhenNoWaiters(t *testing.T) {
	var s Sim
	r := NewResource(&s)
	got := false
	r.Acquire(0, func() {}, nil)
	r.Release()
	if r.Held() {
		t.Error("resource still held after release")
	}
	r.Acquire(0, func() { got = true }, nil)
	if !got {
		t.Error("free resource not granted immediately")
	}
}

func TestLatencyRecorder(t *testing.T) {
	var l LatencyRecorder
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * ms)
	}
	if l.Count() != 100 {
		t.Errorf("Count = %d", l.Count())
	}
	if got := l.Mean(); got != 50*ms+500*time.Microsecond {
		t.Errorf("Mean = %v", got)
	}
	if got := l.Percentile(50); got != 50*ms {
		t.Errorf("P50 = %v", got)
	}
	if got := l.Percentile(99); got != 99*ms {
		t.Errorf("P99 = %v", got)
	}
	var empty LatencyRecorder
	if empty.Mean() != 0 || empty.Percentile(50) != 0 {
		t.Error("empty recorder must return zeros")
	}
}

func TestTimeline(t *testing.T) {
	tl := NewTimeline(time.Second)
	for i := 0; i < 10; i++ {
		tl.Mark(500 * time.Millisecond) // bin 0
	}
	tl.Mark(2500 * time.Millisecond) // bin 2
	series := tl.Series()
	if len(series) != 3 {
		t.Fatalf("series length = %d, want 3", len(series))
	}
	if series[0] != 10 || series[1] != 0 || series[2] != 1 {
		t.Errorf("series = %v", series)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(500, 2*time.Second); got != 250 {
		t.Errorf("Throughput = %v", got)
	}
	if got := Throughput(500, 0); got != 0 {
		t.Errorf("Throughput(0 elapsed) = %v", got)
	}
}

// closed-loop client sanity: a 1-core server with 1ms service saturates
// at 1000 req/s regardless of client count.
func TestClosedLoopSaturation(t *testing.T) {
	var s Sim
	c := NewCluster(&s)
	c.AddCostedNode("srv", 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
		return []msg.Directive{msg.Send(env.From, msg.M("resp", nil))}, ms
	})
	for i := 0; i < 8; i++ {
		name := msg.Loc("client" + string(rune('0'+i)))
		c.AddCostedNode(name, 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
			return []msg.Directive{msg.Send("srv", msg.M("req", nil))}, 0
		})
		c.Inject(name, msg.M("resp", nil)) // kick off the loop
	}
	s.Run(time.Second, 0)
	tput := Throughput(int(c.Node("srv").Processed), s.Now())
	if tput < 900 || tput > 1100 {
		t.Errorf("saturated throughput = %.0f req/s, want ~1000", tput)
	}
}
