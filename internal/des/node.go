package des

import (
	"time"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// Envelope is a message in flight inside the simulated cluster. Trace
// and LC mirror msg.Envelope's causal-correlation coordinates, so
// simulated traces carry the same per-request IDs and Lamport stamps as
// real TCP runs.
type Envelope struct {
	From msg.Loc
	To   msg.Loc
	M    msg.Msg
	// Trace is the per-request trace ID the send belongs to.
	Trace string
	// LC is the sender's Lamport clock at the send event.
	LC int64
}

// Handler is a node's message handler: it may mutate node-local state and
// returns the directives to send. It runs when the message's service time
// completes.
type Handler func(env Envelope) []msg.Directive

// ServiceFunc models the CPU cost of handling one message at a node.
type ServiceFunc func(env Envelope) time.Duration

// LinkSpec describes the network path between two nodes.
type LinkSpec struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is in bytes per second; zero means infinite.
	Bandwidth float64
}

// FaultVerdict is a fault hook's decision for one message (see
// Cluster.Fault). The zero value delivers the message untouched.
type FaultVerdict struct {
	// Drop discards the message.
	Drop bool
	// Delay postpones arrival past the link (jitter: later sends on the
	// same link may overtake it).
	Delay time.Duration
	// Dup delivers this many extra copies at the same arrival time.
	Dup int
}

// Node is a simulated machine: a FIFO run queue served by Cores workers.
// Messages wait in the queue while all cores are busy — the queueing that
// produces CPU-bound saturation curves.
type Node struct {
	Name    msg.Loc
	Cores   int
	cluster *Cluster
	handler Handler
	costed  CostedHandler
	service ServiceFunc
	busy    int
	queue   []Envelope
	crashed bool
	// epoch increments on every crash so work started before the crash
	// cannot complete after a restart.
	epoch int
	// lc is the node's Lamport clock (the sim is single-threaded, so a
	// plain int64 suffices).
	lc int64
	// Processed counts handled messages.
	Processed int64
	// BusyTime accumulates core-seconds of work.
	BusyTime time.Duration
}

// Cluster wires nodes together with links and routes directives.
type Cluster struct {
	Sim   *Sim
	nodes map[msg.Loc]*Node
	// Link returns the link spec for a pair; nil means 0-latency infinite
	// bandwidth everywhere.
	Link func(from, to msg.Loc) LinkSpec
	// SizeOf models the wire size of a message for bandwidth delays; nil
	// means size 0.
	SizeOf func(m msg.Msg) int
	// Dropped counts messages to unknown or crashed nodes.
	Dropped int64
	// Fault, when set, judges every inter-node message before it is
	// scheduled (self-sends — timers — are exempt): dropped messages
	// vanish, delays shift the arrival past the link, duplicates deliver
	// extra copies. fault.BindCluster installs a plan-driven hook.
	Fault func(from, to msg.Loc, m msg.Msg) FaultVerdict
	// FaultDrops counts messages the Fault hook dropped.
	FaultDrops int64
	// linkFree serializes each directed link: a message's transmission
	// occupies the link for size/bandwidth, so messages between one pair
	// of nodes stay FIFO (as on a TCP connection) and large transfers
	// queue behind each other.
	linkFree map[string]time.Duration
	// Obs receives step events with virtual timestamps; attach it with
	// Observe. Nil means no recording.
	Obs        *obs.Obs
	processed  *obs.Counter
	dropped    *obs.Counter
	faultDrops *obs.Counter
	gQueue     *obs.Gauge
}

// NewCluster creates an empty cluster on a simulator.
func NewCluster(sim *Sim) *Cluster {
	return &Cluster{
		Sim:      sim,
		nodes:    make(map[msg.Loc]*Node),
		linkFree: make(map[string]time.Duration),
	}
}

// AddNode registers a node with its handler and service model. A zero
// cores value means 1.
func (c *Cluster) AddNode(name msg.Loc, cores int, service ServiceFunc, handler Handler) *Node {
	if cores <= 0 {
		cores = 1
	}
	n := &Node{Name: name, Cores: cores, cluster: c, handler: handler, service: service}
	c.nodes[name] = n
	return n
}

// CostedHandler handles a message and reports the CPU time the handling
// cost, which the node charges as the message's service time. It lets
// service times depend on the real work done (e.g. SQL execution cost).
type CostedHandler func(env Envelope) ([]msg.Directive, time.Duration)

// AddCostedNode registers a node whose handler computes its own service
// time: the handler runs when a core picks the message up, the core stays
// busy for the returned duration, and the outputs are emitted when it
// frees.
func (c *Cluster) AddCostedNode(name msg.Loc, cores int, handler CostedHandler) *Node {
	if cores <= 0 {
		cores = 1
	}
	n := &Node{Name: name, Cores: cores, cluster: c, costed: handler}
	c.nodes[name] = n
	return n
}

// AddCostedProcess hosts a GPM process whose cost is read from a
// per-step cost reporter (ShadowDB replicas implement it).
func (c *Cluster) AddCostedProcess(name msg.Loc, cores int, p gpm.Process, cost func() time.Duration) *Node {
	proc := p
	return c.AddCostedNode(name, cores, func(env Envelope) ([]msg.Directive, time.Duration) {
		next, outs := proc.Step(env.M)
		proc = next
		return outs, cost()
	})
}

// AddProcess hosts a GPM process as a node, with the given per-message
// service model. Delayed directives become simulator timers.
func (c *Cluster) AddProcess(name msg.Loc, cores int, service ServiceFunc, p gpm.Process) *Node {
	proc := p
	return c.AddNode(name, cores, service, func(env Envelope) []msg.Directive {
		next, outs := proc.Step(env.M)
		proc = next
		return outs
	})
}

// Node returns a registered node (nil when absent).
func (c *Cluster) Node(name msg.Loc) *Node { return c.nodes[name] }

// Send routes a message: it arrives at the destination after the link
// delay and then waits for a core.
func (c *Cluster) Send(from, to msg.Loc, m msg.Msg) {
	c.SendAfter(0, from, to, m)
}

// SendAfter routes a message after an extra sender-side delay (the
// directive Delay of the process model). Transmission occupies the
// directed link serially: arrival = max(send time, link free) +
// transmission + latency, keeping per-pair delivery FIFO.
func (c *Cluster) SendAfter(extra time.Duration, from, to msg.Loc, m msg.Msg) {
	c.sendCtx(extra, from, to, m, "", 0)
}

// sendCtx is SendAfter carrying the sender's causal context (trace ID and
// Lamport stamp); node output paths use it so simulated envelopes stay
// causally correlated.
func (c *Cluster) sendCtx(extra time.Duration, from, to msg.Loc, m msg.Msg, trace string, lc int64) {
	sendAt := c.Sim.Now() + extra
	arrival := sendAt
	// Self-sends are local timers, not network traffic: they skip link
	// modeling entirely. Routing them through the serialized link would
	// let a long timer armed first hold the "link" past its own fire time
	// and push every shorter timer armed later behind it.
	if c.Link != nil && from != to {
		spec := c.Link(from, to)
		var tx time.Duration
		if spec.Bandwidth > 0 && c.SizeOf != nil {
			bytes := float64(c.SizeOf(m))
			tx = time.Duration(bytes / spec.Bandwidth * float64(time.Second))
		}
		key := string(from) + "\x00" + string(to)
		start := sendAt
		if free := c.linkFree[key]; free > start {
			start = free
		}
		c.linkFree[key] = start + tx
		arrival = start + tx + spec.Latency
	}
	copies := 1
	if c.Fault != nil && from != to {
		v := c.Fault(from, to, m)
		if v.Drop {
			c.FaultDrops++
			c.faultDrops.Inc()
			return
		}
		arrival += v.Delay
		copies += v.Dup
	}
	deliver := func() {
		n, ok := c.nodes[to]
		if !ok || n.crashed {
			c.Dropped++
			c.dropped.Inc()
			return
		}
		n.enqueue(Envelope{From: from, To: to, M: m, Trace: trace, LC: lc})
	}
	for i := 0; i < copies; i++ {
		c.Sim.At(arrival, deliver)
	}
}

// Crash marks the node failed: queued and future messages are dropped,
// and work in service never completes (even across a later Restart).
func (n *Node) Crash() {
	n.crashed = true
	n.queue = nil
	n.epoch++
}

// Restart clears the crash flag so the node accepts traffic again. It
// resumes with the state it crashed with (a process restart from a
// durable image); a rebuilt process is installed with RebindCosted.
func (n *Node) Restart() { n.crashed = false }

// RebindCosted replaces the node's handler with a costed one.
func (n *Node) RebindCosted(h CostedHandler) { n.costed = h; n.handler = nil }

// Crashed reports the failure state.
func (n *Node) Crashed() bool { return n.crashed }

// QueueLen returns the number of messages waiting for a core.
func (n *Node) QueueLen() int { return len(n.queue) }

func (n *Node) enqueue(env Envelope) {
	n.queue = append(n.queue, env)
	n.cluster.gQueue.Set(int64(len(n.queue)))
	n.pump()
}

// pump starts queued work on free cores. Service completions carry the
// node's crash epoch: work begun before a crash is discarded even when
// the node restarted in the meantime.
func (n *Node) pump() {
	for n.busy < n.Cores && len(n.queue) > 0 {
		env := n.queue[0]
		n.queue = n.queue[1:]
		n.busy++
		ep := n.epoch
		if n.costed != nil {
			outs, svc := n.costed(env)
			n.BusyTime += svc
			n.cluster.Sim.After(svc, func() {
				n.busy--
				if !n.crashed && n.epoch == ep {
					n.Processed++
					n.finish(env, outs)
				}
				n.pump()
			})
			continue
		}
		svc := time.Duration(0)
		if n.service != nil {
			svc = n.service(env)
		}
		n.BusyTime += svc
		n.cluster.Sim.After(svc, func() {
			n.busy--
			if !n.crashed && n.epoch == ep {
				n.Processed++
				outs := n.handler(env)
				n.finish(env, outs)
			}
			n.pump()
		})
	}
}

// finish completes one delivery: it merges the sender's Lamport stamp
// into the node's clock, records the step event, and emits the outputs
// with the inherited (or freshly derived) trace ID and per-send stamps.
func (n *Node) finish(env Envelope, outs []msg.Directive) {
	if env.LC >= n.lc {
		n.lc = env.LC + 1
	} else {
		n.lc++
	}
	trace := n.cluster.observeStep(n.Name, env, outs, n.lc)
	for _, o := range outs {
		n.lc++
		n.cluster.sendCtx(o.Delay, n.Name, o.Dest, o.M, trace, n.lc)
	}
}

// Inject delivers an external message to a node at the current time.
func (c *Cluster) Inject(to msg.Loc, m msg.Msg) { c.Send("external", to, m) }

// SpawnSystem hosts every location of a GPM system on the cluster with a
// shared service model and core count.
func (c *Cluster) SpawnSystem(sys gpm.System, cores int, service ServiceFunc) {
	for _, l := range sys.Locs {
		c.AddProcess(l, cores, service, sys.Gen(l))
	}
}
