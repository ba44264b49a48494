package des

import (
	"time"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/runtime"
)

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
// produces CPU-bound saturation curves. A runtime.Core hosts its handler,
// on the cluster's Obs clock, exactly as a live runtime.Host hosts a
// process.
type Node struct {
	Cores   int
	cluster *Cluster
	core    runtime.Core
	costed  CostedHandler
	busy    int
	queue   []msg.Envelope
	crashed bool
	// epoch increments on every crash so work started before the crash
	// cannot complete after a restart.
	epoch int
	// Processed counts handled messages.
	Processed int64
	// Frames counts the wire frames the node's steps emitted (runs of
	// consecutive immediate sends to one destination, see runtime.Out).
	Frames int64
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
	// Dropped counts messages to unknown or crashed nodes or from a
	// crashed node's timers.
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

// CostedHandler handles a message and reports the CPU time the handling
// cost, which the node charges as the message's service time. It lets
// service times depend on the real work done (e.g. SQL execution cost).
type CostedHandler func(env msg.Envelope) ([]msg.Directive, time.Duration)

// AddCostedNode registers a node whose handler computes its own service
// time: the handler runs when a core picks the message up, the core stays
// busy for the returned duration, and the step is recorded and its
// outputs emitted when it frees. A zero cores value means 1.
func (c *Cluster) AddCostedNode(name msg.Loc, cores int, handler CostedHandler) *Node {
	if cores <= 0 {
		cores = 1
	}
	n := &Node{Cores: cores, cluster: c, core: runtime.Core{Self: name, Layer: obs.LayerDES}, costed: handler}
	c.nodes[name] = n
	return n
}

// AddCostedProcess hosts a GPM process whose cost is read from a
// per-step cost reporter (ShadowDB replicas implement it).
func (c *Cluster) AddCostedProcess(name msg.Loc, cores int, p gpm.Process, cost func() time.Duration) *Node {
	proc := p
	return c.AddCostedNode(name, cores, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
		next, outs := proc.Step(env.M)
		proc = next
		return outs, cost()
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
// transmission + latency, keeping per-pair delivery FIFO. A delayed
// send is a sender-side timer: it takes the link only when it fires.
func (c *Cluster) SendAfter(extra time.Duration, from, to msg.Loc, m msg.Msg) {
	c.route(extra, msg.Envelope{From: from, To: to, M: m})
}

// route is SendAfter for a stamped envelope; nodes route their outputs
// through it, so simulated envelopes keep their causal context.
func (c *Cluster) route(extra time.Duration, env msg.Envelope) {
	from, to, m := env.From, env.To, env.M
	if extra > 0 && from != to {
		// A timer at the sender, as runtime.Host arms one (reserving the
		// link from now+extra would hold every later message behind it),
		// that dies like a self-timer if its node is down when it fires.
		c.Sim.After(extra, func() {
			if n, ok := c.nodes[from]; ok && n.crashed {
				c.Dropped++
				c.dropped.Inc()
				return
			}
			c.route(0, env)
		})
		return
	}
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
		n.enqueue(env)
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

// RebindCosted replaces the node's handler.
func (n *Node) RebindCosted(h CostedHandler) { n.costed = h }

// Crashed reports the failure state.
func (n *Node) Crashed() bool { return n.crashed }

func (n *Node) enqueue(env msg.Envelope) {
	n.queue = append(n.queue, env)
	n.cluster.gQueue.Set(int64(len(n.queue)))
	n.pump()
}

// pump starts queued work on free cores: the delivery is witnessed and
// stepped at pickup, and recorded and emitted when its service time has
// passed. Service completions carry the node's crash epoch: work begun
// before a crash is discarded even when the node restarted in the
// meantime.
func (n *Node) pump() {
	c := n.cluster
	for n.busy < n.Cores && len(n.queue) > 0 {
		d := n.core.Receive(c.Obs, n.queue[0])
		n.queue = n.queue[1:]
		n.busy++
		ep := n.epoch
		var svc time.Duration
		d.Outs, svc = n.costed(d.In)
		n.BusyTime += svc
		c.Sim.After(svc, func() {
			n.busy--
			if !n.crashed && n.epoch == ep {
				n.Processed++
				c.processed.Inc()
				n.core.Emit(c.Obs, d).Frames(func(frame []msg.Envelope) {
					n.Frames++
					for _, env := range frame {
						c.route(0, env)
					}
				}, c.route)
			}
			n.pump()
		})
	}
}

// Inject delivers an external message to a node at the current time.
func (c *Cluster) Inject(to msg.Loc, m msg.Msg) { c.Send("external", to, m) }

// Observe attaches o to the cluster: step events are recorded with
// virtual timestamps (when tracing is enabled on o), envelopes carry o's
// Lamport stamps, and queue/processed metrics are registered. Pass a
// dedicated Obs — Observe repoints o's clock at the simulator, which
// would corrupt wall-clock latencies if o also serves live hosts.
func (c *Cluster) Observe(o *obs.Obs) {
	c.Obs = o
	// +1 keeps the first event off timestamp zero, which Record treats
	// as "stamp me".
	o.SetClock(func() int64 { return int64(c.Sim.Now()) + 1 })
	c.processed = o.Counter("des.processed")
	c.dropped = o.Counter("des.dropped")
	c.faultDrops = o.Counter("des.fault_drops")
	c.gQueue = o.Gauge("des.queue_depth")
}
