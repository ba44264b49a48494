package deploy

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/flow"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/shard"
)

// Client is every setting of cmd/shadowdb-client, one field per flag.
type Client struct {
	Topology, ID, Listen, Mode, Tx, Args string
	N                                    int
	Read, ReadTarget                     string
	Timeout, Deadline                    time.Duration
	RetryBudget                          float64
	LogLevel                             string
}

// DefaultClient returns the client's settings when no flag is given.
func DefaultClient() Client {
	return Client{ID: "cli", Mode: "pbr", Tx: "deposit", N: 1, Timeout: 30 * time.Second, LogLevel: "info"}
}

// RegisterFlags declares one flag per field on fs; a flag's default is
// the field's current value, so start from DefaultClient.
func (c *Client) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Topology, "topology", c.Topology, "the deployment's topology file, the one its servers were started with")
	fs.StringVar(&c.ID, "id", c.ID, "this client's location id; for -mode smr|shard it must be listed in the topology the servers were started with, because answers are dialed back to it")
	fs.StringVar(&c.Listen, "listen", c.Listen, "listen address for answers (default: this id's topology entry, else an ephemeral loopback port)")
	fs.StringVar(&c.Mode, "mode", c.Mode, "pbr|smr|shard (shard talks to the deployment's router, rt1)")
	fs.StringVar(&c.Tx, "tx", c.Tx, "transaction type")
	fs.StringVar(&c.Args, "args", c.Args, "comma-separated transaction arguments (ints, floats, strings)")
	fs.IntVar(&c.N, "n", c.N, "how many times to run the transaction")
	fs.StringVar(&c.Read, "read", c.Read, "serve -tx as a local read in this mode: lease|follower (replicas must run with -lease; -tx then names a read procedure, e.g. balance)")
	fs.StringVar(&c.ReadTarget, "read-target", c.ReadTarget, "replica that serves -read requests (default: first replica in the topology)")
	fs.DurationVar(&c.Timeout, "timeout", c.Timeout, "per-transaction timeout")
	fs.DurationVar(&c.Deadline, "deadline", c.Deadline, "per-request deadline stamped on every submission (DESIGN.md §14): hops refuse the request once it passes, and the client surfaces a terminal timeout instead of retrying forever (0 = none)")
	fs.Float64Var(&c.RetryBudget, "retry-budget", c.RetryBudget, "retry tokens per second: resends beyond the budget surface a terminal overload error instead of amplifying a retry storm (0 = unbounded)")
	fs.StringVar(&c.LogLevel, "log-level", c.LogLevel, "structured log level: debug|info|warn|error|off")
}

// Session is a client connected to a deployment: the protocol state
// machine (whose counters it exposes) fed from its own endpoint.
type Session struct {
	*core.Client
	// Timeout bounds each request's wait for its answer.
	Timeout time.Duration
	tr      network.Transport
	read    core.ReadMode
	target  msg.Loc
	// retries are the retry timers armed for the request in flight,
	// stopped when it ends: a timer left running would only wake the
	// client, seconds later, to drop a stale tick, and every one still
	// pending holds a place in the runtime's timer heap.
	retries []*time.Timer
}

// Errors a request ends with when it gets no answer.
var (
	// ErrTimeout: no answer within the session's Timeout.
	ErrTimeout = errors.New("timed out")
	// ErrClosed: the session's transport closed under the request.
	ErrClosed = errors.New("transport closed")
)

// Open reads the topology, binds the client's endpoint and returns the
// session; the caller owns Close. Settings that cannot be run as given
// are reported before the endpoint is bound.
func (c Client) Open() (*Session, error) {
	topo, err := loadTopology(c.Topology)
	if err != nil {
		return nil, err
	}
	s, err := c.Session(&Cluster{Topology: topo, Timing: core.DefaultTiming()}, nil)
	if err != nil {
		return nil, err
	}
	dir := topo.Directory()
	switch {
	case c.Listen != "":
		dir[s.Slf] = c.Listen
	case dir[s.Slf] == "":
		dir[s.Slf] = "127.0.0.1:0"
	}
	if s.tr, err = network.NewTCP(s.Slf, dir); err != nil {
		return nil, err
	}
	return s, nil
}

// Session returns the session these settings run over tr, a transport
// bound to the client's id: it talks to the replicas and broadcast nodes
// of cl's topology and resends on cl's timing. The session owns tr.
func (c Client) Session(cl *Cluster, tr network.Transport) (*Session, error) {
	m := cl.members()
	s := &Session{Timeout: c.Timeout, tr: tr, target: msg.Loc(c.ReadTarget), Client: &core.Client{
		Slf: msg.Loc(c.ID), Mode: core.ModePBR, Replicas: m.replicas, BcastNodes: m.bcast, Retry: cl.Timing.ClientRetry,
	}}
	switch c.Mode {
	case "pbr":
	case "smr":
		s.Mode = core.ModeSMR
	case "shard":
		// The router speaks the replica protocol from the client's view:
		// requests go to rt1, results come back as usual.
		s.Replicas = []msg.Loc{shard.RouterLoc}
	default:
		return nil, fmt.Errorf("unknown -mode %q (pbr|smr|shard)", c.Mode)
	}
	switch c.Read {
	case "":
	case "lease":
		s.read = core.ReadLease
	case "follower":
		s.read = core.ReadFollower
	default:
		return nil, fmt.Errorf("unknown -read mode %q (lease|follower)", c.Read)
	}
	if s.read != 0 && s.target == "" {
		if len(m.replicas) == 0 {
			return nil, errors.New("-read needs a replica in the topology")
		}
		s.target = m.replicas[0]
	}
	if c.Deadline > 0 || c.RetryBudget > 0 {
		// Deadlines are absolute nanoseconds on the deployment clock, so
		// the value the client stamps is comparable at every hop that
		// enforces it.
		s.Now, s.Deadline = wallClock, c.Deadline
		if c.RetryBudget > 0 {
			s.Budget = &flow.RetryBudget{Rate: c.RetryBudget}
		}
	}
	return s, nil
}

// Close releases the client's endpoint.
func (s *Session) Close() error { return s.tr.Close() }

// Exec submits one transaction and waits for its answer.
func (s *Session) Exec(tx string, args []any) (core.TxResult, error) {
	var res core.TxResult
	err := s.await(s.Submit(tx, args), func(r *core.TxResult) bool {
		if r != nil {
			res = *r
		}
		return r != nil
	})
	if err != nil {
		return res, fmt.Errorf("transaction %s: %w", tx, err)
	}
	return res, nil
}

// Read submits one local read in the session's -read mode and waits for
// a served answer; rejections are retried inside the client on its
// retry-timer schedule until the timeout. The caller releases the
// result (core.ReleaseReadResult).
func (s *Session) Read(typ string, args []any) (*core.ReadResult, error) {
	var res *core.ReadResult
	err := s.await(s.SubmitRead(typ, args, s.read, s.target), func(*core.TxResult) bool {
		res = s.TakeRead()
		return res != nil
	})
	if err != nil {
		return nil, fmt.Errorf("read %s: %w (%d rejections)", typ, err, s.ReadsRejected)
	}
	if res.Err != "" {
		err = fmt.Errorf("read %s: %s", typ, res.Err)
		core.ReleaseReadResult(res)
		return nil, err
	}
	return res, nil
}

// await sends the submission and feeds the client's state machine from
// the transport until done reports the outcome or the timeout passes.
// Its timers end with it.
func (s *Session) await(first []msg.Directive, done func(*core.TxResult) bool) error {
	timeout := time.NewTimer(s.Timeout)
	defer s.stopTimers(timeout)
	s.emit(first)
	for {
		select {
		case env, ok := <-s.tr.Receive():
			if !ok {
				return ErrClosed
			}
			res, outs := s.Handle(env.M)
			s.emit(outs)
			if done(res) {
				return nil
			}
		case <-timeout.C:
			return fmt.Errorf("%w after %v", ErrTimeout, s.Timeout)
		}
	}
}

// stopTimers stops a request's timeout and the retry timers it armed.
func (s *Session) stopTimers(timeout *time.Timer) {
	timeout.Stop()
	for _, t := range s.retries {
		t.Stop()
	}
	clear(s.retries)
	s.retries = s.retries[:0]
}

// emit sends the client's directives; a delayed one (the retry timer)
// is sent when its delay has passed, to nobody once the session closed.
func (s *Session) emit(outs []msg.Directive) {
	for _, o := range outs {
		send := func() {
			_ = s.tr.Send(msg.Envelope{From: s.Slf, To: o.Dest, M: o.M, Deadline: msg.DeadlineOf(o.M)})
		}
		if o.Delay > 0 {
			s.retries = append(s.retries, time.AfterFunc(o.Delay, send))
		} else {
			send()
		}
	}
}
