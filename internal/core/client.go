package core

import (
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/flow"
	"shadowdb/internal/msg"
	"shadowdb/internal/netutil"
)

// Client drives transactions against a ShadowDB deployment. It is a
// plain state machine (no goroutines, no wall clock): Submit returns the
// directives to send, Handle consumes incoming messages and retry timers.
// One transaction is outstanding at a time (the closed-loop client of the
// paper's benchmarks); exactly-once execution is guaranteed by the
// (client, sequence-number) pair, so retries are safe.

// HdrClientRetry is the client's retry timer header.
const HdrClientRetry = "sdb.cliretry"

// ClientRetryBody tags the retry timer with the request it guards.
type ClientRetryBody struct {
	Seq int64
}

// ClientMode selects the protocol the client speaks.
type ClientMode int

// The client modes.
const (
	// ModePBR sends to the primary and follows redirects.
	ModePBR ClientMode = iota + 1
	// ModeSMR broadcasts through the total order broadcast service and
	// takes the first answer.
	ModeSMR
)

// Client is a ShadowDB client state machine.
type Client struct {
	// Slf is the client's own location (where answers arrive).
	Slf msg.Loc
	// Mode selects PBR or SMR.
	Mode ClientMode
	// Replicas is the PBR replica pool (first guess first).
	Replicas []msg.Loc
	// BcastNodes is the SMR broadcast service membership.
	BcastNodes []msg.Loc
	// Retry is the base resend timeout (0 = 2s). Consecutive retries of
	// the same request back off exponentially from this base, up to
	// retryCapFactor times it.
	Retry time.Duration
	// JitterSeed seeds the deterministic retry jitter (0 = derived from
	// Slf). Jitter desynchronizes clients that failed together — avoiding
	// a retry stampede at the recovering primary — while staying a pure
	// function of (seed, seq, attempt) so simulated runs replay exactly.
	JitterSeed uint64
	// Deadline is the per-request time budget: Submit stamps each
	// request with Now() + Deadline, every hop may refuse it once
	// expired, and the client itself declares a terminal
	// deadline-exceeded outcome when the budget runs out mid-retry. 0
	// disables deadlines. Requires Now.
	Deadline time.Duration
	// Now is the deployment clock (virtual in simulation, wall live).
	// Required when Deadline or Budget is set.
	Now func() time.Duration
	// Budget, when set, bounds retry volume: every resend — timer
	// retries and overload-Reject retries alike — spends one token, and
	// an empty bucket turns the request into a terminal overload error
	// instead of amplifying the congestion that caused it. Nil keeps
	// the historical unbounded-retry behavior.
	Budget *flow.RetryBudget

	seq      int64
	primary  int
	home     int // broadcast node the SMR client currently uses
	attempt  int // consecutive retries of the inflight request
	inflight *TxRequest
	// Local reads (lease/follower mode): the outstanding read, its
	// target replica, and the last completed result (drained by
	// TakeRead; the drainer owns releasing the pooled result).
	inflightRead *ReadRequest
	readTarget   msg.Loc
	lastRead     *ReadResult
	// Done counts completed transactions; Retries counts resends.
	Done    int64
	Retries int64
	Aborted int64
	// ReadsDone counts completed local reads; ReadsRejected counts
	// serve refusals (no valid lease / staleness bound exceeded), each
	// of which is retried on the normal backoff schedule.
	ReadsDone     int64
	ReadsRejected int64
	// Shed counts flow.Reject answers received; Overloaded and Expired
	// count requests that ended in a terminal overload / deadline
	// outcome (each also counted in Done and Aborted).
	Shed       int64
	Overloaded int64
	Expired    int64
}

func (c *Client) now() time.Duration {
	if c.Now == nil {
		return 0
	}
	return c.Now()
}

// retryCapFactor bounds the exponential backoff at this multiple of the
// base timeout: a client stays useful across long partitions, probing at
// a bounded rate instead of backing off forever.
const retryCapFactor = 16

func (c *Client) retry() time.Duration {
	if c.Retry > 0 {
		return c.Retry
	}
	return 2 * time.Second
}

// backoff returns the retry-timer delay for the current attempt: the
// base timeout on the first send, then doubling up to the cap with
// deterministic ±25% jitter, all delegated to the shared
// netutil.Backoff policy so every retry loop in the system describes
// its schedule the same way.
func (c *Client) backoff() time.Duration {
	seed := c.JitterSeed
	if seed == 0 {
		seed = netutil.StrSeed(string(c.Slf))
	}
	b := netutil.Backoff{Base: c.retry(), Cap: retryCapFactor * c.retry(), Jitter: 0.5, Seed: seed}
	return b.Delay(c.attempt, uint64(c.seq))
}

// Busy reports whether a transaction or read is outstanding.
func (c *Client) Busy() bool { return c.inflight != nil || c.inflightRead != nil }

// Seq returns the last assigned sequence number.
func (c *Client) Seq() int64 { return c.seq }

// Submit starts a new transaction. It panics if one is already
// outstanding (the driver must wait for completion).
func (c *Client) Submit(txType string, args []any) []msg.Directive {
	if c.inflight != nil {
		panic("core: client already has a transaction outstanding")
	}
	c.seq++
	c.attempt = 0
	req := TxRequest{Client: c.Slf, Seq: c.seq, Type: txType, Args: args}
	if c.Deadline > 0 && c.Now != nil {
		req.Deadline = int64(c.Now() + c.Deadline)
	}
	c.inflight = &req
	return c.send(req)
}

// SubmitRead starts a local read against target (a replica, not a
// broadcast node) in the given mode. Like Submit it panics when a
// request is already outstanding. A rejected read — the target cannot
// prove the mode's guarantee right now — is retried against the same
// target on the retry-timer schedule; the caller drains completed
// results with TakeRead.
func (c *Client) SubmitRead(typ string, args []any, mode ReadMode, target msg.Loc) []msg.Directive {
	if c.Busy() {
		panic("core: client already has a request outstanding")
	}
	c.seq++
	c.attempt = 0
	req := ReadRequest{Client: c.Slf, Seq: c.seq, Type: typ, Args: args, Mode: mode}
	c.inflightRead = &req
	c.readTarget = target
	return c.sendRead(req)
}

func (c *Client) sendRead(req ReadRequest) []msg.Directive {
	return []msg.Directive{
		msg.SendAfter(c.backoff(), c.Slf, msg.M(HdrClientRetry, ClientRetryBody{Seq: req.Seq})),
		msg.Send(c.readTarget, msg.M(HdrRead, req)),
	}
}

// TakeRead drains the last completed read result. The caller owns the
// pooled result and must ReleaseReadResult it when done.
func (c *Client) TakeRead() *ReadResult {
	r := c.lastRead
	c.lastRead = nil
	return r
}

func (c *Client) send(req TxRequest) []msg.Directive {
	outs := []msg.Directive{
		msg.SendAfter(c.backoff(), c.Slf, msg.M(HdrClientRetry, ClientRetryBody{Seq: req.Seq})),
	}
	switch c.Mode {
	case ModeSMR:
		payload, err := EncodeTx(req)
		if err != nil {
			return nil
		}
		// One service node suffices (it forwards to the sequencer); the
		// retry path rotates to another node in case it crashed.
		b := broadcast.Bcast{From: c.Slf, Seq: req.Seq, Payload: payload, Deadline: req.Deadline}
		outs = append(outs, msg.Send(c.BcastNodes[c.home%len(c.BcastNodes)], msg.M(broadcast.HdrBcast, b)))
	default:
		outs = append(outs, msg.Send(c.Replicas[c.primary%len(c.Replicas)], msg.M(HdrTx, req)))
	}
	return outs
}

// Handle consumes one incoming message. When the outstanding transaction
// completes it returns its result (nil otherwise) plus any directives to
// send.
func (c *Client) Handle(in msg.Msg) (*TxResult, []msg.Directive) {
	switch in.Hdr {
	case HdrReadResult:
		res := in.Body.(*ReadResult)
		if c.inflightRead == nil || res.Seq != c.inflightRead.Seq {
			return nil, nil // stale or duplicate answer
		}
		if res.Rejected {
			// The target cannot serve this mode right now (lease not yet
			// granted, holder transition, staleness bound exceeded): hold
			// the request and let the retry timer resend it.
			c.ReadsRejected++
			ReleaseReadResult(res)
			return nil, nil
		}
		c.inflightRead = nil
		c.attempt = 0
		c.ReadsDone++
		c.lastRead = res
		return nil, nil
	case HdrTxResult:
		res := in.Body.(TxResult)
		if c.inflight == nil || res.Seq != c.inflight.Seq {
			return nil, nil // stale or duplicate answer
		}
		c.inflight = nil
		c.attempt = 0
		c.Done++
		if res.Aborted {
			c.Aborted++
		}
		return &res, nil
	case HdrRedirect:
		rd := in.Body.(Redirect)
		if c.inflight == nil || rd.Primary == "" {
			return nil, nil
		}
		for i, r := range c.Replicas {
			if r == rd.Primary {
				c.primary = i
			}
		}
		// A redirect came from a live replica with fresh routing info:
		// reset the backoff so only true unresponsiveness grows it.
		c.attempt = 0
		return nil, c.resend()
	case flow.HdrReject:
		rej := in.Body.(flow.Reject)
		if c.inflight == nil || rej.Seq != c.inflight.Seq {
			return nil, nil // stale rejection, request already resolved
		}
		c.Shed++
		if rej.Reason == flow.ReasonDeadline {
			// A retry cannot meet a deadline that has already passed:
			// terminal, client-visible.
			c.Expired++
			return c.terminal("flow: deadline exceeded before ordering")
		}
		// Overload: retryable — the armed retry timer will resend on
		// its backoff schedule — but only while the retry budget holds
		// out.
		if c.Budget != nil && !c.Budget.Allow(c.now()) {
			c.Overloaded++
			return c.terminal(flow.ErrOverload.Error())
		}
		return nil, nil
	case HdrClientRetry:
		body := in.Body.(ClientRetryBody)
		if c.inflightRead != nil && body.Seq == c.inflightRead.Seq {
			c.Retries++
			c.attempt++
			mCliRetries.Inc()
			return nil, c.sendRead(*c.inflightRead)
		}
		if c.inflight == nil || body.Seq != c.inflight.Seq {
			return nil, nil // the guarded request already completed
		}
		if c.Deadline > 0 && c.Now != nil && flow.Expired(c.inflight.Deadline, int64(c.Now())) {
			// The deadline passed while retrying: declare the terminal
			// outcome here rather than spinning. A late real result is
			// dropped as stale (the sequence number has moved on).
			c.Expired++
			return c.terminal("flow: deadline exceeded")
		}
		if c.Budget != nil && !c.Budget.Allow(c.now()) {
			c.Overloaded++
			return c.terminal(flow.ErrOverload.Error())
		}
		c.Retries++
		c.attempt++
		mCliRetries.Inc()
		mCliBackoff.Add(int64(c.backoff()))
		if c.Mode == ModePBR {
			// Try the next replica: the primary may have crashed.
			c.primary = (c.primary + 1) % len(c.Replicas)
		} else {
			// Try another service node: the home node may have crashed.
			c.home = (c.home + 1) % len(c.BcastNodes)
		}
		return nil, c.resend()
	}
	return nil, nil
}

func (c *Client) resend() []msg.Directive {
	if c.inflight == nil {
		return nil
	}
	return c.send(*c.inflight)
}

// terminal resolves the outstanding transaction with a client-side
// terminal error (deadline exceeded, retry budget exhausted). The
// outcome is an aborted TxResult so drivers handle it on the same path
// as a deterministic abort; the sequence number moves on, so a late
// server answer for the request is dropped as stale.
func (c *Client) terminal(errMsg string) (*TxResult, []msg.Directive) {
	res := TxResult{Client: c.Slf, Seq: c.inflight.Seq, Aborted: true, Err: errMsg}
	c.inflight = nil
	c.attempt = 0
	c.Done++
	c.Aborted++
	return &res, nil
}
