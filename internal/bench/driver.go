// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (Section IV). Experiments run on the
// discrete-event simulator: protocol and database code executes for real,
// while CPU service times, link latencies, lock waiting and crashes play
// out in virtual time. Broadcast-service costs are measured from the real
// term interpreter and native implementations, then scaled uniformly to
// the paper's Lisp-service operating point (see DESIGN.md,
// "Substitutions").
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/msg"
)

// Workload produces the next transaction for a client.
type Workload func() (string, []any)

// MicroWorkload returns the bank micro-benchmark generator: deposits on
// uniformly random accounts (Section IV-B).
func MicroWorkload(rows int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	return func() (string, []any) {
		return "deposit", []any{int64(rng.Intn(rows)), int64(1)}
	}
}

// ZipfWorkload returns a hot-key bank workload: deposits on accounts
// drawn from a zipfian distribution (s=1.1), the shape that punishes a
// partitioning scheme unless hot keys actually spread across shards.
func ZipfWorkload(rows int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 16, uint64(rows-1))
	return func() (string, []any) {
		return "deposit", []any{int64(zipf.Uint64()), int64(1)}
	}
}

// CurvePoint is one data point of a latency/throughput curve.
type CurvePoint struct {
	Clients    int
	Throughput float64 // committed transactions per second
	MeanLatMs  float64
	P99LatMs   float64
	Aborts     int64
}

// String renders the point as a table row.
func (p CurvePoint) String() string {
	return fmt.Sprintf("%8d %12.0f %12.3f %12.3f %8d",
		p.Clients, p.Throughput, p.MeanLatMs, p.P99LatMs, p.Aborts)
}

// loadStats aggregates what the client fleet observed.
type loadStats struct {
	lat       des.LatencyRecorder
	committed int64
	aborted   int64
	finished  int
	lastDone  time.Duration
	// timeline, when set, receives a mark per commit (Fig. 10a).
	timeline *des.Timeline
	// onDone, when set, sees every completion (client index, latency,
	// success) for experiment-specific attribution.
	onDone func(i int, lat time.Duration, ok bool)
}

// record books one completed operation of client i.
func (s *loadStats) record(i int, lat, at time.Duration, ok bool) {
	s.lat.Add(lat)
	s.lastDone = at
	if !ok {
		s.aborted++
	} else {
		s.committed++
		if s.timeline != nil {
			s.timeline.Mark(at)
		}
	}
	if s.onDone != nil {
		s.onDone(i, lat, ok)
	}
}

func (s *loadStats) point(clients int) CurvePoint {
	elapsed := s.lastDone
	if elapsed <= 0 {
		elapsed = time.Second
	}
	return CurvePoint{
		Clients:    clients,
		Throughput: des.Throughput(int(s.committed), elapsed),
		MeanLatMs:  float64(s.lat.Mean()) / float64(time.Millisecond),
		P99LatMs:   float64(s.lat.Percentile(99)) / float64(time.Millisecond),
		Aborts:     s.aborted,
	}
}

// client is one closed-loop client of a fleet: issue starts its next
// operation, handle consumes a message and reports whether it completed
// the outstanding operation (done) and whether that operation succeeded.
type client struct {
	issue  func() []msg.Directive
	handle func(m msg.Msg) (done, ok bool, outs []msg.Directive)
}

// closedLoop attaches n closed-loop clients (client0, client1, ...) to
// the cluster, each running quota operations back to back and recording
// every completion in stats.
func closedLoop(clu *des.Cluster, stats *loadStats, n, quota int, mk func(i int, loc msg.Loc) client) {
	sim := clu.Sim
	for i := 0; i < n; i++ {
		loc := msg.Loc(fmt.Sprintf("client%d", i))
		cl := mk(i, loc)
		remaining := quota
		var started time.Duration
		issue := func() []msg.Directive {
			outs := cl.issue()
			started = sim.Now()
			return outs
		}
		clu.AddCostedNode(loc, 1, func(env msg.Envelope) ([]msg.Directive, time.Duration) {
			done, ok, outs := cl.handle(env.M)
			if !done {
				return outs, 0
			}
			stats.record(i, sim.Now()-started, sim.Now(), ok)
			remaining--
			if remaining <= 0 {
				stats.finished++
				return outs, 0
			}
			return append(outs, issue()...), 0
		})
		sim.After(0, func() {
			for _, d := range issue() {
				clu.SendAfter(d.Delay, loc, d.Dest, d.M)
			}
		})
	}
}

// shadowClients attaches n closed-loop ShadowDB clients (PBR or SMR mode)
// to the cluster, each running txPerClient transactions from its
// workload. Aborted transactions count as completions but not commits.
func shadowClients(clu *des.Cluster, stats *loadStats, n, txPerClient int,
	mode core.ClientMode, replicas, bcast []msg.Loc, retry time.Duration, mkWork func(i int) Workload) {
	closedLoop(clu, stats, n, txPerClient, func(i int, loc msg.Loc) client {
		cli := &core.Client{
			Slf: loc, Mode: mode, Replicas: replicas, BcastNodes: bcast, Retry: retry,
		}
		work := mkWork(i)
		return client{
			issue: func() []msg.Directive { return cli.Submit(work()) },
			handle: func(m msg.Msg) (bool, bool, []msg.Directive) {
				res, outs := cli.Handle(m)
				return res != nil, res != nil && !res.Aborted && res.Err == "", outs
			},
		}
	})
}

// directClients attaches closed-loop clients that speak plain
// request/response to a fixed server (the baseline systems).
func directClients(clu *des.Cluster, stats *loadStats, n, txPerClient int,
	server msg.Loc, mkWork func(i int) Workload) {
	closedLoop(clu, stats, n, txPerClient, func(i int, loc msg.Loc) client {
		work := mkWork(i)
		seq := int64(0)
		return client{
			issue: func() []msg.Directive {
				typ, args := work()
				seq++
				return []msg.Directive{msg.Send(server, msg.M(core.HdrTx, core.TxRequest{
					Client: loc, Seq: seq, Type: typ, Args: args,
				}))}
			},
			handle: func(m msg.Msg) (bool, bool, []msg.Directive) {
				res, ok := m.Body.(core.TxResult)
				return ok, ok && !res.Aborted && res.Err == "", nil
			},
		}
	})
}

// bcastClients attaches closed-loop clients of the bare broadcast
// service: each broadcasts the paper's 140-byte payload through its home
// node and waits for the delivery notification carrying it. onDeliver,
// when set, sees every delivery a client receives (not only its own).
func bcastClients(clu *des.Cluster, stats *loadStats, nodes []msg.Loc, n, msgsPer int,
	onDeliver func(broadcast.Deliver)) {
	closedLoop(clu, stats, n, msgsPer, func(i int, loc msg.Loc) client {
		home := nodes[i%len(nodes)]
		seq := int64(0)
		return client{
			issue: func() []msg.Directive {
				seq++
				return []msg.Directive{msg.Send(home, msg.M(broadcast.HdrBcast, broadcast.Bcast{
					From: loc, Seq: seq, Payload: pad140(),
				}))}
			},
			handle: func(m msg.Msg) (bool, bool, []msg.Directive) {
				d, ok := m.Body.(broadcast.Deliver)
				if !ok {
					return false, false, nil
				}
				if onDeliver != nil {
					onDeliver(d)
				}
				// First notification wins; later copies carry older seqs.
				for _, b := range d.Msgs {
					if b.From == loc && b.Seq == seq {
						return true, true, nil
					}
				}
				return false, false, nil
			},
		}
	})
}

// runToFinish advances the simulation until every client completed its
// quota (or the safety bound trips); self-perpetuating timers like
// heartbeats and lease ticks would otherwise keep the event queue alive
// forever.
func runToFinish(sim *des.Sim, stats *loadStats, clients int) {
	for stats.finished < clients && !sim.Idle() && sim.Steps() < 80_000_000 {
		sim.Run(0, 100_000)
	}
}

// lanLink is the evaluation cluster's network: a gigabit switch.
func lanLink(msg.Loc, msg.Loc) des.LinkSpec {
	return des.LinkSpec{Latency: 100 * time.Microsecond, Bandwidth: 125_000_000} // 1 Gb/s
}

// wireSize approximates serialized message sizes for bandwidth modeling:
// a state-transfer part is its bytes, everything else 200.
func wireSize(m msg.Msg) int {
	if p, ok := m.Body.(core.SnapPart); ok {
		return 64 + len(p.Bytes)
	}
	return 200
}
