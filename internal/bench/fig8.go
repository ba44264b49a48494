package bench

import (
	"fmt"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/msg"
)

// Fig. 8: "The performance of the broadcast service with Paxos." Clients
// broadcast 140-byte messages and wait for their delivery notification;
// the three curves are the interpreted, interpreted-optimized, and
// compiled (Lisp) services. We report mean delivery latency against
// delivered messages per second for 1..43 clients.

// Fig8Result maps each execution mode to its curve.
type Fig8Result struct {
	Costs  BcastCosts
	Curves map[broadcast.Mode][]CurvePoint
}

// Fig8Config scales the experiment.
type Fig8Config struct {
	Clients []int
	MsgsPer int
}

// DefaultFig8 is the paper's sweep (1 to 43 clients).
func DefaultFig8() Fig8Config {
	return Fig8Config{Clients: []int{1, 2, 4, 8, 16, 24, 32, 43}, MsgsPer: 200}
}

// QuickFig8 keeps tests fast.
func QuickFig8() Fig8Config {
	return Fig8Config{Clients: []int{1, 4, 16}, MsgsPer: 40}
}

// Fig8 runs the experiment.
func Fig8(cfg Fig8Config) Fig8Result {
	res := Fig8Result{Costs: Calibrate(), Curves: make(map[broadcast.Mode][]CurvePoint)}
	for _, mode := range []broadcast.Mode{broadcast.Interpreted, broadcast.InterpretedOpt, broadcast.Compiled} {
		for _, n := range cfg.Clients {
			stats := bcastRun(mode, broadcast.Config{}, n, cfg.MsgsPer, nil, nil)
			res.Curves[mode] = append(res.Curves[mode], stats.point(n))
		}
	}
	return res
}

// bcastRun measures one closed-loop load on the bare 3-node broadcast
// service (clients subscribe to the delivery stream) at the given
// execution-mode cost and hot-path knobs. With a run the cluster is
// attached to its checker first; onDeliver sees every client delivery.
func bcastRun(mode broadcast.Mode, tune broadcast.Config, clients, msgsPer int,
	run *Run, onDeliver func(broadcast.Deliver)) *loadStats {
	c := newDES()
	tune.Nodes = []msg.Loc{"b1", "b2", "b3"}
	for i := 0; i < clients; i++ {
		tune.Subscribers = append(tune.Subscribers, msg.Loc(fmt.Sprintf("client%d", i)))
	}
	c.addBroadcast(tune, mode)
	if run != nil {
		run.Attach(c)
	}
	stats := &loadStats{}
	bcastClients(c.clu, stats, tune.Nodes, clients, msgsPer, onDeliver)
	runToFinish(c.sim, stats, clients)
	return stats
}
