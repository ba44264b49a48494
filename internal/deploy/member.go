package deploy

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/runtime"
)

// The /member/* admin endpoints of a node under dynamic membership. A
// change is never applied locally — the endpoint wraps it as a
// broadcast payload and submits it to the sequencer, so it lands in the
// total order and every node derives the same epoch from the same slot.
// The join/leave/status verbs of cmd/shadowdb are their clients.

// Proposal is the body of POST /member/propose.
type Proposal struct {
	Op   string `json:"op"`
	Node string `json:"node"`
	Addr string `json:"addr,omitempty"`
}

// Schedule is the body GET /member/status answers with: the epoch
// schedule the node has derived.
type Schedule struct {
	Alpha   int             `json:"alpha"`
	Current string          `json:"current"`
	Epochs  []member.Config `json:"epochs"`
}

// opRole is the kind of id each membership op takes.
var opRole = map[member.Op]Role{
	member.AddReplica: RoleReplica, member.RemoveReplica: RoleReplica,
	member.AddAcceptor: RoleBcast, member.RemoveAcceptor: RoleBcast,
}

// proposeHandler accepts a Proposal and submits the command to the
// broadcast sequencer of the newest epoch.
func proposeHandler(host *runtime.Host, view *member.View) http.Handler {
	// seq numbers this process's proposals; combined with the
	// process-unique From location it keys sequencer dedup.
	var seq atomic.Int64
	seq.Store(time.Now().UnixNano())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var b Proposal
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&b); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cmd := member.Command{Op: member.Op(b.Op), Node: msg.Loc(b.Node), Addr: b.Addr}
		// A command must name a node of the kind its op changes: a
		// malformed one is the caller's error, not a payload the cluster
		// silently drops or applies to a member nobody meant.
		if want, ok := opRole[cmd.Op]; !ok || RoleOf(cmd.Node) != want {
			http.Error(w, fmt.Sprintf("bad command op=%q node=%q", b.Op, b.Node), http.StatusBadRequest)
			return
		}
		to := view.Current().Bcast[0]
		host.Emit([]msg.Directive{msg.Send(to, msg.M(broadcast.HdrBcast, broadcast.Bcast{
			From:    "admin:" + host.Self(),
			Seq:     seq.Add(1),
			Payload: member.EncodeCommand(cmd),
		}))})
		lg.Infof("membership proposal submitted to %s: %s %s", to, cmd.Op, cmd.Node)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "proposed %s %s via %s\n", cmd.Op, cmd.Node, to)
	})
}

// statusHandler reports the derived epoch schedule.
func statusHandler(view *member.View) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(Schedule{
			Alpha: view.Alpha(), Current: view.Current().Fingerprint(), Epochs: view.Epochs(),
		})
	})
}

// onApply is a node's reaction to an applied membership command. The
// route travels with the ordered command, so every node learns a joiner's
// address exactly when it learns the member; then the command is folded
// into the local topology file. That is best-effort: the file is operator
// bookkeeping (the order is the authority), so a write failure is logged.
func onApply(tcp *network.TCP, topology string) func(member.Command, member.Config) {
	return func(cmd member.Command, cfg member.Config) {
		addr := ""
		if cmd.Op == member.AddReplica || cmd.Op == member.AddAcceptor {
			addr = cmd.Addr
		}
		if addr != "" {
			tcp.SetPeer(cmd.Node, addr)
		}
		lg.Infof("membership epoch %d: %s %s (%s)", cfg.Epoch, cmd.Op, cmd.Node, cfg.Fingerprint())
		epoch, rewritten, err := member.Restamp(topology, string(cmd.Node), addr, func(int) int { return cfg.Epoch })
		if err != nil {
			lg.Warnf("topology re-stamp: %v", err)
		} else if rewritten {
			lg.Infof("topology %s re-stamped at epoch %d", topology, epoch)
		}
	}
}
