// Command shadowdb runs one node of a ShadowDB deployment over TCP: a
// PBR/SMR database replica, a total-order-broadcast service node, a
// sharded-deployment member, or the shard router. It also carries the
// membership admin verbs (join, leave, status) that drive a running
// cluster through ordered configuration epochs.
//
// The cluster is described by an epoch-stamped topology file — JSON
// {"epoch": N, "nodes": {"id": "host:port", ...}} — that servers and
// shadowdb-client both read; roles follow the ids (b<n> broadcast
// nodes, r<n> replicas, anything else a client entry). Example
// three-machine SMR deployment plus broadcast service (each command on
// its own machine or terminal):
//
//	shadowdb -id b1 -role broadcast -topology cluster.json
//	shadowdb -id b2 -role broadcast -topology cluster.json
//	shadowdb -id b3 -role broadcast -topology cluster.json
//	shadowdb -id r1 -role smr -engine h2     -topology cluster.json -data-dir /var/sdb/r1
//	shadowdb -id r2 -role smr -engine hsqldb -topology cluster.json -data-dir /var/sdb/r2
//	shadowdb -id r3 -role smr -engine derby  -topology cluster.json -data-dir /var/sdb/r3
//
// Use -registry tpcc for the TPC-C procedures instead of the bank ones,
// and -role broadcast -module twothird to order with TwoThird consensus
// instead of Paxos (static membership: no -joiner, no /member routes).
//
// Membership changes are ordered through the broadcast like any
// transaction. To grow the cluster, start the new node with -joiner
// (it parks deliveries until the ordered add command admits it and a
// bootstrap snapshot arrives), then propose the change through any
// running node's admin endpoint:
//
//	shadowdb -id r4 -role smr -topology cluster.json -joiner -data-dir /var/sdb/r4
//	shadowdb join  -node r4 -addr host4:7001 -admin-url http://host1:7070 -topology cluster.json
//	shadowdb leave -node r2                  -admin-url http://host1:7070 -topology cluster.json
//	shadowdb status -admin-url http://host1:7070
//
// join/leave re-stamp the local topology file with the next epoch, and
// every running node re-stamps its own copy when the ordered command
// reaches it — a restart then boots from the newest epoch it saw.
//
// A sharded deployment (bank registry; README "Sharded deployment") runs
// -role shard on its s<k>b<i> / s<k>r<i> members and -role router on rt1.
//
// Every setting, its validation and every per-role construction live in
// internal/deploy; this package is flags in, deploy.Serve out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"shadowdb/internal/deploy"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
)

func main() {
	// The membership admin verbs run as subcommands; everything else is
	// the server path.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "join", "leave":
			os.Exit(runChangeVerb(os.Args[1], os.Args[2:]))
		case "status":
			os.Exit(runStatusVerb(os.Args[2:]))
		}
	}
	n := deploy.Default()
	n.RegisterFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(deploy.Serve(n))
}

// The verbs below are clients of the /member/* admin endpoints that
// internal/deploy mounts on every node under dynamic membership. opFor
// maps a node id to its add/remove operation by the id's role.
func opFor(node string, joining bool) (member.Op, error) {
	switch role := deploy.RoleOf(msg.Loc(node)); {
	case role == deploy.RoleBcast && joining:
		return member.AddAcceptor, nil
	case role == deploy.RoleBcast:
		return member.RemoveAcceptor, nil
	case role == deploy.RoleReplica && joining:
		return member.AddReplica, nil
	case role == deploy.RoleReplica:
		return member.RemoveReplica, nil
	}
	return "", fmt.Errorf("node %q is neither a broadcast node (b<n>) nor a replica (r<n>)", node)
}

// runChangeVerb implements `shadowdb join|leave`: propose the change
// through a running node's admin endpoint, then re-stamp the local
// topology file so the next node started from it sees the new member
// list.
func runChangeVerb(verb string, args []string) int {
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	node := fs.String("node", "", "node id to add/remove (b<n> = acceptor, r<n> = replica)")
	addr := fs.String("addr", "", "joining node's host:port (join only)")
	adminURL := fs.String("admin-url", "", "admin endpoint of any running member, e.g. http://host1:7070")
	topology := fs.String("topology", "", "topology file to re-stamp with the proposed change (optional)")
	_ = fs.Parse(args)
	if *node == "" || *adminURL == "" {
		fmt.Fprintf(os.Stderr, "%s: -node and -admin-url are required\n", verb)
		return 2
	}
	joining := verb == "join"
	if joining && *addr == "" {
		fmt.Fprintln(os.Stderr, "join: -addr is required (peers learn the route from the ordered command)")
		return 2
	}
	if !joining {
		*addr = "" // a route travels with an add command only
	}
	op, err := opFor(*node, joining)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	body, _ := json.Marshal(deploy.Proposal{Op: string(op), Node: *node, Addr: *addr})
	resp, err := http.Post(strings.TrimRight(*adminURL, "/")+"/member/propose", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() { _ = resp.Body.Close() }()
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusAccepted {
		fmt.Fprintf(os.Stderr, "%s: %s: %s", verb, resp.Status, out)
		return 1
	}
	fmt.Print(string(out))
	if *topology != "" {
		// The order has not assigned the epoch yet; the next one is it.
		epoch, _, err := member.Restamp(*topology, *node, *addr, func(e int) int { return e + 1 })
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("topology %s stamped at epoch %d\n", *topology, epoch)
	}
	return 0
}

// runStatusVerb implements `shadowdb status`: print the epoch schedule
// a running node has derived.
func runStatusVerb(args []string) int {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	adminURL := fs.String("admin-url", "", "admin endpoint of any running member, e.g. http://host1:7070")
	_ = fs.Parse(args)
	if *adminURL == "" {
		fmt.Fprintln(os.Stderr, "status: -admin-url is required")
		return 2
	}
	resp, err := http.Get(strings.TrimRight(*adminURL, "/") + "/member/status")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		fmt.Fprintf(os.Stderr, "status: %s: %s", resp.Status, out)
		return 1
	}
	var st deploy.Schedule
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("current: %s (alpha %d)\n", st.Current, st.Alpha)
	for _, e := range st.Epochs {
		fmt.Printf("  epoch %d: bcast %v, replicas %v (quorums from instance %d, fan-out from slot %d)\n",
			e.Epoch, e.Bcast, e.Replicas, e.ActivateAt, e.ReplicasFrom)
	}
	return 0
}
