package deploy_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/flow"
	"shadowdb/internal/msg"
	"shadowdb/internal/shard"
)

func TestRoleOf(t *testing.T) {
	for id, want := range map[msg.Loc]deploy.Role{
		"b1": deploy.RoleBcast, "b10": deploy.RoleBcast,
		"r1": deploy.RoleReplica, "r23": deploy.RoleReplica,
		"s0b1": deploy.RoleShard, "s12r3": deploy.RoleShard,
		"rt1": deploy.RoleRouter,
		// Ids a first-letter rule files under b* or r*.
		"bench": deploy.RoleClient, "reader": deploy.RoleClient, "b": deploy.RoleClient,
		"r1x": deploy.RoleClient, "rt2": deploy.RoleClient, "cli": deploy.RoleClient, "": deploy.RoleClient,
	} {
		if got := deploy.RoleOf(id); got != want {
			t.Errorf("RoleOf(%q) = %q, want %q", id, got, want)
		}
	}
}

// Every setting a node cannot honour is a Validate error — before a
// socket or a store exists — and names what is wrong. One row per
// message.
func TestValidate(t *testing.T) {
	flat := writeTopology(t, "b1", "b2", "b3", "r1", "r2", "r3", "rt1", "bench")
	noBcast := writeTopology(t, "r1", "r2")
	sharded := writeTopology(t, "s0b1", "s0r1", "s1b1", "s1r1", "rt1", "cli")
	lopsided := writeTopology(t, "s0b1", "s0r1", "s1b1", "rt1")
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	node := func(id, role, topology string, set func(*deploy.Node)) deploy.Node {
		n := deploy.Default()
		n.ID, n.Role, n.Topology = id, role, topology
		if set != nil {
			set(&n)
		}
		return n
	}
	for _, tc := range []struct {
		name string
		n    deploy.Node
		want string // substring of the error; "" = valid
	}{
		{"smr replica", node("r1", "smr", flat, nil), ""},
		{"leased smr replica", node("r1", "smr", flat, func(n *deploy.Node) { n.Lease = true }), ""},
		{"joining acceptor", node("b3", "broadcast", flat, func(n *deploy.Node) { n.Joiner = true }), ""},
		{"twothird service node", node("b1", "broadcast", flat, func(n *deploy.Node) { n.Module = "twothird" }), ""},
		{"shard member", node("s1r1", "shard", sharded, nil), ""},
		{"router", node("rt1", "router", sharded, nil), ""},

		{"no id", node("", "smr", flat, nil), "missing -id"},
		{"no topology", node("r1", "smr", "", nil), "missing -topology"},
		{"unreadable topology", node("r1", "smr", file, nil), "topology"},
		{"unknown role", node("r1", "primary", flat, nil), `unknown -role "primary"`},
		{"id of another role", node("b1", "smr", flat, nil), "-role smr requires an id of the form r<n>"},
		{"router id on a replica role", node("rt1", "pbr", flat, nil), "-role pbr requires an id of the form r<n>"},
		{"shard role, flat id", node("r1", "shard", sharded, nil), "-role shard requires an id of the form s<k>b<i>"},
		{"id not listed", node("r9", "smr", flat, nil), `id "r9" not in topology`},
		{"unknown engine", node("r1", "smr", flat, func(n *deploy.Node) { n.Engine = "oracle" }), `unknown -engine "oracle"`},
		{"unknown registry", node("r1", "smr", flat, func(n *deploy.Node) { n.Registry = "ycsb" }), `unknown -registry "ycsb"`},
		{"unknown module", node("b1", "broadcast", flat, func(n *deploy.Node) { n.Module = "raft" }), `unknown -module "raft"`},
		{"unknown log level", node("r1", "smr", flat, func(n *deploy.Node) { n.LogLevel = "loud" }), "loud"},
		{"unknown fsync policy", node("r1", "smr", flat, func(n *deploy.Node) { n.Fsync = "often" }), "unknown fsync policy"},
		{"twothird off the broadcast role", node("r1", "smr", flat, func(n *deploy.Node) { n.Module = "twothird" }), "-module twothird applies to -role broadcast only"},
		{"joiner on pbr", node("r1", "pbr", flat, func(n *deploy.Node) { n.Joiner = true }), "-joiner applies to -role broadcast|smr only"},
		{"joiner on shard", node("s0b1", "shard", sharded, func(n *deploy.Node) { n.Joiner = true }), "-joiner applies to -role broadcast|smr only"},
		{"joiner on router", node("rt1", "router", sharded, func(n *deploy.Node) { n.Joiner = true }), "-joiner applies to -role broadcast|smr only"},
		{"joiner under twothird", node("b1", "broadcast", flat, func(n *deploy.Node) { n.Joiner, n.Module = true, "twothird" }), "-joiner needs -module paxos"},
		{"lease off the smr role", node("r1", "pbr", flat, func(n *deploy.Node) { n.Lease = true }), "-lease applies to -role smr only"},
		{"lease with tpcc", node("r1", "smr", flat, func(n *deploy.Node) { n.Lease, n.Registry = true, "tpcc" }), "-lease serves the bank read registry only"},
		{"lease without broadcast nodes", node("r1", "smr", noBcast, func(n *deploy.Node) { n.Lease = true }), "-lease requires broadcast nodes"},
		{"shard with tpcc", node("s0r1", "shard", sharded, func(n *deploy.Node) { n.Registry = "tpcc" }), "sharded deployment supports the bank registry only"},
		{"router with tpcc", node("rt1", "router", sharded, func(n *deploy.Node) { n.Registry = "tpcc" }), "sharded deployment supports the bank registry only"},
		{"lopsided shards", node("s0b1", "shard", lopsided, nil), "shard 1 has no replicas"},
		{"alpha inside the pipeline window", node("b1", "broadcast", flat, func(n *deploy.Node) { n.Pipeline = 8 }), "-alpha 16 must exceed twice the -pipeline window 8"},
		{"data dir under a file", node("r1", "smr", flat, func(n *deploy.Node) { n.DataDir = filepath.Join(file, "r1") }), "not a directory"},
	} {
		err := tc.n.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: valid settings refused: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error containing %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
		if cl, err := tc.n.Load(); tc.want != "" && err == nil {
			if _, _, err := tc.n.Process(cl, nil, nil); err == nil {
				t.Errorf("%s: Process built a node Validate refuses", tc.name)
			}
		}
	}
}

// A bundle's deployment record is every flag, under the flag's name.
func TestSettings(t *testing.T) {
	n := deploy.Default()
	n.ID, n.Lease, n.MaxInflight = "r4", true, 64
	got := n.Settings()
	for k, want := range map[string]string{
		"id": "r4", "lease": "true", "max-inflight": "64", "lease-dur": "2s", "alpha": "16", "module": "paxos", "check": "false",
	} {
		if got[k] != want {
			t.Errorf("Settings()[%q] = %q, want %q", k, got[k], want)
		}
	}
}

// Under -max-inflight a service node sheds by its role's payload classes.
// Three writes fill the write band of flow.NewQueue(1) (4 slots, writes
// below 3); the fourth payload is shed or admitted by its class. A shard's
// b member admits a 2PC decision as control traffic, so overload never
// sheds the record that releases held funds.
func TestServiceShedsByRoleClass(t *testing.T) {
	flat := writeTopology(t, "b1", "r1")
	sharded := writeTopology(t, "s0b1", "s0r1", "rt1")
	tx, err := core.EncodeTx(core.TxRequest{Client: "c1", Seq: 9, Type: "deposit", Args: []any{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	prepare := shard.EncodePrepare(shard.Prepare{TxID: "c1/9", Coord: "rt1", Shard: 0, Participants: []int{0}})
	decision := shard.EncodeDecision(shard.Decision{TxID: "c1/9", Shard: 0, Coord: "rt1", Commit: true})
	renewal := core.EncodeLease(core.LeaseRenewal{Holder: "r1"})
	for _, tc := range []struct {
		role        string
		maxInflight int
		what        string
		payload     []byte
		shed        bool
	}{
		{"broadcast", 1, "a write", tx, true},
		{"broadcast", 1, "a lease renewal", renewal, false},
		{"shard", 1, "a 2PC prepare", prepare, true},
		{"shard", 1, "a 2PC decision", decision, false},
		{"shard", 0, "a 2PC prepare", prepare, false},
	} {
		n := deploy.Default()
		n.ID, n.Role, n.Topology, n.MaxInflight = "b1", tc.role, flat, tc.maxInflight
		if tc.role == "shard" {
			n.ID, n.Topology = "s0b1", sharded
		}
		p := build(t, n).proc
		var outs []msg.Directive
		for seq, payload := range [][]byte{tx, tx, tx, tc.payload} {
			p, outs = p.Step(msg.M(broadcast.HdrBcast, broadcast.Bcast{From: "c1", Seq: int64(seq + 1), Payload: payload}))
		}
		shed := slices.ContainsFunc(outs, func(o msg.Directive) bool { return o.M.Hdr == flow.HdrReject })
		if shed != tc.shed {
			t.Errorf("-role %s -max-inflight %d, %s: shed = %v, want %v (outputs %v)", tc.role, tc.maxInflight, tc.what, shed, tc.shed, outs)
		}
	}
}
