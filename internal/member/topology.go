package member

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"shadowdb/internal/msg"
)

// Topology is the epoch-stamped cluster file every server and the
// client read: a node id -> address directory plus the epoch it was
// written at, so an operator (and the join/leave verbs) can tell which
// generation of the cluster a file describes. Roles follow the ids
// (internal/deploy.RoleOf: b<n> broadcast, r<n> replica, s<k>b<i> /
// s<k>r<i> / rt1 for the sharded roles, anything else a client).
type Topology struct {
	Epoch int               `json:"epoch"`
	Nodes map[string]string `json:"nodes"`
}

// LoadTopology reads and validates an epoch-stamped topology file.
func LoadTopology(path string) (Topology, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, err
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var t Topology
	if err := dec.Decode(&t); err != nil {
		return Topology{}, fmt.Errorf("topology %s: %w", path, err)
	}
	if dec.More() {
		return Topology{}, fmt.Errorf("topology %s: trailing data after document", path)
	}
	if t.Epoch < 0 {
		return Topology{}, fmt.Errorf("topology %s: negative epoch %d", path, t.Epoch)
	}
	if len(t.Nodes) == 0 {
		return Topology{}, fmt.Errorf("topology %s: no nodes", path)
	}
	for id, addr := range t.Nodes {
		if id == "" || addr == "" {
			return Topology{}, fmt.Errorf("topology %s: empty id or address (%q=%q)", path, id, addr)
		}
	}
	return t, nil
}

// Save writes the topology atomically (tmp + rename), pretty-printed
// with sorted keys so diffs across epochs read cleanly.
func (t Topology) Save(path string) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// Restamp folds a membership change into the topology file at path:
// when epoch(the file's epoch) is newer than the file's, the file is
// rewritten at that epoch, with node's address set when addr is given
// (a joining node; a removed node keeps its entry — it may still be
// dialed to drain, and a later re-add reuses it). It returns the epoch
// the file carries afterwards and whether it was rewritten. The join and
// leave verbs stamp the next epoch before the order has assigned one;
// every running node stamps the epoch it derived, which a co-located
// component or the verb may already have written.
func Restamp(path, node, addr string, epoch func(current int) int) (int, bool, error) {
	t, err := LoadTopology(path)
	if err != nil {
		return 0, false, err
	}
	e := epoch(t.Epoch)
	if e <= t.Epoch {
		return t.Epoch, false, nil
	}
	t.Epoch = e
	if addr != "" {
		t.Nodes[node] = addr
	}
	return e, true, t.Save(path)
}

// Directory renders the node map in the form the transports take.
func (t Topology) Directory() map[msg.Loc]string {
	dir := make(map[msg.Loc]string, len(t.Nodes))
	for id, addr := range t.Nodes {
		dir[msg.Loc(id)] = addr
	}
	return dir
}

// IDs returns the node ids sorted, for stable role splitting.
func (t Topology) IDs() []string {
	ids := make([]string, 0, len(t.Nodes))
	for id := range t.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
