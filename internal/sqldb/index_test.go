package sqldb

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// checkNode verifies the B-tree invariants under n and returns the
// subtree's depth: entries sorted and within [lo, hi), node sizes within
// bounds, every leaf at the same depth.
func checkNode(t *testing.T, n *node, root bool, lo, hi []byte) int {
	t.Helper()
	if len(n.entries) > maxEntries || (!root && len(n.entries) < minEntries) || len(n.entries) == 0 {
		t.Fatalf("node holds %d entries (root=%v), want %d..%d", len(n.entries), root, minEntries, maxEntries)
	}
	for i, e := range n.entries {
		if (lo != nil && bytes.Compare(e.key, lo) <= 0) || (hi != nil && bytes.Compare(e.key, hi) >= 0) {
			t.Fatalf("key %x outside its subtree's range (%x, %x)", e.key, lo, hi)
		}
		if i > 0 && bytes.Compare(n.entries[i-1].key, e.key) >= 0 {
			t.Fatalf("entries out of order: %x then %x", n.entries[i-1].key, e.key)
		}
	}
	if n.children == nil {
		return 1
	}
	if len(n.children) != len(n.entries)+1 {
		t.Fatalf("interior node has %d entries and %d children", len(n.entries), len(n.children))
	}
	depth := 0
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.entries[i-1].key
		}
		if i < len(n.entries) {
			chi = n.entries[i].key
		}
		d := checkNode(t, c, false, clo, chi)
		if depth != 0 && d != depth {
			t.Fatalf("leaves at depths %d and %d", depth, d)
		}
		depth = d
	}
	return depth + 1
}

// The tree against a map and a sort, through growth to three or more
// levels and back down to empty: every put, overwrite, delete, lookup and
// range walk agrees, and the structure stays a B-tree throughout.
func TestIndexStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ix index
	ref := map[string]int64{}
	// Keys mix the nine-byte single-INT shape (the call-free comparison
	// path), 18-byte composites and variable-length text.
	randKey := func(space int) []byte {
		n := int64(rng.Intn(space))
		switch n % 3 {
		case 0:
			return appendIntKey(nil, n-int64(space/2))
		case 1:
			return appendIntKey(appendIntKey(nil, n%7), n)
		}
		return appendKeyPart(nil, string(rune('a'+n%5))+string(make([]byte, n%4))+"k")
	}
	check := func() {
		t.Helper()
		if ix.n != len(ref) {
			t.Fatalf("index counts %d entries, reference has %d", ix.n, len(ref))
		}
		if ix.root != nil {
			checkNode(t, ix.root, true, nil, nil)
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		from := randKey(1 << 14)
		at := sort.SearchStrings(keys, string(from))
		ix.ascend(from, func(e entry) bool {
			if at >= len(keys) || string(e.key) != keys[at] || e.row[0] != ref[keys[at]] {
				t.Fatalf("walk from %x: got %x at position %d", from, e.key, at)
			}
			at++
			return true
		})
		if at != len(keys) {
			t.Fatalf("walk from %x stopped after %d of %d keys", from, at, len(keys))
		}
		// descend(before) is the reversed ascend below before; nil is
		// the whole tree.
		for _, before := range [][]byte{randKey(1 << 14), nil} {
			at := len(keys)
			if before != nil {
				at = sort.SearchStrings(keys, string(before))
			}
			ix.descend(before, func(e entry) bool {
				at--
				if at < 0 || string(e.key) != keys[at] || e.row[0] != ref[keys[at]] {
					t.Fatalf("walk down from %x: got %x at position %d", before, e.key, at)
				}
				return true
			})
			if at != 0 {
				t.Fatalf("walk down from %x stopped with %d keys below", before, at)
			}
		}
	}
	step := func(space int, delPct int) {
		key := randKey(space)
		if rng.Intn(100) < delPct {
			row, ok := ix.delete(key)
			want, had := ref[string(key)]
			if ok != had || (ok && row[0] != want) {
				t.Fatalf("delete %x: got %v %v, reference %v %v", key, row, ok, want, had)
			}
			delete(ref, string(key))
			return
		}
		v, overwrite := rng.Int63(), rng.Intn(2) == 0
		_, existed := ix.put(key, []Value{v}, overwrite)
		if _, had := ref[string(key)]; existed != had {
			t.Fatalf("put %x: existed=%v, reference had=%v", key, existed, had)
		}
		if !existed || overwrite {
			ref[string(key)] = v
		}
		if e, ok := ix.get(key); !ok || e.row[0] != ref[string(key)] {
			t.Fatalf("get %x after put: %v %v, want %v", key, e.row, ok, ref[string(key)])
		}
	}
	for i := 0; i < 60_000; i++ { // grow
		step(1<<14, 10)
		if i%5000 == 0 {
			check()
		}
	}
	check()
	if d := checkNode(t, ix.root, true, nil, nil); d < 3 {
		t.Fatalf("tree of %d entries is %d levels deep; the test wants interior deletes", ix.n, d)
	}
	for i := 0; i < 20_000; i++ { // churn at a smaller size
		step(1<<14, 60)
	}
	check()
	i := 0
	for k, want := range ref { // shrink to empty, in map (random) order
		if row, ok := ix.delete([]byte(k)); !ok || row[0] != want {
			t.Fatalf("delete %x: got %v %v, want %v", k, row, ok, want)
		}
		delete(ref, k)
		if i++; i%1000 == 0 {
			check()
		}
	}
	check()
	if ix.root != nil {
		t.Error("empty index keeps a root")
	}
}
