package sqldb

import (
	"bytes"
	"encoding/binary"
)

// The ordered primary-key index: an in-memory B-tree from encoded PK
// (key.go) to row. It is the only place a table's rows live, so one
// structure serves point lookups, PK-range walks in either direction,
// PK-ordered snapshots and the undo log, and every insert or delete
// costs O(log n) — nothing is re-sorted or invalidated. It is not safe
// for concurrent use; DB.mu serializes every access.

// degree is the B-tree's minimum degree: every node but the root holds
// between degree-1 and 2*degree-1 entries. 32 keeps a node's entries
// within a few cache lines of binary search while the tree over a
// million rows stays four levels deep.
const (
	degree     = 32
	maxEntries = 2*degree - 1
	minEntries = degree - 1
)

// entry is one indexed row. The row slice is shared with the table:
// updates mutate it in place.
type entry struct {
	key []byte
	row []Value
}

type node struct {
	entries  []entry
	children []*node // nil in a leaf, len(entries)+1 otherwise
}

// index is the tree plus its entry count.
type index struct {
	root *node
	n    int
}

// find returns the position of the first entry with a key >= key, and
// whether that entry's key equals it.
//
// Keys of single-number primary keys (nine bytes) take a call-free
// comparison: equal-length keys of 8..16 bytes are ordered by their
// first eight bytes and, when those tie, by their last eight, which
// overlap only bytes already known equal.
func (n *node) find(key []byte) (int, bool) {
	var k0, k1 uint64
	short := len(key) >= 8 && len(key) <= 16
	if short {
		k0, k1 = binary.BigEndian.Uint64(key), binary.BigEndian.Uint64(key[len(key)-8:])
	}
	lo, hi := 0, len(n.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		ek := n.entries[m].key
		var c int
		if short && len(ek) == len(key) {
			e, k := binary.BigEndian.Uint64(ek), k0
			if e == k {
				e, k = binary.BigEndian.Uint64(ek[len(ek)-8:]), k1
			}
			if e < k {
				c = -1
			} else if e > k {
				c = 1
			}
		} else {
			c = bytes.Compare(ek, key)
		}
		switch {
		case c < 0:
			lo = m + 1
		case c > 0:
			hi = m
		default:
			return m, true
		}
	}
	return lo, false
}

// get returns the entry stored under key.
func (ix *index) get(key []byte) (entry, bool) {
	for n := ix.root; n != nil; {
		i, found := n.find(key)
		if found {
			return n.entries[i], true
		}
		if n.children == nil {
			break
		}
		n = n.children[i]
	}
	return entry{}, false
}

// put stores row under key. An existing entry is replaced only when
// overwrite is set. It returns the stored key (the tree's own copy, so
// callers can retain it) and whether the key was already present.
func (ix *index) put(key []byte, row []Value, overwrite bool) (stored []byte, existed bool) {
	if ix.root == nil {
		ix.root = &node{entries: make([]entry, 0, maxEntries)}
	}
	if len(ix.root.entries) >= maxEntries {
		mid, right := ix.root.split()
		ix.root = &node{
			entries:  append(make([]entry, 0, maxEntries), mid),
			children: append(make([]*node, 0, maxEntries+1), ix.root, right),
		}
	}
	stored, existed = ix.root.put(key, row, overwrite)
	if !existed {
		ix.n++
	}
	return stored, existed
}

// split cuts a full node in half, returning the median entry and the
// new right sibling.
func (n *node) split() (entry, *node) {
	mid := n.entries[degree-1]
	right := &node{entries: append(make([]entry, 0, maxEntries), n.entries[degree:]...)}
	clear(n.entries[degree-1:])
	n.entries = n.entries[:degree-1]
	if n.children != nil {
		right.children = append(make([]*node, 0, maxEntries+1), n.children[degree:]...)
		clear(n.children[degree:])
		n.children = n.children[:degree]
	}
	return mid, right
}

// put inserts into the subtree under n, which is not full.
func (n *node) put(key []byte, row []Value, overwrite bool) ([]byte, bool) {
	for {
		i, found := n.find(key)
		if found {
			if overwrite {
				n.entries[i].row = row
			}
			return n.entries[i].key, true
		}
		if n.children == nil {
			e := entry{key: append([]byte(nil), key...), row: row}
			n.entries = append(n.entries, entry{})
			copy(n.entries[i+1:], n.entries[i:])
			n.entries[i] = e
			return e.key, false
		}
		if child := n.children[i]; len(child.entries) >= maxEntries {
			mid, right := child.split()
			n.entries = append(n.entries, entry{})
			copy(n.entries[i+1:], n.entries[i:])
			n.entries[i] = mid
			n.children = append(n.children, nil)
			copy(n.children[i+2:], n.children[i+1:])
			n.children[i+1] = right
			continue // re-find: the median moved up into this node
		}
		n = n.children[i]
	}
}

// delete removes key, returning the row it held.
func (ix *index) delete(key []byte) ([]Value, bool) {
	if ix.root == nil {
		return nil, false
	}
	e, ok := ix.root.remove(key, removeKey)
	if len(ix.root.entries) == 0 {
		if ix.root.children == nil {
			ix.root = nil
		} else {
			ix.root = ix.root.children[0]
		}
	}
	if ok {
		ix.n--
	}
	return e.row, ok
}

// removeWhat selects what node.remove takes out of a subtree.
type removeWhat int

const (
	removeKey removeWhat = iota // the entry with the given key
	removeMax                   // the subtree's last entry
)

// remove takes an entry out of the subtree under n. Unless n is the
// root it holds more than minEntries on entry, so losing one cannot
// underflow it; before descending, a child at the minimum is refilled
// from a sibling or merged with one.
func (n *node) remove(key []byte, what removeWhat) (entry, bool) {
	i, found := len(n.entries), false
	if what == removeKey {
		i, found = n.find(key)
	}
	if n.children == nil {
		switch {
		case what == removeMax:
			return n.removeAt(len(n.entries) - 1), true
		case found:
			return n.removeAt(i), true
		}
		return entry{}, false
	}
	if len(n.children[i].entries) <= minEntries {
		n.refill(i)
		return n.remove(key, what) // positions shifted: search again
	}
	if found {
		// The entry sits in this interior node: its in-order predecessor,
		// the maximum of the left subtree, takes its place.
		out := n.entries[i]
		n.entries[i], _ = n.children[i].remove(nil, removeMax)
		return out, true
	}
	return n.children[i].remove(key, what)
}

func (n *node) removeAt(i int) entry {
	e := n.entries[i]
	copy(n.entries[i:], n.entries[i+1:])
	n.entries[len(n.entries)-1] = entry{}
	n.entries = n.entries[:len(n.entries)-1]
	return e
}

// refill brings child i above the minimum: rotate an entry in from a
// sibling that can spare one, or merge the child with a sibling around
// their separator.
func (n *node) refill(i int) {
	switch {
	case i > 0 && len(n.children[i-1].entries) > minEntries:
		child, left := n.children[i], n.children[i-1]
		child.entries = append(child.entries, entry{})
		copy(child.entries[1:], child.entries)
		child.entries[0] = n.entries[i-1]
		n.entries[i-1] = left.removeAt(len(left.entries) - 1)
		if left.children != nil {
			last := len(left.children) - 1
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[last]
			left.children[last] = nil
			left.children = left.children[:last]
		}
	case i < len(n.entries) && len(n.children[i+1].entries) > minEntries:
		child, right := n.children[i], n.children[i+1]
		child.entries = append(child.entries, n.entries[i])
		n.entries[i] = right.removeAt(0)
		if right.children != nil {
			child.children = append(child.children, right.children[0])
			copy(right.children, right.children[1:])
			right.children[len(right.children)-1] = nil
			right.children = right.children[:len(right.children)-1]
		}
	default:
		if i == len(n.entries) {
			i-- // the last child merges into its left sibling
		}
		child, right := n.children[i], n.children[i+1]
		child.entries = append(append(child.entries, n.removeAt(i)), right.entries...)
		child.children = append(child.children, right.children...)
		copy(n.children[i+1:], n.children[i+2:])
		n.children[len(n.children)-1] = nil
		n.children = n.children[:len(n.children)-1]
	}
}

// ascend calls fn for every entry with a key >= from (every entry when
// from is nil) in key order, until fn returns false.
func (ix *index) ascend(from []byte, fn func(entry) bool) {
	if ix.root != nil {
		ix.root.ascend(from, fn)
	}
}

func (n *node) ascend(from []byte, fn func(entry) bool) bool {
	i := 0
	if from != nil {
		i, _ = n.find(from)
	}
	for ; i < len(n.entries); i++ {
		// Only the first child visited can hold keys below from.
		if n.children != nil && !n.children[i].ascend(from, fn) {
			return false
		}
		from = nil
		if !fn(n.entries[i]) {
			return false
		}
	}
	return n.children == nil || n.children[i].ascend(from, fn)
}

// descend calls fn for every entry with a key < before (every entry
// when before is nil) in descending key order, until fn returns false.
func (ix *index) descend(before []byte, fn func(entry) bool) {
	if ix.root != nil {
		ix.root.descend(before, fn)
	}
}

func (n *node) descend(before []byte, fn func(entry) bool) bool {
	i := len(n.entries)
	if before != nil {
		i, _ = n.find(before)
	}
	// Only the first child visited can hold keys at or above before.
	if n.children != nil && !n.children[i].descend(before, fn) {
		return false
	}
	for i--; i >= 0; i-- {
		if !fn(n.entries[i]) {
			return false
		}
		if n.children != nil && !n.children[i].descend(nil, fn) {
			return false
		}
	}
	return true
}
