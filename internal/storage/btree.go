// Package storage implements the MVCC storage engine at the bottom of the
// TROD stack: versioned tables ordered by encoded primary key, versioned
// secondary indexes, snapshot (as-of) reads for time travel, optimistic
// commit validation for strict serializability, and a change-data-capture
// commit log that the TROD tracer and replay engine consume.
package storage

import "sort"

// btree is an in-memory B-tree mapping string keys to values of type V. It
// supports insert/replace, point lookup, ordered range scans, and key
// removal. MVCC deletion is expressed as tombstone versions in the stored
// value; physical removal happens only when Vacuum drops an entry whose
// whole chain fell below the history horizon.
//
// The tree uses preemptive splitting: full nodes are split on the way down,
// so inserts never backtrack.
//
// Right edge. Most keys the store writes arrive in ascending order
// (provenance event IDs, transaction IDs, the rows a restore copies in key
// order), so the tree caches its rightmost leaf. When that leaf is non-empty
// its last key is the tree's maximum, and a key above it is absent by
// construction: Get answers the miss in O(1), and an insert appends to the
// leaf in O(1) while it has room. When a full node on the right edge must
// split for such a key, the split is end-biased: the left node keeps
// btreeMaxKeys-2 keys and the new right node starts with one, so an
// ascending load leaves nodes ~97% full instead of half full. Any split
// clears the cache, and so does a Delete; the next insert that descends the
// right edge re-caches the leaf it reaches.
type btree[V any] struct {
	root *btreeNode[V]
	size int
	last *btreeNode[V] // rightmost leaf, or nil when not known
}

// btreeDegree is the maximum number of keys per node; chosen so a node fills
// roughly one cache line's worth of string headers.
const btreeDegree = 32

// btreeMaxKeys is the number of keys in a full node.
const btreeMaxKeys = 2*btreeDegree - 1

type btreeNode[V any] struct {
	keys     []string
	vals     []V
	children []*btreeNode[V] // nil for leaves
}

func newBTree[V any]() *btree[V] {
	return &btree[V]{root: &btreeNode[V]{}}
}

// Len returns the number of distinct keys.
func (t *btree[V]) Len() int { return t.size }

func (n *btreeNode[V]) leaf() bool { return n.children == nil }

// find returns the position of key in n.keys and whether it matched exactly.
func (n *btreeNode[V]) find(key string) (int, bool) {
	i := sort.SearchStrings(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return i, true
	}
	return i, false
}

// Get returns the value stored at key.
func (t *btree[V]) Get(key string) (V, bool) {
	if t.pastEnd(key) {
		var zero V
		return zero, false
	}
	n := t.root
	for {
		i, ok := n.find(key)
		if ok {
			return n.vals[i], true
		}
		if n.leaf() {
			var zero V
			return zero, false
		}
		n = n.children[i]
	}
}

// Set inserts or replaces the value at key, reporting whether the key was
// newly inserted.
func (t *btree[V]) Set(key string, val V) bool {
	slot, found := t.slot(key)
	*slot = val
	return !found
}

// GetOrSet returns the existing value at key, or stores and returns mk()'s
// result when absent. loaded reports whether the value pre-existed. It
// descends the tree once.
func (t *btree[V]) GetOrSet(key string, mk func() V) (v V, loaded bool) {
	slot, loaded := t.slot(key)
	if !loaded {
		*slot = mk()
	}
	return *slot, loaded
}

// pastEnd reports, in O(1), whether key sorts after every key in the tree.
// It is false whenever the rightmost leaf is not cached or is empty.
func (t *btree[V]) pastEnd(key string) bool {
	l := t.last
	return l != nil && len(l.keys) > 0 && key > l.keys[len(l.keys)-1]
}

// slot descends to key, splitting full nodes on the way down, and returns a
// pointer to its value slot. An absent key is inserted with a zero value
// first; found reports whether it already existed. The pointer is valid only
// until the tree's next mutation.
func (t *btree[V]) slot(key string) (slot *V, found bool) {
	var zero V
	atEnd := t.pastEnd(key)
	if atEnd && len(t.last.keys) < btreeMaxKeys {
		n := t.last
		n.keys = append(n.keys, key)
		n.vals = append(n.vals, zero)
		t.size++
		return &n.vals[len(n.vals)-1], false
	}
	if len(t.root.keys) == btreeMaxKeys {
		old := t.root
		t.root = &btreeNode[V]{children: []*btreeNode[V]{old}}
		t.splitChild(t.root, 0, atEnd)
	}
	n := t.root
	rightEdge := true // n is the last node of its level
	for {
		i, ok := n.find(key)
		if ok {
			return &n.vals[i], true
		}
		if n.leaf() {
			n.keys = append(n.keys, "")
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = key
			n.vals = append(n.vals, zero)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = zero
			t.size++
			if rightEdge {
				t.last = n
			}
			return &n.vals[i], false
		}
		if len(n.children[i].keys) == btreeMaxKeys {
			t.splitChild(n, i, atEnd)
			// The separator promoted from the child may equal or precede key.
			if key == n.keys[i] {
				return &n.vals[i], true
			}
			if key > n.keys[i] {
				i++
			}
		}
		rightEdge = rightEdge && i == len(n.keys)
		n = n.children[i]
	}
}

// splitChild splits n's full child at index i, promoting one of its keys
// into n. A normal split promotes the median; an end-biased split (atEnd,
// for a key above the tree's maximum) promotes the second-to-last key, so
// the left node stays nearly full and the right node starts with one key
// and room for the ascending keys that follow. Any split clears the
// rightmost-leaf cache.
func (t *btree[V]) splitChild(n *btreeNode[V], i int, atEnd bool) {
	t.last = nil
	child := n.children[i]
	mid := btreeDegree - 1
	capacity := 0
	if atEnd {
		mid = btreeMaxKeys - 2
		capacity = btreeMaxKeys
	}
	medianKey, medianVal := child.keys[mid], child.vals[mid]

	right := &btreeNode[V]{
		keys: append(make([]string, 0, capacity), child.keys[mid+1:]...),
		vals: append(make([]V, 0, capacity), child.vals[mid+1:]...),
	}
	// The moved tail is cleared so the left node's spare capacity does not
	// keep values alive after they leave the tree.
	if !child.leaf() {
		right.children = append(make([]*btreeNode[V], 0, capacity+1), child.children[mid+1:]...)
		clear(child.children[mid+1:])
		child.children = child.children[:mid+1]
	}
	clear(child.keys[mid:])
	clear(child.vals[mid:])
	child.keys = child.keys[:mid]
	child.vals = child.vals[:mid]

	n.keys = append(n.keys, "")
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = medianKey
	var zero V
	n.vals = append(n.vals, zero)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = medianVal
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Delete removes key, reporting whether it was present. Removal does not
// rebalance: a node may drop below the usual minimum occupancy (or empty out
// entirely), which search, insert, and iteration all tolerate — Vacuum's
// deletions are sparse and later inserts re-split on the way down. The
// balance invariant degrades gracefully instead of buying rotation/merge
// complexity the workload never needs.
func (t *btree[V]) Delete(key string) bool {
	if !t.root.remove(key) {
		return false
	}
	t.last = nil
	for len(t.root.keys) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	t.size--
	return true
}

func (n *btreeNode[V]) remove(key string) bool {
	i, ok := n.find(key)
	if ok {
		if n.leaf() {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.vals = append(n.vals[:i], n.vals[i+1:]...)
			return true
		}
		// Internal hit: swap in the in-order predecessor (max of the left
		// subtree) as the new separator, then remove that key from where it
		// lived. Earlier deletions may have emptied the left subtree — fall
		// back to the successor, and when both neighbours are empty the
		// separator goes away along with the (empty) right subtree.
		if pk, pv, found := n.children[i].maxEntry(); found {
			n.keys[i] = pk
			n.vals[i] = pv
			return n.children[i].remove(pk)
		}
		if sk, sv, found := n.children[i+1].minEntry(); found {
			n.keys[i] = sk
			n.vals[i] = sv
			return n.children[i+1].remove(sk)
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		n.children = append(n.children[:i+1], n.children[i+2:]...)
		return true
	}
	if n.leaf() {
		return false
	}
	return n.children[i].remove(key)
}

// maxEntry returns the largest key in the subtree, descending through empty
// unbalanced nodes; found is false when the subtree holds no keys at all.
func (n *btreeNode[V]) maxEntry() (string, V, bool) {
	if n.leaf() {
		if len(n.keys) == 0 {
			var zero V
			return "", zero, false
		}
		return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1], true
	}
	if k, v, ok := n.children[len(n.children)-1].maxEntry(); ok {
		return k, v, true
	}
	if len(n.keys) > 0 {
		return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1], true
	}
	var zero V
	return "", zero, false
}

// minEntry is maxEntry's mirror: the smallest key in the subtree.
func (n *btreeNode[V]) minEntry() (string, V, bool) {
	if n.leaf() {
		if len(n.keys) == 0 {
			var zero V
			return "", zero, false
		}
		return n.keys[0], n.vals[0], true
	}
	if k, v, ok := n.children[0].minEntry(); ok {
		return k, v, true
	}
	if len(n.keys) > 0 {
		return n.keys[0], n.vals[0], true
	}
	var zero V
	return "", zero, false
}

// AscendRange visits keys in [lo, hi) in order; hi == "" means unbounded.
// The callback returns false to stop early. AscendRange reports whether the
// scan ran to completion.
func (t *btree[V]) AscendRange(lo, hi string, fn func(key string, val V) bool) bool {
	return t.root.ascend(lo, hi, fn)
}

// Ascend visits all keys in order.
func (t *btree[V]) Ascend(fn func(key string, val V) bool) bool {
	return t.root.ascend("", "", fn)
}

func (n *btreeNode[V]) ascend(lo, hi string, fn func(string, V) bool) bool {
	start := 0
	if lo != "" {
		start = sort.SearchStrings(n.keys, lo)
	}
	for i := start; i < len(n.keys); i++ {
		if !n.leaf() {
			if !n.children[i].ascend(lo, hi, fn) {
				return false
			}
		}
		if hi != "" && n.keys[i] >= hi {
			return true
		}
		if n.keys[i] >= lo {
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
	}
	if !n.leaf() {
		return n.children[len(n.keys)].ascend(lo, hi, fn)
	}
	return true
}
