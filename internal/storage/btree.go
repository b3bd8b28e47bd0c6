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
type btree[V any] struct {
	root *btreeNode[V]
	size int
}

// btreeDegree is the maximum number of keys per node; chosen so a node fills
// roughly one cache line's worth of string headers.
const btreeDegree = 32

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

// slot descends to key, splitting full nodes on the way down, and returns a
// pointer to its value slot. An absent key is inserted with a zero value
// first; found reports whether it already existed. The pointer is valid only
// until the tree's next mutation.
func (t *btree[V]) slot(key string) (slot *V, found bool) {
	if len(t.root.keys) == 2*btreeDegree-1 {
		old := t.root
		t.root = &btreeNode[V]{children: []*btreeNode[V]{old}}
		t.root.splitChild(0)
	}
	var zero V
	n := t.root
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
			return &n.vals[i], false
		}
		child := n.children[i]
		if len(child.keys) == 2*btreeDegree-1 {
			n.splitChild(i)
			// The separator promoted from the child may equal or precede key.
			if key == n.keys[i] {
				return &n.vals[i], true
			}
			if key > n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
}

// splitChild splits the full child at index i, promoting its median into n.
func (n *btreeNode[V]) splitChild(i int) {
	child := n.children[i]
	mid := btreeDegree - 1
	medianKey, medianVal := child.keys[mid], child.vals[mid]

	right := &btreeNode[V]{
		keys: append([]string(nil), child.keys[mid+1:]...),
		vals: append([]V(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode[V](nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
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
