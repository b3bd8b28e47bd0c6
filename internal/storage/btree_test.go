package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeSetGet(t *testing.T) {
	tr := newBTree[int]()
	if _, ok := tr.Get("missing"); ok {
		t.Error("empty tree Get should miss")
	}
	if !tr.Set("a", 1) {
		t.Error("first Set should report insert")
	}
	if tr.Set("a", 2) {
		t.Error("second Set should report replace")
	}
	if v, ok := tr.Get("a"); !ok || v != 2 {
		t.Errorf("Get(a) = %d, %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestBTreeGetOrSet(t *testing.T) {
	tr := newBTree[*int]()
	calls := 0
	mk := func() *int { calls++; v := 7; return &v }
	p1, loaded := tr.GetOrSet("k", mk)
	if loaded || *p1 != 7 || calls != 1 {
		t.Error("first GetOrSet should create")
	}
	p2, loaded := tr.GetOrSet("k", mk)
	if !loaded || p1 != p2 || calls != 1 {
		t.Error("second GetOrSet should load existing")
	}
}

func TestBTreeManyKeysOrdered(t *testing.T) {
	tr := newBTree[int]()
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Set(fmt.Sprintf("key%06d", i), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	prev := ""
	count := 0
	tr.Ascend(func(k string, v int) bool {
		if k <= prev {
			t.Fatalf("out of order: %q after %q", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Errorf("Ascend visited %d, want %d", count, n)
	}
	// Spot-check lookups after splits.
	for i := 0; i < n; i += 97 {
		if v, ok := tr.Get(fmt.Sprintf("key%06d", i)); !ok || v != i {
			t.Errorf("Get(key%06d) = %d, %v", i, v, ok)
		}
	}
}

func TestBTreeRangeScan(t *testing.T) {
	tr := newBTree[int]()
	for i := 0; i < 100; i++ {
		tr.Set(fmt.Sprintf("%03d", i), i)
	}
	var got []int
	tr.AscendRange("010", "015", func(k string, v int) bool {
		got = append(got, v)
		return true
	})
	if fmt.Sprint(got) != "[10 11 12 13 14]" {
		t.Errorf("range scan = %v", got)
	}
	// Unbounded hi.
	got = nil
	tr.AscendRange("097", "", func(k string, v int) bool {
		got = append(got, v)
		return true
	})
	if fmt.Sprint(got) != "[97 98 99]" {
		t.Errorf("open range scan = %v", got)
	}
	// Early stop.
	got = nil
	tr.AscendRange("", "", func(k string, v int) bool {
		got = append(got, v)
		return len(got) < 3
	})
	if len(got) != 3 {
		t.Errorf("early stop visited %d", len(got))
	}
}

func TestBTreeReplaceAtSeparator(t *testing.T) {
	// Force enough inserts that separators are promoted, then replace keys
	// that live in interior nodes.
	tr := newBTree[int]()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("%05d", i), i)
	}
	for i := 0; i < n; i++ {
		if tr.Set(fmt.Sprintf("%05d", i), i*2) {
			t.Fatalf("replace of %05d reported insert", i)
		}
	}
	if tr.Len() != n {
		t.Errorf("Len = %d after replaces", tr.Len())
	}
	for i := 0; i < n; i += 131 {
		if v, _ := tr.Get(fmt.Sprintf("%05d", i)); v != i*2 {
			t.Errorf("Get(%05d) = %d, want %d", i, v, i*2)
		}
	}
}

// TestBTreeGetOrSetPromotedSeparator drives GetOrSet at the median of a
// full child: the descent splits that child and promotes the very key being
// looked up, which must then load as a hit rather than insert a duplicate.
func TestBTreeGetOrSetPromotedSeparator(t *testing.T) {
	tr := newBTree[int]()
	// 0..61 and 63 fill the root leaf; 62 lands below the maximum, so the
	// root splits at its median 31 (an ascending key would take the
	// end-biased split instead). 64..94 then fill the right child (32..94,
	// 63 keys), whose median is 63.
	keys := []int{}
	for i := 0; i <= 61; i++ {
		keys = append(keys, i)
	}
	keys = append(keys, 63, 62)
	for i := 64; i <= 94; i++ {
		keys = append(keys, i)
	}
	for _, i := range keys {
		tr.Set(fmt.Sprintf("%03d", i), i*10)
	}
	if tr.root.leaf() || len(tr.root.children[1].keys) != 2*btreeDegree-1 {
		t.Fatalf("setup: right child has %d keys, want a full node", len(tr.root.children[1].keys))
	}
	v, loaded := tr.GetOrSet("063", func() int { t.Fatal("mk called for a present key"); return 0 })
	if !loaded || v != 630 {
		t.Fatalf("GetOrSet(063) = %d, %v; want 630, true", v, loaded)
	}
	if tr.root.keys[1] != "063" {
		t.Fatalf("063 was not promoted to the root: root keys %v", tr.root.keys)
	}
	if tr.Len() != 95 {
		t.Fatalf("Len = %d after a GetOrSet hit, want 95", tr.Len())
	}
	// A miss next to the promoted separator inserts exactly once.
	v, loaded = tr.GetOrSet("063a", func() int { return -1 })
	if loaded || v != -1 || tr.Len() != 96 {
		t.Fatalf("GetOrSet(063a) = %d, %v, Len %d; want -1, false, 96", v, loaded, tr.Len())
	}
}

// checkBTree verifies the tree's structural invariants: keys strictly
// ordered within each node, every separator bounding its two subtrees,
// leaves and interior nodes shaped consistently, size equal to the number of
// keys, and the cached rightmost leaf (when set) equal to the real one.
func checkBTree[V any](tr *btree[V]) error {
	count := 0
	var walk func(n *btreeNode[V], lo, hi string, bounded bool) error
	walk = func(n *btreeNode[V], lo, hi string, bounded bool) error {
		if len(n.vals) != len(n.keys) {
			return fmt.Errorf("node has %d keys but %d values", len(n.keys), len(n.vals))
		}
		if len(n.keys) > btreeMaxKeys {
			return fmt.Errorf("node has %d keys, max %d", len(n.keys), btreeMaxKeys)
		}
		for i, k := range n.keys {
			if i > 0 && k <= n.keys[i-1] {
				return fmt.Errorf("keys out of order: %q after %q", k, n.keys[i-1])
			}
			if bounded && k <= lo {
				return fmt.Errorf("key %q not above its separator %q", k, lo)
			}
			if hi != "" && k >= hi {
				return fmt.Errorf("key %q not below its separator %q", k, hi)
			}
		}
		count += len(n.keys)
		if n.leaf() {
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("interior node has %d keys but %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi, cb := lo, hi, bounded
			if i > 0 {
				clo, cb = n.keys[i-1], true
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if err := walk(c, clo, chi, cb); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tr.root, "", "", false); err != nil {
		return err
	}
	if count != tr.size {
		return fmt.Errorf("size %d, but the tree holds %d keys", tr.size, count)
	}
	if tr.last != nil {
		n := tr.root
		for !n.leaf() {
			n = n.children[len(n.children)-1]
		}
		if tr.last != n {
			return fmt.Errorf("cached rightmost leaf is not the tree's rightmost leaf")
		}
	}
	return nil
}

// Property: tree contents match a reference map and iteration matches sorted
// key order, with Set, GetOrSet, and Delete interleaved through enough splits
// to reach three levels. Runs of ascending keys above the current maximum
// take the right-edge path and its end-biased splits; random keys and
// deletions between the runs split normally and invalidate the cached
// rightmost leaf. The structural invariants are checked every 1000 steps.
func TestBTreePropertyAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newBTree[int]()
		ref := map[string]int{}
		next := 0 // ascending runs continue from here
		for i := 0; i < 10000; i++ {
			var k string
			if i%1000 == 0 {
				if err := checkBTree(tr); err != nil {
					t.Log(err)
					return false
				}
			}
			switch op := rng.Intn(20); {
			case op < 17:
				k = fmt.Sprintf("%05d", rng.Intn(8000)) // collisions force replaces and hits
			case op < 18:
				// A run of ascending keys above every key drawn so far.
				if next < 8000 {
					next = 8000
				}
				for n := rng.Intn(64); n > 0; n-- {
					next++
					k = fmt.Sprintf("%05d", next)
					if _, hit := tr.Get(k); hit {
						return false
					}
					v := rng.Int()
					if !tr.Set(k, v) {
						return false
					}
					ref[k] = v
				}
				continue
			default:
				k = fmt.Sprintf("%05d", rng.Intn(next+1))
				_, present := ref[k]
				if tr.Delete(k) != present {
					return false
				}
				delete(ref, k)
				continue
			}
			v := rng.Int()
			if rng.Intn(2) == 0 {
				_, present := ref[k]
				if inserted := tr.Set(k, v); inserted == present {
					return false
				}
				ref[k] = v
				continue
			}
			got, loaded := tr.GetOrSet(k, func() int { return v })
			want, present := ref[k]
			if loaded != present || (present && got != want) || (!present && got != v) {
				return false
			}
			if !present {
				ref[k] = v
			}
		}
		if err := checkBTree(tr); err != nil {
			t.Log(err)
			return false
		}
		if tr.Len() != len(ref) {
			return false
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		ok := true
		tr.Ascend(func(k string, v int) bool {
			if i >= len(keys) || k != keys[i] || v != ref[k] {
				ok = false
				return false
			}
			i++
			return true
		})
		for _, k := range keys {
			if v, found := tr.Get(k); !found || v != ref[k] {
				return false
			}
		}
		return ok && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBTreeAscendingFill pins the end-biased split: an ascending load
// leaves the leaves at least 90% full (a median split would leave them
// half full), keeps the tree valid, and answers lookups on both sides of
// the maximum.
func TestBTreeAscendingFill(t *testing.T) {
	tr := newBTree[int]()
	const n = 100000
	for i := 0; i < n; i++ {
		if !tr.Set(fmt.Sprintf("%07d", i), i) {
			t.Fatalf("Set(%07d) reported a replace", i)
		}
	}
	if err := checkBTree(tr); err != nil {
		t.Fatal(err)
	}
	leaves, leafKeys := 0, 0
	var walk func(nd *btreeNode[int])
	walk = func(nd *btreeNode[int]) {
		if nd.leaf() {
			leaves++
			leafKeys += len(nd.keys)
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(tr.root)
	// The last leaf is still filling; judge the others.
	fill := float64(leafKeys-len(tr.last.keys)) / float64((leaves-1)*btreeMaxKeys)
	if fill < 0.9 {
		t.Fatalf("leaves %.0f%% full after an ascending load (%d leaves), want >= 90%%", fill*100, leaves)
	}
	for i := 0; i < n; i += 997 {
		if v, ok := tr.Get(fmt.Sprintf("%07d", i)); !ok || v != i {
			t.Fatalf("Get(%07d) = %d, %v", i, v, ok)
		}
	}
	if _, ok := tr.Get(fmt.Sprintf("%07d", n)); ok {
		t.Fatal("Get above the maximum hit")
	}
}
