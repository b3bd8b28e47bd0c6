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
	// 0..63 splits the root leaf at 31; 64..94 then fills the right child
	// (32..94, 63 keys), whose median is 63.
	for i := 0; i <= 94; i++ {
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

// Property: tree contents match a reference map and iteration matches sorted
// key order, with Set and GetOrSet interleaved through enough splits to
// reach three levels.
func TestBTreePropertyAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newBTree[int]()
		ref := map[string]int{}
		for i := 0; i < 10000; i++ {
			k := fmt.Sprintf("%04d", rng.Intn(8000)) // collisions force replaces and hits
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
		return ok && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
