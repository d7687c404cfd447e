package pq

import (
	"math/rand"
	"sort"
	"testing"

	"transit/internal/timeutil"
)

func TestBasicOrdering(t *testing.T) {
	h := New(10)
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(2, 20)
	if h.Len() != 3 || h.Empty() {
		t.Fatal("Len/Empty wrong")
	}
	if h.MinKey() != 10 {
		t.Fatalf("MinKey = %d", h.MinKey())
	}
	for want := timeutil.Ticks(10); want <= 30; want += 10 {
		item, key := h.PopMin()
		if key != want || item != int32(want/10) {
			t.Fatalf("PopMin = (%d,%d), want (%d,%d)", item, key, want/10, want)
		}
	}
	if !h.Empty() {
		t.Fatal("heap not empty")
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New(10)
	h.Push(1, 100)
	h.Push(2, 50)
	if h.slot(1) == 0 || h.Key(1) != 100 {
		t.Fatal("slot/Key wrong")
	}
	if !h.Push(1, 20) {
		t.Fatal("decrease-key reported no change")
	}
	if h.Key(1) != 20 {
		t.Fatalf("Key(1) = %d after decrease", h.Key(1))
	}
	// Increase attempt is a no-op.
	if h.Push(1, 500) {
		t.Fatal("increase-key must be a no-op")
	}
	if h.Key(1) != 20 {
		t.Fatal("no-op changed the key")
	}
	item, _ := h.PopMin()
	if item != 1 {
		t.Fatalf("PopMin = %d, want 1", item)
	}
}

func TestDuplicateSameKey(t *testing.T) {
	h := New(4)
	h.Push(0, 7)
	if h.Push(0, 7) {
		t.Fatal("equal-key push must be a no-op")
	}
	if h.Len() != 1 {
		t.Fatal("duplicate inserted")
	}
}

func TestClearAndReuse(t *testing.T) {
	h := New(8)
	for i := int32(0); i < 8; i++ {
		h.Push(i, timeutil.Ticks(i))
	}
	h.Clear()
	if !h.Empty() {
		t.Fatal("Clear did not empty the heap")
	}
	for i := int32(0); i < 8; i++ {
		if h.slot(i) != 0 {
			t.Fatalf("item %d still present after Clear", i)
		}
	}
	h.Push(3, 3)
	if item, key := h.PopMin(); item != 3 || key != 3 {
		t.Fatal("reuse after Clear broken")
	}
}

func TestPanics(t *testing.T) {
	h := New(4)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("PopMin", func() { h.PopMin() })
	mustPanic("MinKey", func() { h.MinKey() })
	mustPanic("Key", func() { h.Key(0) })
}

// Exercise the heap against a reference sort with random workloads
// including decrease-keys.
func TestRandomAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		h := New(n)
		best := make(map[int32]timeutil.Ticks)
		ops := 3 * n
		for o := 0; o < ops; o++ {
			it := int32(rng.Intn(n))
			key := timeutil.Ticks(rng.Intn(10000))
			h.Push(it, key)
			if cur, ok := best[it]; !ok || key < cur {
				best[it] = key
			}
		}
		if h.Len() != len(best) {
			t.Fatalf("trial %d: Len=%d want %d", trial, h.Len(), len(best))
		}
		prev := timeutil.Ticks(-1)
		got := make(map[int32]timeutil.Ticks)
		for !h.Empty() {
			it, k := h.PopMin()
			if k < prev {
				t.Fatalf("trial %d: keys popped out of order", trial)
			}
			prev = k
			got[it] = k
		}
		for it, k := range best {
			if got[it] != k {
				t.Fatalf("trial %d: item %d popped with key %d, want %d", trial, it, got[it], k)
			}
		}
	}
}

// Interleave pops and pushes to stress sift-down paths.
func TestInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	h := New(1000)
	inQueue := make(map[int32]bool)
	lastPopped := timeutil.Ticks(0)
	for step := 0; step < 20000; step++ {
		if h.Empty() || rng.Intn(3) > 0 {
			it := int32(rng.Intn(1000))
			// Keys are monotone-ish, as in Dijkstra, so ordering violations
			// would be caught by the lastPopped check below.
			key := lastPopped + timeutil.Ticks(rng.Intn(100))
			h.Push(it, key)
			inQueue[it] = true
		} else {
			it, k := h.PopMin()
			if k < lastPopped {
				t.Fatalf("step %d: popped %d after %d", step, k, lastPopped)
			}
			if !inQueue[it] {
				t.Fatalf("step %d: popped item %d never pushed", step, it)
			}
			delete(inQueue, it)
			lastPopped = k
		}
	}
}

// Reset must invalidate every queued item in O(1) and allow the heap to be
// reused — including growing to a larger item universe — without any stale
// position leaking into the next generation.
func TestResetReuse(t *testing.T) {
	h := New(8)
	h.Push(3, 30)
	h.Push(5, 50)
	h.Reset(8)
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("heap not empty after Reset")
	}
	for it := int32(0); it < 8; it++ {
		if h.slot(it) != 0 {
			t.Fatalf("stale item %d survives Reset", it)
		}
	}
	// Re-push the same items with different keys; old positions must not
	// alias.
	h.Push(5, 7)
	h.Push(3, 9)
	if it, key := h.PopMin(); it != 5 || key != 7 {
		t.Fatalf("PopMin = (%d,%d) after Reset, want (5,7)", it, key)
	}
	// Growing Reset.
	h.Reset(100)
	h.Push(99, 1)
	if h.slot(99) == 0 || h.Key(99) != 1 {
		t.Fatal("grown heap broken")
	}
	if h.slot(3) != 0 {
		t.Fatal("stale item survives growing Reset")
	}
}

// A reused heap must behave exactly like a fresh one over many random
// generations (cross-validated against sorting).
func TestResetGenerationsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := New(64)
	for gen := 0; gen < 200; gen++ {
		h.Reset(64)
		n := 1 + rng.Intn(40)
		keys := map[int32]timeutil.Ticks{}
		for i := 0; i < n; i++ {
			it := int32(rng.Intn(64))
			k := timeutil.Ticks(rng.Intn(1000))
			if old, ok := keys[it]; !ok || k < old {
				keys[it] = k
			}
			h.Push(it, k)
		}
		var want []int
		for _, k := range keys {
			want = append(want, int(k))
		}
		sort.Ints(want)
		for i := 0; !h.Empty(); i++ {
			it, key := h.PopMin()
			if int(key) != want[i] {
				t.Fatalf("gen %d: pop %d = %d, want %d", gen, i, key, want[i])
			}
			if key != keys[it] {
				t.Fatalf("gen %d: item %d popped with key %d, want %d", gen, it, key, keys[it])
			}
		}
	}
}

// Clear keeps its documented contract (empty, reusable) via the generation
// mechanism.
func TestClearIsReset(t *testing.T) {
	h := New(4)
	h.Push(0, 5)
	h.Push(1, 3)
	h.Clear()
	if !h.Empty() || h.slot(0) != 0 || h.slot(1) != 0 {
		t.Fatal("Clear did not empty the heap")
	}
	h.Push(1, 8)
	if it, key := h.PopMin(); it != 1 || key != 8 {
		t.Fatalf("PopMin = (%d,%d) after Clear", it, key)
	}
}
