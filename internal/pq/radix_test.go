package pq

import (
	"math/rand"
	"sort"
	"testing"

	"transit/internal/timeutil"
)

// radixRef is the sorted reference the radix heap is checked against: a
// multiset of (key, item) entries.
type radixRef []radixEntry

func (r *radixRef) push(item int32, key timeutil.Ticks) {
	*r = append(*r, radixEntry{key, item})
}

// pop removes the entry (key, item), which must carry the smallest key.
func (r *radixRef) pop(t *testing.T, item int32, key timeutil.Ticks) {
	t.Helper()
	s := *r
	min, at := s[0].key, -1
	for i, e := range s {
		if e.key < min {
			min = e.key
		}
		if e.key == key && e.item == item {
			at = i
		}
	}
	if key != min {
		t.Fatalf("popped key %d, smallest queued key is %d", key, min)
	}
	if at < 0 {
		t.Fatalf("popped (%d,%d), which was never pushed or already popped", item, key)
	}
	s[at] = s[len(s)-1]
	*r = s[:len(s)-1]
}

// driveRadix interprets data as a monotone push/pop interleaving and checks
// every pop against the reference. Pushed keys are the last popped key plus
// a delta drawn from {0, small, a power of two, the rest of the key range},
// so equal keys, key 0 and keys up to Infinity−1 all occur.
func driveRadix(t *testing.T, h *RadixHeap, data []byte) {
	t.Helper()
	const maxKey = timeutil.Infinity - 1
	var ref radixRef
	last := timeutil.Ticks(0)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	pop := func() {
		item, key := h.PopMin()
		if key < last {
			t.Fatalf("popped %d after %d", key, last)
		}
		ref.pop(t, item, key)
		last = key
	}
	for item := int32(0); len(data) > 0; item++ {
		op := next()
		if op&3 == 0 && !h.Empty() {
			pop()
			continue
		}
		var delta timeutil.Ticks
		switch op >> 2 & 3 {
		case 0: // equal to the last popped key (a weight-0 edge)
		case 1:
			delta = timeutil.Ticks(next())
		case 2:
			delta = 1 << (next() % 30)
		case 3:
			delta = maxKey - last
		}
		key := last + delta
		if key > maxKey {
			key = maxKey
		}
		// item%7 makes distinct entries share an item, as lazy deletion does.
		h.Push(item%7, key)
		ref.push(item%7, key)
		if h.Len() != len(ref) {
			t.Fatalf("Len = %d, reference holds %d", h.Len(), len(ref))
		}
	}
	for !h.Empty() {
		pop()
	}
	if len(ref) != 0 {
		t.Fatalf("queue empty with %d reference entries left", len(ref))
	}
}

func TestRadixBasic(t *testing.T) {
	var h RadixHeap
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	h.Push(1, 0) // key 0 is the floor after Reset
	h.Push(2, timeutil.Infinity-1)
	h.Push(3, 5)
	h.Push(3, 5) // duplicate entry: both surface
	h.Push(4, 0)
	var keys []int
	for !h.Empty() {
		_, k := h.PopMin()
		keys = append(keys, int(k))
	}
	want := []int{0, 0, 5, 5, int(timeutil.Infinity - 1)}
	if !sort.IntsAreSorted(keys) || len(keys) != len(want) {
		t.Fatalf("popped %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("popped %v, want %v", keys, want)
		}
	}
}

func TestRadixRandomMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var h RadixHeap
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 1+rng.Intn(600))
		rng.Read(data)
		h.Reset()
		driveRadix(t, &h, data)
	}
}

// A push equal to the last popped key must surface before anything larger,
// however many times the floor has moved.
func TestRadixPushAtFloor(t *testing.T) {
	var h RadixHeap
	h.Push(0, 1000)
	h.Push(1, 1001)
	if _, k := h.PopMin(); k != 1000 {
		t.Fatalf("first pop %d", k)
	}
	h.Push(2, 1000)
	if it, k := h.PopMin(); it != 2 || k != 1000 {
		t.Fatalf("floor push surfaced as (%d,%d)", it, k)
	}
	if it, k := h.PopMin(); it != 1 || k != 1001 {
		t.Fatalf("last pop (%d,%d)", it, k)
	}
}

// Reset keeps the bucket arrays: after the first round of a repeated
// workload the queue never allocates or grows again.
func TestRadixResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := make([]byte, 2000)
	rng.Read(data)
	var h RadixHeap
	capacity := func() int {
		n := 0
		for _, b := range h.buckets {
			n += cap(b)
		}
		return n
	}
	h.Reset()
	driveRadix(t, &h, data)
	first := capacity()
	for round := 1; round < 1000; round++ {
		h.Reset()
		if !h.Empty() || h.Len() != 0 {
			t.Fatalf("round %d: not empty after Reset", round)
		}
		driveRadix(t, &h, data)
		if c := capacity(); c != first {
			t.Fatalf("round %d: bucket capacity grew from %d to %d", round, first, c)
		}
	}
}

// Under `go test` a non-monotone caller fails loudly instead of having its
// entry surface out of order.
func TestRadixNonMonotonePushPanics(t *testing.T) {
	var h RadixHeap
	h.Push(0, 10)
	h.PopMin()
	defer func() {
		if recover() == nil {
			t.Fatal("push below the last popped key did not panic")
		}
	}()
	h.Push(1, 9)
}

func TestRadixPopEmptyPanics(t *testing.T) {
	var h RadixHeap
	defer func() {
		if recover() == nil {
			t.Fatal("PopMin on an empty queue did not panic")
		}
	}()
	h.PopMin()
}

func FuzzRadixHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 0, 0, 0})
	f.Add([]byte{4, 0, 8, 29, 12, 0, 5, 200, 0, 0})
	f.Add([]byte{13, 13, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h RadixHeap
		driveRadix(t, &h, data)
	})
}

// Entries with equal keys surface in the reverse of their push order: per
// key the queue is a stack, through refills and bucket growth alike. Entries
// with other keys therefore never change how a search breaks its ties.
func TestRadixEqualKeysPopInReversePushOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		var h RadixHeap
		floor := timeutil.Ticks(0)
		stacks := map[timeutil.Ticks][]int32{}
		for id := int32(0); id < 400 || !h.Empty(); {
			if id < 400 && (h.Empty() || rng.Intn(3) > 0) {
				key := floor + timeutil.Ticks(rng.Intn(6)*rng.Intn(40))
				h.Push(id, key)
				stacks[key] = append(stacks[key], id)
				id++
				continue
			}
			item, key := h.PopMin()
			floor = key
			st := stacks[key]
			if len(st) == 0 || st[len(st)-1] != item {
				t.Fatalf("round %d: key %d popped item %d, pushed and still queued with that key: %v", round, key, item, st)
			}
			stacks[key] = st[:len(st)-1]
		}
	}
}
