// Package pq implements the two priority queues of this repository.
//
// Heap is an addressable binary min-heap (the paper's queue): items are
// dense non-negative integers supplied by the caller (node IDs), each item
// is queued at most once, and Push doubles as decrease-key. Of the
// searches only the label-correcting baseline uses it: it re-inserts nodes with smaller keys
// than it has already popped, so it needs a general heap.
//
// RadixHeap is a monotone queue for the connection-setting searches —
// profiles, point queries, the time-query and the multi-criteria search —
// whose keys are int32 arrival times that never fall below the last popped
// key. It needs no position index and no sift: see radix.go.
//
// Both are built to be reused across queries: Reset is O(1) and keeps the
// backing arrays, so a pooled queue costs nothing to hand to the next query
// (the paper's per-thread data-structure reuse).
package pq

import (
	"transit/internal/timeutil"
)

// Heap is an addressable binary min-heap keyed by timeutil.Ticks.
// The zero value is not usable; construct with New.
type Heap struct {
	keys  []timeutil.Ticks
	items []int32
	// pos maps item → heap slot + 1. An entry is meaningful only when its
	// posGen stamp equals gen; anything else reads as "absent". Reset bumps
	// gen, invalidating every entry at once.
	pos    []int32
	posGen []uint32
	gen    uint32
}

// New returns a heap for items in [0, maxItems).
func New(maxItems int) *Heap {
	return &Heap{
		pos:    make([]int32, maxItems),
		posGen: make([]uint32, maxItems),
		gen:    1,
	}
}

// Len returns the number of queued items.
func (h *Heap) Len() int { return len(h.keys) }

// Empty reports whether the queue is empty.
func (h *Heap) Empty() bool { return len(h.keys) == 0 }

// Clear removes all items in O(1) without releasing memory, so a heap can
// be reused across queries.
func (h *Heap) Clear() { h.Reset(len(h.pos)) }

// Reset empties the heap and re-dimensions it for items in [0, maxItems),
// growing the position index when needed but never shrinking it. Unlike a
// sweep over pos, Reset is O(1) (amortized, ignoring growth): it bumps the
// generation stamp, so every stale pos entry reads as absent.
func (h *Heap) Reset(maxItems int) {
	h.keys = h.keys[:0]
	h.items = h.items[:0]
	if maxItems > len(h.pos) {
		h.pos = make([]int32, maxItems)
		h.posGen = make([]uint32, maxItems)
		h.gen = 1
		return
	}
	h.gen++
	if h.gen == 0 { // stamp wrap-around: one real sweep every 2^32 resets
		clear(h.posGen)
		h.gen = 1
	}
}

// slot returns the heap slot + 1 of an item, or 0 when absent.
func (h *Heap) slot(item int32) int32 {
	if h.posGen[item] != h.gen {
		return 0
	}
	return h.pos[item]
}

// Key returns the current key of a queued item; it panics when the item is
// absent, which always indicates a logic error in the caller.
func (h *Heap) Key(item int32) timeutil.Ticks {
	p := h.slot(item)
	if p == 0 {
		panic("pq: Key of absent item")
	}
	return h.keys[p-1]
}

// Push inserts the item with the given key, or decreases its key when the
// item is already queued with a larger key. Pushing an already-queued item
// with a key that is not smaller is a no-op, mirroring the
// min(key, tentative) update of the algorithms. It reports whether the
// queue changed.
func (h *Heap) Push(item int32, key timeutil.Ticks) bool {
	if p := h.slot(item); p != 0 {
		i := int(p - 1)
		if key >= h.keys[i] {
			return false
		}
		h.keys[i] = key
		h.up(i)
		return true
	}
	h.keys = append(h.keys, key)
	h.items = append(h.items, item)
	i := len(h.keys) - 1
	h.pos[item] = int32(i + 1)
	h.posGen[item] = h.gen
	h.up(i)
	return true
}

// PopMin removes and returns the item with the smallest key. It panics on
// an empty queue.
func (h *Heap) PopMin() (item int32, key timeutil.Ticks) {
	if len(h.keys) == 0 {
		panic("pq: PopMin on empty queue")
	}
	item, key = h.items[0], h.keys[0]
	h.pos[item] = 0
	last := len(h.keys) - 1
	if last > 0 {
		h.keys[0], h.items[0] = h.keys[last], h.items[last]
		h.pos[h.items[0]] = 1
	}
	h.keys = h.keys[:last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return item, key
}

// MinKey returns the smallest key without removing it; it panics on an
// empty queue.
func (h *Heap) MinKey() timeutil.Ticks {
	if len(h.keys) == 0 {
		panic("pq: MinKey on empty queue")
	}
	return h.keys[0]
}

func (h *Heap) up(i int) {
	k, it := h.keys[i], h.items[i]
	for i > 0 {
		parent := (i - 1) >> 1
		if h.keys[parent] <= k {
			break
		}
		h.keys[i], h.items[i] = h.keys[parent], h.items[parent]
		h.pos[h.items[i]] = int32(i + 1)
		i = parent
	}
	h.keys[i], h.items[i] = k, it
	h.pos[it] = int32(i + 1)
}

func (h *Heap) down(i int) {
	n := len(h.keys)
	k, it := h.keys[i], h.items[i]
	for {
		best := 2*i + 1
		if best >= n {
			break
		}
		if r := best + 1; r < n && h.keys[r] < h.keys[best] {
			best = r
		}
		if h.keys[best] >= k {
			break
		}
		h.keys[i], h.items[i] = h.keys[best], h.items[best]
		h.pos[h.items[i]] = int32(i + 1)
		i = best
	}
	h.keys[i], h.items[i] = k, it
	h.pos[it] = int32(i + 1)
}
