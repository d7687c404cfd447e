package pq

import (
	"fmt"
	"math/bits"
	"testing"

	"transit/internal/timeutil"
)

// RadixHeap is a monotone priority queue over non-negative int32 keys: a
// key pushed is never smaller than the last key popped, which is what a
// label-setting search with non-negative edge weights guarantees. Entries
// are {key, item} pairs in 33 buckets; an entry lives in bucket
// bits.Len32(key ^ last), the position of the highest bit in which its key
// differs from the last popped key (bucket 0: equal to it). Because keys
// only move towards `last` as it grows, an entry only ever moves to a lower
// bucket, at most 32 times in its life: Push is O(1), PopMin amortized
// O(32), and neither compares more than one bucket's worth of keys.
//
// There is no position index, so no decrease-key and no membership test: a caller
// that finds a better key for an item pushes a second entry and discards
// the worse one when it surfaces (lazy deletion — the caller's own label
// record says whether an item is already final). All state is the bucket
// slices, whose total length is bounded by the number of pushes, never by
// the key range.
//
// The zero value is an empty queue ready for use.
type RadixHeap struct {
	last     timeutil.Ticks
	n        int
	nonEmpty uint64 // bit b set iff buckets[b] has entries
	buckets  [33][]radixEntry
}

type radixEntry struct {
	key  timeutil.Ticks
	item int32
}

// checkMonotone turns a push below the last popped key into a panic while
// the binary runs under `go test`, so a caller that breaks the invariant
// fails loudly in every test instead of having entries surface out of
// order. Outside tests the check is skipped.
var checkMonotone = testing.Testing()

// Len returns the number of queued entries, duplicates included.
func (h *RadixHeap) Len() int { return h.n }

// Empty reports whether the queue holds no entries.
func (h *RadixHeap) Empty() bool { return h.n == 0 }

// Reset empties the queue and rewinds the monotone floor to 0, keeping the
// bucket arrays for reuse. It is O(1): 33 slice truncations.
func (h *RadixHeap) Reset() {
	for b := range h.buckets {
		h.buckets[b] = h.buckets[b][:0]
	}
	h.last, h.n, h.nonEmpty = 0, 0, 0
}

// Push adds an entry. key must be at least the last popped key (0 after
// Reset); equal is fine, which is how weight-0 edges behave.
func (h *RadixHeap) Push(item int32, key timeutil.Ticks) {
	if checkMonotone && key < h.last {
		panic(fmt.Sprintf("pq: RadixHeap.Push key %d below last popped key %d", key, h.last))
	}
	h.add(bits.Len32(uint32(key^h.last)), radixEntry{key, item})
	h.n++
}

// add appends e to bucket b. A full bucket doubles, where append would
// switch to 1.25x steps past 256 entries: the buckets are reused across
// queries of different sizes, and with 33 of them each finer step is
// another allocation some later, slightly larger query has to make.
func (h *RadixHeap) add(b int, e radixEntry) {
	bk := h.buckets[b]
	n := len(bk)
	if n == cap(bk) {
		bk = append(make([]radixEntry, 0, max(1, 2*n)), bk...)
	}
	bk = bk[:n+1]
	bk[n] = e
	h.buckets[b] = bk
	h.nonEmpty |= 1 << uint(b)
}

// PopMin removes and returns an entry with the smallest key. Of two entries
// with equal keys the one pushed later surfaces first, whatever else is
// queued: equal keys always share a bucket, Push and refill append in order,
// refill only ever fills empty buckets, and PopMin takes from the end. A
// search may rely on this — its tie-breaking is then the same whether or not
// unrelated entries share the queue. It panics on an empty queue.
func (h *RadixHeap) PopMin() (item int32, key timeutil.Ticks) {
	if h.n == 0 {
		panic("pq: PopMin on empty queue")
	}
	if h.nonEmpty&1 == 0 {
		h.refill()
	}
	b0 := h.buckets[0]
	e := b0[len(b0)-1]
	h.buckets[0] = b0[:len(b0)-1]
	if len(b0) == 1 {
		h.nonEmpty &^= 1
	}
	h.n--
	return e.item, e.key
}

// refill advances the floor to the smallest queued key and redistributes
// the lowest non-empty bucket around it. Every entry of that bucket agrees
// with the new floor on the bucket's leading bit, so all of them land in
// strictly lower buckets and at least one in bucket 0.
func (h *RadixHeap) refill() {
	b := bits.TrailingZeros64(h.nonEmpty)
	src := h.buckets[b]
	min := src[0].key
	for _, e := range src[1:] {
		if e.key < min {
			min = e.key
		}
	}
	h.last = min
	for _, e := range src {
		h.add(bits.Len32(uint32(e.key^min)), e)
	}
	h.buckets[b] = src[:0]
	h.nonEmpty &^= 1 << uint(b)
}
