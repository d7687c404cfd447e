package core

import (
	"math/rand"
	"sort"
	"testing"

	"transit/internal/timeutil"
)

func checkBoundaries(t *testing.T, b []int, k int) {
	t.Helper()
	if b[0] != 0 || b[len(b)-1] != k {
		t.Fatalf("boundaries must span [0,%d]: %v", k, b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatalf("boundaries not monotone: %v", b)
		}
	}
}

func sortedDeps(rng *rand.Rand, k int, skew bool) []timeutil.Ticks {
	deps := make([]timeutil.Ticks, k)
	for i := range deps {
		if skew {
			// Rush-hour-like: mass between 07:00–09:00 and 16:00–18:00.
			if rng.Intn(2) == 0 {
				deps[i] = timeutil.Ticks(420 + rng.Intn(120))
			} else {
				deps[i] = timeutil.Ticks(960 + rng.Intn(120))
			}
		} else {
			deps[i] = timeutil.Ticks(rng.Intn(1440))
		}
	}
	sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
	return deps
}

func TestEqualConnsBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	deps := sortedDeps(rng, 103, true)
	b := partitionInto(nil, deps, day, 4, EqualConnections)
	checkBoundaries(t, b, 103)
	sizes := chunkSizes(b)
	for _, s := range sizes {
		if s < 25 || s > 26 {
			t.Fatalf("equal-conns sizes unbalanced: %v", sizes)
		}
	}
}

func TestTimeSlotsRespectSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	deps := sortedDeps(rng, 200, false)
	p := 4
	b := partitionInto(nil, deps, day, p, EqualTimeSlots)
	checkBoundaries(t, b, 200)
	for t2 := 0; t2 < p; t2++ {
		lo, hi := timeutil.Ticks(t2*1440/p), timeutil.Ticks((t2+1)*1440/p)
		for i := b[t2]; i < b[t2+1]; i++ {
			if deps[i] < lo || deps[i] >= hi {
				t.Fatalf("dep %d in slot %d [%d,%d)", deps[i], t2, lo, hi)
			}
		}
	}
}

// On rush-hour-skewed inputs equal time slots must be visibly less balanced
// than equal connections — the paper's motivation for the latter.
func TestTimeSlotsUnbalancedUnderSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	deps := sortedDeps(rng, 400, true)
	slots := chunkSizes(partitionInto(nil, deps, day, 4, EqualTimeSlots))
	conns := chunkSizes(partitionInto(nil, deps, day, 4, EqualConnections))
	spread := func(s []int) int {
		mn, mx := s[0], s[0]
		for _, v := range s {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return mx - mn
	}
	if spread(slots) <= spread(conns) {
		t.Fatalf("time slots (%v) not less balanced than equal conns (%v)", slots, conns)
	}
}

func TestKMeansValid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(150)
		p := 1 + rng.Intn(8)
		deps := sortedDeps(rng, k, trial%2 == 0)
		b := partitionInto(nil, deps, day, p, KMeans)
		checkBoundaries(t, b, k)
		if len(b)-1 > p {
			t.Fatalf("k-means produced %d chunks, asked for %d", len(b)-1, p)
		}
	}
}

func TestKMeansFindsClusters(t *testing.T) {
	// Two tight clusters; k-means with p=2 should split exactly between.
	deps := []timeutil.Ticks{100, 101, 102, 103, 900, 901, 902}
	b := partitionInto(nil, deps, day, 2, KMeans)
	checkBoundaries(t, b, 7)
	if b[1] != 4 {
		t.Fatalf("k-means split at %d, want 4: %v", b[1], b)
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	// Empty conn(S).
	for _, strat := range []PartitionStrategy{EqualConnections, EqualTimeSlots, KMeans} {
		b := partitionInto(nil, nil, day, 4, strat)
		checkBoundaries(t, b, 0)
	}
	// p = 1.
	deps := []timeutil.Ticks{5, 10, 15}
	b := partitionInto(nil, deps, day, 1, EqualConnections)
	if len(b) != 2 || b[1] != 3 {
		t.Fatalf("p=1 wrong: %v", b)
	}
	// p < 1 coerced to 1.
	b = partitionInto(nil, deps, day, 0, EqualConnections)
	checkBoundaries(t, b, 3)
	// More threads than connections.
	b = partitionInto(nil, deps, day, 10, EqualConnections)
	checkBoundaries(t, b, 3)
}

func TestPartitionStrategyString(t *testing.T) {
	if EqualConnections.String() != "equal-connections" ||
		EqualTimeSlots.String() != "equal-time-slots" ||
		KMeans.String() != "k-means" {
		t.Fatal("strategy names changed")
	}
	if PartitionStrategy(42).String() == "" {
		t.Fatal("unknown strategy must still render")
	}
}
