package core

import (
	"fmt"

	"transit/internal/stats"
)

// Effort aliases stats.Effort so callers attaching a per-query counter
// block only need the core package.
type Effort = stats.Effort

// PartitionStrategy selects how conn(S) is split across threads
// (Section 3.2, "Choice of the Partition").
type PartitionStrategy int

const (
	// EqualConnections splits conn(S) into p contiguous subsets of equal
	// cardinality — the paper's recommended compromise and the default.
	EqualConnections PartitionStrategy = iota
	// EqualTimeSlots splits the period Π into p intervals of equal length;
	// unbalanced under rush hours, included for the ablation.
	EqualTimeSlots
	// KMeans clusters departure times with 1-D k-means (Lloyd), the
	// "more sophisticated" method the paper found insignificant.
	KMeans
)

func (s PartitionStrategy) String() string {
	switch s {
	case EqualConnections:
		return "equal-connections"
	case EqualTimeSlots:
		return "equal-time-slots"
	case KMeans:
		return "k-means"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", int(s))
	}
}

// Options configures profile searches. The zero value means: one thread,
// equal-connections partitioning, self-pruning on, no parent tracking.
type Options struct {
	// Threads is the number of worker goroutines p; values < 1 mean 1.
	Threads int
	// Partition picks the conn(S) partitioning strategy for Threads > 1.
	Partition PartitionStrategy
	// DisableSelfPruning turns the self-pruning rule off (ablation only;
	// the algorithm degenerates to independent per-connection searches).
	DisableSelfPruning bool
	// TrackParents records parent links for journey extraction, at the
	// cost of one node+connection pair per label.
	TrackParents bool
	// Done, when non-nil, makes the search cooperatively cancellable: the
	// settle loops poll the channel once every cancelStride queue pops (a
	// coarse stride, so the steady-state cost is one nil check per pop) and
	// abandon the search with ErrCancelled once it is closed. Callers
	// normally set this to ctx.Done() of the request driving the query.
	Done <-chan struct{}
	// Effort, when non-nil, receives the search's work counters: each
	// orchestrator folds its finished Run into the block with one batch of
	// atomic adds. Nil costs nothing — the settle loops never see it.
	Effort *Effort
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

func (o Options) validate() error {
	switch o.Partition {
	case EqualConnections, EqualTimeSlots, KMeans:
	default:
		return fmt.Errorf("core: unknown partition strategy %d", int(o.Partition))
	}
	return nil
}
