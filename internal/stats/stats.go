// Package stats collects the work counters the paper reports: settled
// connections (queue extractions that were not pruned), total queue
// operations, and — for parallel runs — the per-thread maxima that bound
// achievable speed-up. Counters are plain values filled in by each
// algorithm run; they are never shared between goroutines (each thread owns
// its own Counters and a merge step aggregates).
package stats

import (
	"fmt"
	"time"
)

// Counters accumulates the work of one search (or one thread of a parallel
// search).
type Counters struct {
	// SettledConns counts the paper's "settled connections": queue
	// extractions that passed the prunings and relaxed their edges, plus,
	// in the settle loop's searches without a distance table, every route
	// record a trip scan writes (those route nodes are never queued).
	SettledConns int64
	// PrunedConns counts labels refused or discarded by self-pruning,
	// stopping criterion, distance-table or target pruning. A ride the
	// settle loop refuses unevaluated because it repeats a departure already
	// taken counts as the record check would have counted it.
	PrunedConns int64
	// QueuePushes counts insert + decrease-key operations. The settle loop
	// queues stations and seeds, and route nodes only in a search a distance
	// table prunes.
	QueuePushes int64
	// QueuePops counts live extract-min operations, of what QueuePushes
	// queued.
	QueuePops int64
	// Relaxed counts edge relaxations.
	Relaxed int64
	// CancelPolls counts cancel-stride checks: how often the settle loop
	// looked at the Done channel. A measure of cancellation latency — the
	// loop can run for at most (stride × per-pop cost) after a cancel
	// before it notices.
	CancelPolls int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.SettledConns += other.SettledConns
	c.PrunedConns += other.PrunedConns
	c.QueuePushes += other.QueuePushes
	c.QueuePops += other.QueuePops
	c.Relaxed += other.Relaxed
	c.CancelPolls += other.CancelPolls
}

func (c Counters) String() string {
	return fmt.Sprintf("settled=%d pruned=%d pushes=%d pops=%d relaxed=%d",
		c.SettledConns, c.PrunedConns, c.QueuePushes, c.QueuePops, c.Relaxed)
}

// Run describes one complete query execution, possibly multi-threaded.
type Run struct {
	// Total aggregates all threads.
	Total Counters
	// PerThread holds each thread's counters (len 1 for sequential runs).
	PerThread []Counters
	// Elapsed is the wall-clock duration of the query.
	Elapsed time.Duration
}

// MaxThreadSettled returns the largest per-thread settled-connection count:
// the critical path that bounds parallel speed-up, since the final merge
// must wait for the slowest thread.
func (r *Run) MaxThreadSettled() int64 {
	var max int64
	for _, t := range r.PerThread {
		if t.SettledConns > max {
			max = t.SettledConns
		}
	}
	return max
}

// IdealSpeedup estimates the machine-independent speed-up of this parallel
// run over the given sequential baseline: baseline work divided by the
// critical-path work of the slowest thread. On a machine with enough cores
// and perfect memory scaling, wall-clock speed-up approaches this value.
func (r *Run) IdealSpeedup(sequential *Run) float64 {
	m := r.MaxThreadSettled()
	if m == 0 {
		return 1
	}
	return float64(sequential.Total.SettledConns) / float64(m)
}

// Aggregate sums a slice of runs into totals and mean elapsed time.
type Aggregate struct {
	Queries int
	Total   Counters
	// SumMaxThreadSettled accumulates each run's critical path.
	SumMaxThreadSettled int64
	SumElapsed          time.Duration
}

// Observe folds one run into the aggregate.
func (a *Aggregate) Observe(r *Run) {
	a.Queries++
	a.Total.Add(r.Total)
	a.SumMaxThreadSettled += r.MaxThreadSettled()
	a.SumElapsed += r.Elapsed
}

// MeanSettled returns average settled connections per query.
func (a *Aggregate) MeanSettled() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.Total.SettledConns) / float64(a.Queries)
}

// MeanElapsed returns the average query duration.
func (a *Aggregate) MeanElapsed() time.Duration {
	if a.Queries == 0 {
		return 0
	}
	return a.SumElapsed / time.Duration(a.Queries)
}

// MeanMaxThreadSettled returns the average critical path per query.
func (a *Aggregate) MeanMaxThreadSettled() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.SumMaxThreadSettled) / float64(a.Queries)
}
