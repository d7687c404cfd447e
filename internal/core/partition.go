package core

import (
	"sync"

	"transit/internal/stats"
	"transit/internal/timeutil"
)

// partitionInto splits the index range [0, k) of conn(S) — already sorted
// by departure time — into at most p contiguous chunks, returning p+1
// boundary indexes b with chunk t = [b[t], b[t+1]). Chunks may be empty
// (e.g. a time slot containing no departures). The boundaries reuse buf
// when it is large enough (nil allocates), so the hot query paths avoid a
// per-query allocation.
func partitionInto(buf []int, deps []timeutil.Ticks, period timeutil.Period, p int, strategy PartitionStrategy) []int {
	k := len(deps)
	if p < 1 {
		p = 1
	}
	switch strategy {
	case EqualTimeSlots:
		return partitionTimeSlots(buf, deps, period, p)
	case KMeans:
		return partitionKMeans(buf, deps, p)
	default:
		return partitionEqualConns(buf, k, p)
	}
}

// outcome is what every search worker (spcsWorker, paretoWorker) embeds and
// runWorkers reads back: the worker's work counters, and whether it
// abandoned its range because Options.Done closed.
type outcome struct {
	counters  stats.Counters
	cancelled bool
}

func (o *outcome) result() *outcome { return o }

// searchWorker is the method set runWorkers needs of a worker type W.
type searchWorker[W any] interface {
	*W
	run()
	result() *outcome
}

// runWorkers is the fan-out of every partitioned search: it runs the
// workers, the only one inline and several on goroutines of their own, and
// folds their counters into run (PerThread is workspace memory). It returns
// ErrCancelled when any worker abandoned its range. Generic over the worker
// type, with no closure, so a one-worker search allocates nothing here.
func runWorkers[W any, P searchWorker[W]](ws *Workspace, workers []W, run *stats.Run) error {
	if len(workers) == 1 {
		P(&workers[0]).run()
	} else {
		var wg sync.WaitGroup
		wg.Add(len(workers))
		for t := range workers {
			go runWorker[W, P](&wg, &workers[t])
		}
		wg.Wait()
	}
	run.PerThread = ws.counters(len(workers))
	for t := range workers {
		o := P(&workers[t]).result()
		if o.cancelled {
			return ErrCancelled
		}
		run.PerThread[t] = o.counters
		run.Total.Add(o.counters)
	}
	return nil
}

func runWorker[W any, P searchWorker[W]](wg *sync.WaitGroup, w P) {
	defer wg.Done()
	w.run()
}

// partitionEqualConns makes p chunks whose sizes differ by at most one —
// the paper's "equal number of connections" method.
func partitionEqualConns(buf []int, k, p int) []int {
	b := grow(buf, p+1)
	for t := 0; t <= p; t++ {
		b[t] = t * k / p
	}
	return b
}

// partitionTimeSlots cuts Π into p equal intervals and assigns each
// connection to the slot containing its departure — the paper's "equal
// time-slots" method, unbalanced under rush hours.
func partitionTimeSlots(buf []int, deps []timeutil.Ticks, period timeutil.Period, p int) []int {
	k := len(deps)
	b := grow(buf, p+1)
	pi := int(period.Len())
	idx := 0
	for t := 0; t < p; t++ {
		b[t] = idx
		hi := timeutil.Ticks((t + 1) * pi / p)
		for idx < k && deps[idx] < hi {
			idx++
		}
	}
	b[p] = k
	return b
}

// partitionKMeans runs 1-D Lloyd iterations on the sorted departure times.
// Clusters of sorted scalars are contiguous ranges, so the result is again
// a boundary vector. Initialization is equal-size chunks; a few iterations
// suffice at these sizes.
func partitionKMeans(buf []int, deps []timeutil.Ticks, p int) []int {
	k := len(deps)
	if k == 0 || p == 1 {
		return partitionEqualConns(buf, k, p)
	}
	if p > k {
		p = k
	}
	b := partitionEqualConns(buf, k, p)
	for iter := 0; iter < 32; iter++ {
		// Centroids of current chunks.
		cent := make([]float64, p)
		for t := 0; t < p; t++ {
			lo, hi := b[t], b[t+1]
			if lo == hi {
				// Empty cluster: reseed at the overall middle of its
				// neighbours to keep the boundary vector monotone.
				cent[t] = float64(deps[min(lo, k-1)])
				continue
			}
			var sum float64
			for i := lo; i < hi; i++ {
				sum += float64(deps[i])
			}
			cent[t] = sum / float64(hi-lo)
		}
		// Reassign: each sorted value goes to the nearest centroid;
		// boundaries are where the nearest centroid switches.
		nb := make([]int, p+1)
		nb[p] = k
		idx := 0
		for t := 0; t < p; t++ {
			nb[t] = idx
			if t == p-1 {
				break
			}
			mid := (cent[t] + cent[t+1]) / 2
			for idx < k && float64(deps[idx]) <= mid {
				idx++
			}
		}
		changed := false
		for t := range nb {
			if nb[t] != b[t] {
				changed = true
				break
			}
		}
		b = nb
		if !changed {
			break
		}
	}
	return b
}

// chunkSizes is a debugging/bench helper reporting the size of each chunk.
func chunkSizes(b []int) []int {
	out := make([]int, len(b)-1)
	for t := 0; t < len(out); t++ {
		out[t] = b[t+1] - b[t]
	}
	return out
}
