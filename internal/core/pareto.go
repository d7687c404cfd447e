package core

import (
	"fmt"
	"sync"
	"time"

	"transit/internal/graph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
	"transit/internal/ttf"
)

// OneToAllPareto implements the paper's stated future work (Section 6):
// multi-criteria profile search minimizing arrival time *and* the number of
// transfers. The paper names the challenge — "keep up the connection-
// setting property and find efficient criteria for self-pruning" — and this
// implementation answers it with *layered* connection-setting:
//
// Labels are arr(v, i, u): the earliest arrival at node v starting with
// outgoing connection i having used exactly u transfers so far (u grows by
// one per Board edge after the first). Keys remain arrival times, and u
// only increases along edges, so the (v, i, u) product space keeps the
// label-setting property — each triple settles at most once.
//
// Self-pruning generalizes per layer prefix: connection j may prune
// connection i at (v, u) iff j > i and j was settled at v in some layer
// u' ≤ u (then arr(v,j,u') ≤ arr(v,i,u) by settle order, and (j, u')
// dominates (i, u) in both criteria). The worker maintains
// maxconn(v, u) = max settled connection index over layers ≤ u, updated in
// O(maxTransfers) per settle — cheap because transfer budgets are small.
//
// The result is, per station and connection, a Pareto vector of arrivals
// by transfer budget; ParetoSet evaluates the Pareto frontier (arrival vs.
// transfers) for any departure time.
func OneToAllPareto(g *graph.Graph, source timetable.StationID, maxTransfers int, opts Options) (*ParetoResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if int(source) < 0 || int(source) >= g.TT.NumStations() {
		return nil, fmt.Errorf("core: source station %d out of range", source)
	}
	if maxTransfers < 0 || maxTransfers > 32 {
		return nil, fmt.Errorf("core: maxTransfers %d out of range [0,32]", maxTransfers)
	}
	if opts.TrackParents {
		return nil, fmt.Errorf("core: Pareto search does not support parent tracking")
	}
	if cancelled(opts.Done) {
		return nil, ErrCancelled
	}
	start := time.Now()

	tt := g.TT
	// A private workspace builds the seed list and lends each worker its
	// queue; the result keeps its memory (walk map and seed slices) alive, so
	// no pooling here.
	ws := NewWorkspace()
	walk := ws.walkDistances(tt, source)
	connIDs, deps := ws.extendedConns(tt, source, walk)
	res := &ParetoResult{
		Source:       source,
		MaxTransfers: maxTransfers,
		Conns:        connIDs,
		Deps:         deps,
		walk:         walk,
		g:            g,
	}
	k := len(res.Conns)
	layers := maxTransfers + 1
	res.arr = make([]timeutil.Ticks, g.NumNodes()*k*layers)
	for i := range res.arr {
		res.arr[i] = timeutil.Infinity
	}

	p := opts.threads()
	bounds := partition(res.Deps, tt.Period, p, opts.Partition)
	nw := len(bounds) - 1
	workers := make([]*paretoWorker, nw)
	for t := 0; t < nw; t++ {
		workers[t] = &paretoWorker{q: res, opts: opts, lo: bounds[t], hi: bounds[t+1], ws: ws.worker(t)}
	}
	if nw == 1 {
		workers[0].run()
	} else {
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *paretoWorker) {
				defer wg.Done()
				w.run()
			}(w)
		}
		wg.Wait()
	}
	for _, w := range workers {
		if w.cancelled {
			return nil, ErrCancelled
		}
	}
	res.Run.PerThread = make([]stats.Counters, nw)
	for t, w := range workers {
		res.Run.PerThread[t] = w.counters
		res.Run.Total.Add(w.counters)
	}
	res.Run.Elapsed = time.Since(start)
	opts.Effort.Observe(&res.Run)
	return res, nil
}

// ParetoResult holds the layered labels of a multi-criteria one-to-all
// profile search.
type ParetoResult struct {
	Source       timetable.StationID
	MaxTransfers int
	Conns        []timetable.ConnID
	Deps         []timeutil.Ticks
	Run          stats.Run

	g    *graph.Graph
	arr  []timeutil.Ticks // node-major, then connection, then layer
	walk map[timetable.StationID]timeutil.Ticks
}

func (r *ParetoResult) layers() int { return r.MaxTransfers + 1 }

// MemBytes approximates the heap memory the result keeps alive: the
// layered label array dominates at numNodes × k × (maxTransfers+1) entries
// of 4 bytes each.
func (r *ParetoResult) MemBytes() int {
	return 4*(len(r.Conns)+len(r.Deps)+len(r.arr)) + 24*len(r.walk)
}

func (r *ParetoResult) label(v graph.NodeID, i, u int) int {
	return (int(v)*len(r.Conns)+i)*r.layers() + u
}

// Arrival returns the earliest arrival at station t starting with
// connection i using at most u transfers (Infinity if impossible).
func (r *ParetoResult) Arrival(t timetable.StationID, i, u int) timeutil.Ticks {
	v := graph.NodeID(t)
	best := timeutil.Infinity
	if u > r.MaxTransfers {
		u = r.MaxTransfers
	}
	for l := 0; l <= u; l++ {
		if a := r.arr[r.label(v, i, l)]; a < best {
			best = a
		}
	}
	return best
}

// StationProfile reduces the labels of station t under a transfer budget
// into the distance function dist_{≤u}(S, t, ·).
func (r *ParetoResult) StationProfile(t timetable.StationID, u int) (*ttf.Function, error) {
	arrs := make([]timeutil.Ticks, len(r.Conns))
	for i := range arrs {
		arrs[i] = r.Arrival(t, i, u)
	}
	return ttf.FromArrivals(r.g.TT.Period, r.Deps, arrs)
}

// ParetoChoice is one point of the arrival/transfers Pareto frontier.
type ParetoChoice struct {
	Transfers int
	Arrival   timeutil.Ticks
}

// ParetoSet returns the Pareto frontier of (transfers, arrival) for
// departing toward station t at the absolute time dep: increasing transfer
// budgets with strictly decreasing arrival times. Walking all the way
// counts as zero transfers. An empty result means t is unreachable within
// MaxTransfers.
func (r *ParetoResult) ParetoSet(t timetable.StationID, dep timeutil.Ticks) ([]ParetoChoice, error) {
	var out []ParetoChoice
	prev := timeutil.Infinity
	if w := distOrInf(r.walk, t); !w.IsInf() && t != r.Source {
		prev = dep + w
		out = append(out, ParetoChoice{Transfers: 0, Arrival: prev})
	}
	for u := 0; u <= r.MaxTransfers; u++ {
		f, err := r.StationProfile(t, u)
		if err != nil {
			return nil, err
		}
		a := f.EvalArrival(dep)
		if a < prev {
			out = append(out, ParetoChoice{Transfers: u, Arrival: a})
			prev = a
		}
	}
	return out, nil
}

// paretoWorker runs the layered connection-setting search for a contiguous
// connection range.
type paretoWorker struct {
	q        *ParetoResult
	opts     Options
	lo, hi   int
	ws       *workerSpace
	counters stats.Counters
	// cancelled is set when the worker abandoned its range because
	// Options.Done closed; OneToAllPareto turns it into ErrCancelled.
	cancelled bool
}

func (w *paretoWorker) run() {
	res := w.q
	g := res.g
	kLocal := w.hi - w.lo
	if kLocal == 0 {
		return
	}
	layers := res.layers()
	numNodes := g.NumNodes()
	stride := kLocal * layers
	heap := w.ws.heap(numNodes * stride)
	settled := make([]bool, numNodes*stride)
	// maxconn(v, u): highest global connection index settled at v in any
	// layer ≤ u; -1 when none.
	maxconn := make([]int32, numNodes*layers)
	for i := range maxconn {
		maxconn[i] = -1
	}

	item := func(v graph.NodeID, iLocal, u int) int32 {
		return int32(int(v)*stride + iLocal*layers + u)
	}

	for i := w.lo; i < w.hi; i++ {
		id := res.Conns[i]
		r := g.ConnDepartureNode(id)
		if heap.Push(item(r, i-w.lo, 0), g.TT.Connections[id].Dep) {
			w.counters.QueuePushes++
		}
	}

	done := w.opts.Done
	for !heap.Empty() {
		it, key := heap.PopMin()
		w.counters.QueuePops++
		if done != nil && w.counters.QueuePops&cancelMask == 0 {
			w.counters.CancelPolls++
			if cancelled(done) {
				w.cancelled = true
				return
			}
		}
		v := graph.NodeID(int(it) / stride)
		rem := int(it) % stride
		iLocal, u := rem/layers, rem%layers
		i := w.lo + iLocal
		settled[it] = true

		if !w.opts.DisableSelfPruning && int32(i) <= maxconn[int(v)*layers+u] {
			w.counters.PrunedConns++
			continue
		}
		// Raise maxconn for this and all higher layers.
		for l := u; l < layers; l++ {
			mi := int(v)*layers + l
			if int32(i) > maxconn[mi] {
				maxconn[mi] = int32(i)
			} else {
				break // higher layers already cover index i
			}
		}
		res.arr[res.label(v, i, u)] = key
		w.counters.SettledConns++

		edges := g.OutEdges(v)
		for e := range edges {
			edge := &edges[e]
			nu := u
			if edge.Kind == graph.Board {
				nu = u + 1
				if nu >= layers {
					continue // transfer budget exhausted
				}
			}
			arrTent, _ := g.EvalEdge(edge, key)
			w.counters.Relaxed++
			if arrTent.IsInf() {
				continue
			}
			hi := item(edge.Head, iLocal, nu)
			if settled[hi] {
				continue
			}
			if heap.Push(hi, arrTent) {
				w.counters.QueuePushes++
			}
		}
	}
}

// WalkOnly returns the pure walking time from the source to t over
// footpaths (Infinity when not walkable).
func (r *ParetoResult) WalkOnly(t timetable.StationID) timeutil.Ticks {
	return distOrInf(r.walk, t)
}
