package core

import (
	"fmt"
	"maps"
	"slices"
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
// one per board after the first: a station's boards move a label up one
// layer, its footpaths and a route node's alight and ride keep the layer).
// Keys remain arrival times, and u only increases along a path, so the
// (v, u) product space keeps the label-setting property — each pair
// settles at most once per connection.
//
// The search runs on the one-to-all schedule (spcsWorker.run): each worker
// searches its connections latest first, one radix-queue search per
// connection over a row of numNodes × (maxTransfers+1) records (v, u).
// Self-pruning generalizes per layer prefix and is decided when a label is
// pushed: connection i refuses (v, u) at key a when a record (v, u′ ≤ u)
// stamped by this query already holds a key ≤ a. Such a record is i's own
// (it reaches v no later with no more transfers) or a later connection's
// (it also leaves no earlier), so it dominates (v, i, u) in both criteria:
// Theorem 1, per layer.
//
// The result is, per station and connection, a Pareto vector of arrivals
// by transfer budget; ParetoSet evaluates the Pareto frontier (arrival vs.
// transfers) for any departure time. The search runs on a workspace of the
// package free list, and the result owns all of its memory.
func OneToAllPareto(g *graph.Graph, source timetable.StationID, maxTransfers int, opts Options) (*ParetoResult, error) {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	return ws.pareto(g, source, maxTransfers, opts)
}

// pareto is OneToAllPareto on this workspace.
func (ws *Workspace) pareto(g *graph.Graph, source timetable.StationID, maxTransfers int, opts Options) (*ParetoResult, error) {
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
	walk := ws.walkDistances(tt, source)
	conns, deps := ws.extendedConns(tt, source, walk)
	res := &ParetoResult{
		Source:       source,
		MaxTransfers: maxTransfers,
		Conns:        slices.Clone(conns),
		Deps:         slices.Clone(deps),
		walk:         maps.Clone(walk),
		g:            g,
	}
	res.arr = make([]timeutil.Ticks, g.NumStations()*len(conns)*res.layers())
	for i := range res.arr {
		res.arr[i] = timeutil.Infinity
	}

	ws.bounds = partitionInto(ws.bounds, res.Deps, tt.Period, opts.threads(), opts.Partition)
	workers := make([]paretoWorker, len(ws.bounds)-1)
	for t := range workers {
		workers[t] = paretoWorker{res: res, opts: opts, lo: ws.bounds[t], hi: ws.bounds[t+1], ws: ws.worker(t)}
	}
	if err := runWorkers(ws, workers, &res.Run); err != nil {
		return nil, err
	}
	res.Run.PerThread = slices.Clone(res.Run.PerThread)
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
	arr  []timeutil.Ticks // station-major, then connection, then layer
	walk map[timetable.StationID]timeutil.Ticks
}

func (r *ParetoResult) layers() int { return r.MaxTransfers + 1 }

// MemBytes approximates the heap memory the result keeps alive: the
// layered station arrivals dominate at numStations × k × (maxTransfers+1)
// entries of 4 bytes each.
func (r *ParetoResult) MemBytes() int {
	return 4*(len(r.Conns)+len(r.Deps)+len(r.arr)) + 24*len(r.walk)
}

// Arrival returns the earliest arrival at station t starting with
// connection i using at most u transfers (Infinity if impossible).
func (r *ParetoResult) Arrival(t timetable.StationID, i, u int) timeutil.Ticks {
	base := (int(t)*len(r.Conns) + i) * r.layers()
	best := timeutil.Infinity
	for l := 0; l <= min(u, r.MaxTransfers); l++ {
		best = min(best, r.arr[base+l])
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

// WalkOnly returns the pure walking time from the source to t over
// footpaths (Infinity when not walkable).
func (r *ParetoResult) WalkOnly(t timetable.StationID) timeutil.Ticks {
	return distOrInf(r.walk, t)
}

// paretoWorker runs the layered connection-setting search for the
// contiguous connection range [lo, hi), on spcsWorker's schedule: one
// radix-queue search per connection, latest departure first, over the
// worker's label row, here numNodes × layers records, record (v, u) at
// index v·layers + u, each with a ride cursor of its own.
type paretoWorker struct {
	res    *ParetoResult
	opts   Options
	lo, hi int
	ws     *workerSpace
	outcome
}

// run executes the worker. Stamps count up from floor, one per connection,
// as in spcsWorker.run; push decides the layered self-pruning. A record
// (v, u) settles at strictly falling keys across the connections of a
// query, so its ride cursor only walks back, as a node's does in the
// one-to-all search. Only a station node's final keys leave the row, into
// arr(T, i, u).
func (w *paretoWorker) run() {
	res := w.res
	g := res.g
	if w.hi == w.lo {
		return
	}
	ws := w.ws
	layers := res.layers()
	floor := ws.beginRow(g.NumNodes()*layers, w.hi-w.lo)
	qfloor := floor
	row, rides := ws.row, ws.rides
	period := g.TT.Period
	heap := &ws.radix
	k := len(res.Conns)
	arr, numStations := res.arr, graph.NodeID(g.NumStations())
	done := w.opts.Done

	for i := w.hi - 1; i >= w.lo; i-- {
		ws.rowGen++
		cur := ws.rowGen
		if w.opts.DisableSelfPruning {
			floor = cur // later connections bound nothing
		}
		// Seed (r, 0) with the real departure of c_i, as spcsWorker does.
		id := res.Conns[i]
		heap.Reset()
		w.push(int(g.ConnDepartureNode(id))*layers, 0, g.TT.Connections[id].Dep, floor, cur)

		for !heap.Empty() {
			it, key := heap.PopMin()
			if row[it].key != key {
				continue // superseded by a better push of the same record
			}
			w.counters.QueuePops++
			if done != nil && w.counters.QueuePops&cancelMask == 0 {
				w.counters.CancelPolls++
				if cancelled(done) {
					w.cancelled = true
					return
				}
			}
			v, u := graph.NodeID(int(it)/layers), int(it)%layers
			w.counters.SettledConns++
			if v >= numStations { // a route node: its alight, then its ride
				w.counters.Relaxed++
				w.push(int(g.Station(v))*layers+u, u, key, floor, cur)
				if conns, ok := g.Ride(v); ok {
					w.counters.Relaxed++
					arrTent, _ := rides[it].eval(conns, period, key, qfloor, cur)
					w.push(int(v+1)*layers+u, u, arrTent, floor, cur)
				}
				continue
			}

			// A station: its key leaves the row; then its boards, each a
			// layer up, and its footpaths.
			arr[(int(v)*k+i)*layers+u] = key
			s := g.Station(v)
			if nu := u + 1; nu < layers {
				board := key + g.TT.Stations[s].Transfer
				for _, r := range g.Boards(s) {
					w.counters.Relaxed++
					w.push(int(r)*layers+nu, nu, board, floor, cur)
				}
			}
			for _, f := range g.TT.FootpathsFrom(s) {
				w.counters.Relaxed++
				w.push(int(f.To)*layers+u, u, key+f.Walk, floor, cur)
			}
		}
	}
}

// push queues record it, (v, u), at key for the connection stamped cur,
// unless key is Infinity (a ride without departures) or a record of v in a
// layer ≤ u stamped since floor holds a key ≤ key: the layered self-pruning
// rule, which also keeps each record of the connection label-setting (a
// settled record refuses every later push).
func (w *paretoWorker) push(it, u int, key timeutil.Ticks, floor, cur uint32) {
	if key.IsInf() {
		return
	}
	row := w.ws.row
	for _, l := range row[it-u : it+1] {
		if l.stamp >= floor && l.key <= key {
			if l.stamp != cur {
				w.counters.PrunedConns++ // self-pruning (Theorem 1, per layer)
			}
			return
		}
	}
	row[it] = label{key: key, stamp: cur}
	w.ws.radix.Push(int32(it), key)
	w.counters.QueuePushes++
}
