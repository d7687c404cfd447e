package core

import (
	"fmt"
	"time"

	"transit/internal/graph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// spcsWorker runs the self-pruning connection-setting search for the
// contiguous global connection range [lo, hi) of conn(S) (Section 3.1). It
// borrows its priority queue and its label row from a per-thread
// workerSpace; the station arrivals (and parent links) of the shared
// ProfileResult are written only at global indexes in [lo, hi), so
// concurrent workers never touch the same label.
//
// The connections are searched one at a time, latest departure first, each
// by its own label-setting search over one numNodes-sized label row; the
// package comment ("Queue and label layout") states why that settles the
// same labels as one queue over all of them.
type spcsWorker struct {
	g    *graph.Graph
	res  *ProfileResult
	opts Options
	lo   int
	hi   int
	ws   *workerSpace
	// limit is one past the largest key the search keeps: Infinity, or lower
	// when the caller needs nothing that arrives later (oneToAll).
	limit timeutil.Ticks
	// open counts the time-query's target stations, marked res.gen in
	// targets, that have not settled yet; the search returns when the last
	// one settles. 0 from the start never stops it.
	open    int
	targets []uint32

	outcome
}

// run executes the worker: for i = hi-1 down to lo, one radix-queue search
// from connection c_i's departure node. The row record of node v holds the
// best key any connection of this query has given v so far, stamped with the
// connection that gave it (stamps count up from floor, one per connection).
// When connection i starts, every record stamped by this query therefore
// holds best(v) = min over j > i of arr(v, j), and a seed or push whose key
// is ≥ best(head) is refused: Theorem 1's self-pruning, decided before the
// label is queued instead of when it surfaces. Within connection i's search
// the record is its tentative label (stamp cur), an entry whose key is no
// longer the record's key is superseded, and because no push ties or
// undercuts a settled key, the record is final when its entry surfaces.
// Only a station node's final key leaves the row: it is arr(T, i). A route
// node's keys are read by self-pruning alone, through the row.
//
// A node's ride edge is evaluated through the worker's ride cursor of that
// node (rideCursor), valid from the query's first stamp on.
//
// The time-query is the k = 1 case, a result with no Conns: its one
// virtual connection starts like EarliestArrival's, at the station node of
// S (walking off needs no train) and, without the boarding transfer, on
// every route node of S, all at res.Deps[0].
func (w *spcsWorker) run() {
	g, res := w.g, w.res
	if w.hi == w.lo {
		return
	}
	ws := w.ws
	// Anything stamped below floor is an earlier query's: "no bound".
	floor := ws.beginRow(g.NumNodes(), w.hi-w.lo)
	qfloor := floor
	row, rides := ws.row, ws.rides
	period := g.TT.Period
	heap := &ws.radix
	k := len(res.Deps)
	arr, numStations := res.arr, graph.NodeID(g.NumStations())
	done := w.opts.Done
	hasParents := res.hasParents
	limit := w.limit
	point := res.Conns == nil

	for i := w.hi - 1; i >= w.lo; i-- {
		ws.rowGen++
		cur := ws.rowGen
		if w.opts.DisableSelfPruning {
			floor = cur // later connections bound nothing
		}
		if point {
			// The seeds are distinct nodes, so plain inserts.
			dep := res.Deps[i]
			sn := g.StationNode(res.Source)
			row[sn] = label{key: dep, stamp: cur}
			heap.Reset()
			heap.Push(int32(sn), dep)
			w.counters.QueuePushes++
			for _, e := range g.OutEdges(sn) {
				if e.Kind == graph.Board {
					row[e.Head] = label{key: dep, stamp: cur}
					heap.Push(int32(e.Head), dep)
					w.counters.QueuePushes++
				}
			}
		} else {
			// Seed (r, i) with key τ_dep(c_i) at the route node r where c_i
			// departs. Keys are the *real* departure time points; res.Deps
			// holds the effective departures from the source, which differ
			// for walk-seeded connections.
			id := res.Conns[i]
			r := g.ConnDepartureNode(id)
			dep := g.TT.Connections[id].Dep
			if dep >= limit {
				continue // a walk-seeded connection that leaves after the bound
			}
			if l := row[r]; l.stamp >= floor && dep >= l.key {
				w.counters.PrunedConns++
				continue // a later connection is at r by then: c_i pays off nowhere
			}
			row[r] = label{key: dep, stamp: cur}
			heap.Reset()
			heap.Push(int32(r), dep)
			w.counters.QueuePushes++
		}

		for !heap.Empty() {
			it, key := heap.PopMin()
			if row[it].key != key {
				continue // superseded by a better push of the same node
			}
			w.counters.QueuePops++
			if done != nil && w.counters.QueuePops&cancelMask == 0 {
				w.counters.CancelPolls++
				if cancelled(done) {
					w.cancelled = true
					return
				}
			}
			v := graph.NodeID(it)
			w.counters.SettledConns++
			if v < numStations {
				arr[int(v)*k+i] = key
				if w.open > 0 && w.targets[v] == res.gen {
					if w.open--; w.open == 0 {
						return
					}
				}
			}

			// Relax all outgoing edges of (v, i) at arrival time key.
			edges := g.OutEdges(v)
			for e := range edges {
				edge := &edges[e]
				// EvalEdge by hand: the call is too big to inline and most
				// edges are constant-weight.
				arrTent, ride := key+edge.W, timetable.ConnID(-1)
				if edge.Kind == graph.Ride {
					arrTent, ride = rides[v].eval(g.RideConns(edge), period, key, qfloor, cur)
				}
				w.counters.Relaxed++
				if arrTent >= limit {
					continue // Infinity included
				}
				l := &row[edge.Head]
				if l.stamp >= floor && arrTent >= l.key {
					if l.stamp != cur {
						w.counters.PrunedConns++ // self-pruning (Theorem 1)
					}
					continue // connection-setting: (head, i) no better
				}
				*l = label{key: arrTent, stamp: cur}
				heap.Push(int32(edge.Head), arrTent)
				w.counters.QueuePushes++
				if hasParents {
					res.setParent(int(edge.Head)*k+i, v, ride)
				}
			}
		}
	}
}

// OneToAll runs the (possibly parallel) self-pruning connection-setting
// profile search from the source station and returns the station labels
// arr(T, ·) (Section 3). With opts.Threads > 1, conn(S) is partitioned by
// opts.Partition and the workers run concurrently; labels are merged by
// construction since workers write disjoint connection columns, and the
// per-station connection reduction of ProfileResult restores the FIFO
// property that is not guaranteed across threads.
//
// The result borrows workspace memory and is valid until the next query on
// this workspace.
func (ws *Workspace) OneToAll(g *graph.Graph, source timetable.StationID, opts Options) (*ProfileResult, error) {
	return ws.OneToAllWindow(g, source, 0, timeutil.Infinity, opts)
}

// OneToAllWindow runs the profile search restricted to itineraries leaving
// the source (effectively) within [from, to] — Dean's interval search [5],
// referenced in the paper's related work. The resulting profiles cover
// exactly the departures in the window; with [0, ∞) it is OneToAll.
func (ws *Workspace) OneToAllWindow(g *graph.Graph, source timetable.StationID, from, to timeutil.Ticks, opts Options) (*ProfileResult, error) {
	return ws.oneToAll(g, source, from, to, timeutil.Infinity, opts)
}

// oneToAll is the windowed profile search with an arrival bound: labels
// later than until are never created (arr reads Infinity for them), which
// leaves every label at or before until exactly as the unbounded search
// computes it — keys only grow along a path, and self-pruning of (v, i) by
// a later connection j needs arr(v, j) ≤ arr(v, i), so no label beyond the
// bound ever decides anything about one within it. Infinity is no bound.
func (ws *Workspace) oneToAll(g *graph.Graph, source timetable.StationID, from, to, until timeutil.Ticks, opts Options) (*ProfileResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if int(source) < 0 || int(source) >= g.TT.NumStations() {
		return nil, fmt.Errorf("core: source station %d out of range", source)
	}
	if from > to {
		return nil, fmt.Errorf("core: empty departure window [%d, %d]", from, to)
	}
	if cancelled(opts.Done) {
		return nil, ErrCancelled
	}
	start := time.Now()
	res := ws.newProfileResultWindow(g, source, opts, from, to)
	p := opts.threads()
	ws.bounds = partitionInto(ws.bounds, res.Deps, g.TT.Period, p, opts.Partition)
	bounds := ws.bounds
	nw := len(bounds) - 1

	if cap(ws.spcsBuf) < nw {
		ws.spcsBuf = make([]spcsWorker, nw)
	}
	workers := ws.spcsBuf[:nw]
	for t := 0; t < nw; t++ {
		workers[t] = spcsWorker{
			g: g, res: res, opts: opts,
			lo: bounds[t], hi: bounds[t+1],
			ws:    ws.worker(t),
			limit: timeutil.Min(until, timeutil.Infinity-1) + 1,
		}
	}
	if err := runWorkers(ws, workers, &res.Run); err != nil {
		return nil, err
	}
	res.Run.Elapsed = time.Since(start)
	opts.Effort.Observe(&res.Run)
	return res, nil
}
