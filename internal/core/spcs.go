package core

import (
	"fmt"
	"sync"
	"time"

	"transit/internal/graph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// spcsWorker runs the self-pruning connection-setting search for the
// contiguous global connection range [lo, hi) of conn(S) (Section 3.1). It
// borrows its priority queue and its label records from a per-thread
// workerSpace; the arrival (and parent) arrays of the shared ProfileResult
// are written only at global indexes in [lo, hi), so concurrent workers
// never touch the same label.
//
// The queue is a monotone radix heap with lazy deletion over fused label
// records; the package comment ("Queue and label layout") states the
// invariant and why that is exact.
type spcsWorker struct {
	g    *graph.Graph
	res  *ProfileResult
	opts Options
	lo   int
	hi   int
	ws   *workerSpace
	gen  uint32
	// limit is one past the largest key the search keeps: Infinity, or lower
	// when the caller needs nothing that arrives later (oneToAll).
	limit timeutil.Ticks

	counters stats.Counters
	// cancelled is set when the worker abandoned its range because
	// Options.Done closed; the orchestrator turns it into ErrCancelled.
	cancelled bool
}

// run executes the worker. Queue items encode (node, local connection
// index) as (i-lo)*numNodes + node; keys are absolute arrival times. The
// label records are indexed by item, so one connection's labels are one
// contiguous row in node order: riding a train walks consecutive route
// nodes, hence consecutive records, and the stations a connection alights
// at share the row's first numStations records — where the node-major
// layout put every one of those on its own cache line.
func (w *spcsWorker) run() {
	g, res := w.g, w.res
	kLocal := w.hi - w.lo
	if kLocal == 0 {
		return
	}
	numNodes := g.NumNodes()
	gen := w.gen
	tentative, settled := gen<<1, gen<<1|1
	heap := &w.ws.radix
	heap.Reset()
	// labels and maxconn are generation-stamped: a pair is untouched (and
	// maxconn(v) = -1, unvisited) unless its stamp belongs to this query's
	// generation, so no O(n·k) clearing sweep runs between queries.
	labels := growLabels(w.ws.labels, numNodes*kLocal)
	w.ws.labels = labels
	maxconn := growI32(w.ws.maxconn, numNodes)
	w.ws.maxconn = maxconn
	maxconnGen := growU32(w.ws.maxconnGen, numNodes)
	w.ws.maxconnGen = maxconnGen

	// Initialization: seed (r, i) with key τ_dep(c_i) at the route node r
	// where connection c_i departs. Keys are the *real* departure time
	// points (arrival times at the departure platform); res.Deps holds the
	// effective departures from the source, which differ for walk-seeded
	// connections. Seeds are distinct pairs, so each is a plain insert.
	for i := w.lo; i < w.hi; i++ {
		id := res.Conns[i]
		it := (i-w.lo)*numNodes + int(g.ConnDepartureNode(id))
		dep := g.TT.Connections[id].Dep
		if dep >= w.limit {
			continue // a walk-seeded connection that leaves after the bound
		}
		labels[it] = label{key: dep, stamp: tentative}
		heap.Push(int32(it), dep)
		w.counters.QueuePushes++
	}

	done := w.opts.Done
	hasParents := res.hasParents
	un := uint32(numNodes)
	for !heap.Empty() {
		it, key := heap.PopMin()
		if labels[it].stamp == settled {
			continue // stale entry of a pair that surfaced with a better key
		}
		labels[it].stamp = settled
		w.counters.QueuePops++
		if done != nil && w.counters.QueuePops&cancelMask == 0 {
			w.counters.CancelPolls++
			if cancelled(done) {
				w.cancelled = true
				return
			}
		}
		// 32-bit unsigned division: items are non-negative int32.
		iLocal := int(uint32(it) / un)
		row := iLocal * numNodes
		v := graph.NodeID(int(it) - row)
		i := w.lo + iLocal

		// Self-pruning: v was settled earlier by a later connection j > i
		// with arr(v, j) ≤ arr(v, i); connection i does not pay off here.
		mc := int32(-1)
		if maxconnGen[v] == gen {
			mc = maxconn[v]
		}
		if !w.opts.DisableSelfPruning && int32(i) <= mc {
			w.counters.PrunedConns++
			continue // arr stays Infinity: connection i does not 'reach' v
		}
		if int32(i) > mc {
			maxconn[v] = int32(i)
			maxconnGen[v] = gen
		}
		res.setArr(res.label(v, i), key)
		w.counters.SettledConns++

		// Relax all outgoing edges of (v, i) at arrival time key.
		edges := g.OutEdges(v)
		for e := range edges {
			edge := &edges[e]
			// EvalEdge by hand: the call is too big to inline and most
			// edges are constant-weight.
			arrTent, ride := key+edge.W, timetable.ConnID(-1)
			if edge.Kind == graph.Ride {
				arrTent, ride = g.EvalRide(edge, key)
			}
			w.counters.Relaxed++
			// Infinity included. Read through w, not hoisted: the loop is
			// out of registers and a local cost 2 % on the dense workload.
			if arrTent >= w.limit {
				continue
			}
			hi := row + int(edge.Head)
			l := &labels[hi]
			if l.stamp == settled || (l.stamp == tentative && arrTent >= l.key) {
				continue // connection-setting: (head, i) final, or no better
			}
			*l = label{key: arrTent, stamp: tentative}
			heap.Push(int32(hi), arrTent)
			w.counters.QueuePushes++
			if hasParents {
				res.setParent(res.label(edge.Head, i), v, ride)
			}
		}
	}
}

// OneToAll runs the (possibly parallel) self-pruning connection-setting
// profile search from the source station and returns all labels arr(·, ·)
// (Section 3). With opts.Threads > 1, conn(S) is partitioned by
// opts.Partition and the workers run concurrently; labels are merged by
// construction since workers write disjoint connection columns, and the
// per-station connection reduction of ProfileResult restores the FIFO
// property that is not guaranteed across threads.
//
// The result owns a private workspace and stays valid indefinitely; for
// steady-state query traffic, use Workspace.OneToAll with a pooled
// workspace instead and consume the result before the next query.
func OneToAll(g *graph.Graph, source timetable.StationID, opts Options) (*ProfileResult, error) {
	return NewWorkspace().OneToAllWindow(g, source, 0, timeutil.Infinity, opts)
}

// OneToAllWindow runs the profile search restricted to itineraries leaving
// the source (effectively) within [from, to] — Dean's interval search [5],
// referenced in the paper's related work. The resulting profiles cover
// exactly the departures in the window; with [0, ∞) it is OneToAll.
func OneToAllWindow(g *graph.Graph, source timetable.StationID, from, to timeutil.Ticks, opts Options) (*ProfileResult, error) {
	return NewWorkspace().OneToAllWindow(g, source, from, to, opts)
}

// OneToAll is the workspace-reusing form of the package-level OneToAll.
// The result borrows workspace memory and is valid until the next query on
// this workspace.
func (ws *Workspace) OneToAll(g *graph.Graph, source timetable.StationID, opts Options) (*ProfileResult, error) {
	return ws.OneToAllWindow(g, source, 0, timeutil.Infinity, opts)
}

// OneToAllWindow is the workspace-reusing form of the package-level
// OneToAllWindow.
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
			ws: ws.worker(t), gen: res.gen,
			limit: timeutil.Min(until, timeutil.Infinity-1) + 1,
		}
	}
	if nw == 1 {
		workers[0].run()
	} else {
		var wg sync.WaitGroup
		for t := range workers {
			wg.Add(1)
			go func(w *spcsWorker) {
				defer wg.Done()
				w.run()
			}(&workers[t])
		}
		wg.Wait()
	}

	for t := range workers {
		if workers[t].cancelled {
			return nil, ErrCancelled
		}
	}
	res.Run.PerThread = ws.counters(nw)
	for t := range workers {
		res.Run.PerThread[t] = workers[t].counters
		res.Run.Total.Add(workers[t].counters)
	}
	res.Run.Elapsed = time.Since(start)
	opts.Effort.Observe(&res.Run)
	return res, nil
}
