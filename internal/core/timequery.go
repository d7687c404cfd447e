package core

import (
	"fmt"
	"time"

	"transit/internal/graph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// TimeQueryResult holds dist(S, ·, τ) for one departure time: the earliest
// absolute arrival time at every node. The arrivals are the search's own
// fused labels, generation-stamped workspace memory, valid until the next
// query on the same workspace.
type TimeQueryResult struct {
	Source timetable.StationID
	Depart timeutil.Ticks
	Run    stats.Run

	g       *graph.Graph
	labels  []label
	settled uint32 // the stamp of a label this search settled
}

// Arrival returns the earliest arrival at a node (Infinity when the search
// did not reach it — or, after TimeQueryTo, did not need to).
func (r *TimeQueryResult) Arrival(v graph.NodeID) timeutil.Ticks {
	if l := r.labels[v]; l.stamp == r.settled {
		return l.key
	}
	return timeutil.Infinity
}

// StationArrival returns the earliest arrival at a station.
func (r *TimeQueryResult) StationArrival(s timetable.StationID) timeutil.Ticks {
	return r.Arrival(r.g.StationNode(s))
}

// TimeQuery computes dist(S, ·, τ) with the time-dependent Dijkstra variant
// of Section 2 ("time-query"): nodes are visited in non-decreasing arrival
// time from the source; the label-setting property guarantees each node is
// settled at most once.
//
// Initialization matches the profile search convention: the station node of
// S and every route node at S are seeded at τ, so no transfer time is paid
// for boarding the first train.
//
// The steady state allocates nothing. The result borrows workspace memory
// and is valid until the next query on this workspace.
func (ws *Workspace) TimeQuery(g *graph.Graph, source timetable.StationID, depart timeutil.Ticks, opts Options) (*TimeQueryResult, error) {
	return ws.TimeQueryTo(g, source, depart, nil, opts)
}

// TimeQueryTo is TimeQuery with a target set: the search stops when the
// last of the target stations settles, and only their arrivals (and those
// of whatever settled before them) are final. A nil or empty set searches
// the whole graph. Out-of-range targets are the caller's bug and panic.
//
// The loop is the one-connection form of the profile loops (package
// comment, "Queue and label layout"): the monotone radix queue with lazy
// deletion over one fused {key, stamp} label per node.
func (ws *Workspace) TimeQueryTo(g *graph.Graph, source timetable.StationID, depart timeutil.Ticks, targets []timetable.StationID, opts Options) (*TimeQueryResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if int(source) < 0 || int(source) >= g.TT.NumStations() {
		return nil, fmt.Errorf("core: source station %d out of range", source)
	}
	if depart < 0 || depart.IsInf() {
		return nil, fmt.Errorf("core: departure time %d out of range [0, %d)", depart, timeutil.Infinity)
	}
	if cancelled(opts.Done) {
		return nil, ErrCancelled
	}
	start := time.Now()
	gen := ws.begin()
	tentative, settled := gen<<1, gen<<1|1
	wsw := ws.worker(0)
	labels := growLabels(wsw.labels, g.NumNodes())
	wsw.labels = labels
	res := &ws.tres
	*res = TimeQueryResult{Source: source, Depart: depart, g: g, labels: labels, settled: settled}

	// Targets are marked on their station nodes; open counts the distinct
	// ones still unsettled (0 from the start: no target set, never stop).
	open := 0
	if len(targets) > 0 {
		ws.nodeSetGen = growU32(ws.nodeSetGen, g.NumStations())
		for _, t := range targets {
			if ws.nodeSetGen[t] != gen {
				ws.nodeSetGen[t] = gen
				open++
			}
		}
	}
	isTarget := ws.nodeSetGen

	var c stats.Counters
	heap := &wsw.radix
	heap.Reset()
	// Seeds: the station node and, without the boarding transfer time,
	// every route node of S. They are distinct nodes, so plain inserts.
	sn := g.StationNode(source)
	labels[sn] = label{key: depart, stamp: tentative}
	heap.Push(int32(sn), depart)
	c.QueuePushes++
	for _, e := range g.OutEdges(sn) {
		if e.Kind == graph.Board {
			labels[e.Head] = label{key: depart, stamp: tentative}
			heap.Push(int32(e.Head), depart)
			c.QueuePushes++
		}
	}

	done := opts.Done
	for !heap.Empty() {
		it, key := heap.PopMin()
		if labels[it].stamp == settled {
			continue // stale entry of a node that surfaced with a better key
		}
		labels[it].stamp = settled
		c.QueuePops++
		if done != nil && c.QueuePops&cancelMask == 0 {
			c.CancelPolls++
			if cancelled(done) {
				return nil, ErrCancelled
			}
		}
		c.SettledConns++
		v := graph.NodeID(it)
		if open > 0 && g.IsStationNode(v) && isTarget[v] == gen {
			if open--; open == 0 {
				break
			}
		}
		edges := g.OutEdges(v)
		for e := range edges {
			edge := &edges[e]
			arrTent := key + edge.W // EvalEdge by hand, as in spcsWorker.run
			if edge.Kind == graph.Ride {
				arrTent, _ = g.EvalRide(edge, key)
			}
			c.Relaxed++
			if arrTent.IsInf() {
				continue
			}
			l := &labels[edge.Head]
			if l.stamp == settled || (l.stamp == tentative && arrTent >= l.key) {
				continue
			}
			*l = label{key: arrTent, stamp: tentative}
			heap.Push(int32(edge.Head), arrTent)
			c.QueuePushes++
		}
	}
	ws.pt1[0] = c
	res.Run.PerThread = ws.pt1[:1]
	res.Run.Total = c
	res.Run.Elapsed = time.Since(start)
	opts.Effort.Observe(&res.Run)
	return res, nil
}
