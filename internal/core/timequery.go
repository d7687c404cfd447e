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
// absolute arrival time at every node. The arrival store is
// generation-stamped workspace memory; results from Workspace.TimeQuery
// are valid until the next query on the same workspace, while the
// package-level TimeQuery binds a private workspace to the result.
type TimeQueryResult struct {
	Source timetable.StationID
	Depart timeutil.Ticks
	Run    stats.Run

	g      *graph.Graph
	arr    []timeutil.Ticks
	arrGen []uint32
	gen    uint32
}

// Arrival returns the earliest arrival at a node.
func (r *TimeQueryResult) Arrival(v graph.NodeID) timeutil.Ticks {
	if r.arrGen[v] != r.gen {
		return timeutil.Infinity
	}
	return r.arr[v]
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
func TimeQuery(g *graph.Graph, source timetable.StationID, depart timeutil.Ticks, opts Options) (*TimeQueryResult, error) {
	return NewWorkspace().TimeQuery(g, source, depart, opts)
}

// TimeQuery is the workspace-reusing form of the package-level TimeQuery:
// the steady state allocates nothing. The result borrows workspace memory
// and is valid until the next query on this workspace.
func (ws *Workspace) TimeQuery(g *graph.Graph, source timetable.StationID, depart timeutil.Ticks, opts Options) (*TimeQueryResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if int(source) < 0 || int(source) >= g.TT.NumStations() {
		return nil, fmt.Errorf("core: source station %d out of range", source)
	}
	if depart < 0 {
		return nil, fmt.Errorf("core: negative departure time %d", depart)
	}
	if cancelled(opts.Done) {
		return nil, ErrCancelled
	}
	start := time.Now()
	gen := ws.begin()
	n := g.NumNodes()
	ws.nodeArr = growTicks(ws.nodeArr, n)
	ws.nodeArrGen = growU32(ws.nodeArrGen, n)
	ws.nodeSetGen = growU32(ws.nodeSetGen, n)
	res := &ws.tres
	*res = TimeQueryResult{
		Source: source, Depart: depart, g: g,
		arr: ws.nodeArr, arrGen: ws.nodeArrGen, gen: gen,
	}
	settledGen := ws.nodeSetGen
	var c stats.Counters
	heap := ws.worker(0).heap(n)

	push := func(v graph.NodeID, key timeutil.Ticks) {
		if settledGen[v] != gen && heap.Push(int32(v), key) {
			c.QueuePushes++
		}
	}
	sn := g.StationNode(source)
	push(sn, depart)
	for _, e := range g.OutEdges(sn) {
		// Seed route nodes of S without the boarding transfer time.
		if e.Kind == graph.Board {
			push(e.Head, depart)
		}
	}

	done := opts.Done
	for !heap.Empty() {
		it, key := heap.PopMin()
		c.QueuePops++
		if done != nil && c.QueuePops&cancelMask == 0 {
			c.CancelPolls++
			if cancelled(done) {
				return nil, ErrCancelled
			}
		}
		v := graph.NodeID(it)
		settledGen[v] = gen
		res.arr[v] = key
		res.arrGen[v] = gen
		c.SettledConns++
		edges := g.OutEdges(v)
		for e := range edges {
			arrTent, _ := g.EvalEdge(&edges[e], key)
			c.Relaxed++
			if !arrTent.IsInf() {
				push(edges[e].Head, arrTent)
			}
		}
	}
	ws.pt1[0] = c
	res.Run.PerThread = ws.pt1[:1]
	res.Run.Total = c
	res.Run.Elapsed = time.Since(start)
	opts.Effort.Observe(&res.Run)
	return res, nil
}
