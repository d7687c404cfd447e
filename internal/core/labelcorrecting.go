package core

import (
	"fmt"
	"time"

	"transit/internal/graph"
	"transit/internal/pq"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// LabelCorrecting runs the classic profile-search baseline of Section 2:
// travel-time *functions* instead of scalars are propagated through the
// network, so the label-setting property is lost and nodes re-enter the
// queue whenever any point of their function improves. It keeps the
// functions of all numNodes nodes in a private numNodes × k array, and its
// result holds the station rows of it, label-compatible with OneToAll (same
// arr(T, i) semantics); the work differs greatly — this is the LC row of
// Table 1.
//
// Counting follows the paper: the settled-connections figure is the sum of
// the sizes of the connection labels taken from the priority queue, i.e.
// every pop contributes the number of finite points of the popped node's
// function, all of which are relaxed.
func LabelCorrecting(g *graph.Graph, source timetable.StationID, opts Options) (*ProfileResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if int(source) < 0 || int(source) >= g.TT.NumStations() {
		return nil, fmt.Errorf("core: source station %d out of range", source)
	}
	if opts.TrackParents {
		return nil, fmt.Errorf("core: LabelCorrecting does not support parent tracking")
	}
	start := time.Now()
	ws := NewWorkspace() // private: the result keeps the label memory alive
	res := ws.newProfileResult(g, source, opts)
	k := res.K()
	numNodes := g.NumNodes()
	var c stats.Counters

	heap := pq.New(numNodes)
	arr := make([]timeutil.Ticks, numNodes*k) // arr(v, i) at res.label(v, i)
	for li := range arr {
		arr[li] = timeutil.Infinity
	}

	// Seed the departure route nodes: arr(r, i) = τ_dep(c_i).
	for i, id := range res.Conns {
		r := g.ConnDepartureNode(id)
		li := res.label(r, i)
		arr[li] = min(arr[li], res.Deps[i])
	}
	seeded := make(map[graph.NodeID]bool)
	for _, id := range res.Conns {
		r := g.ConnDepartureNode(id)
		if !seeded[r] {
			seeded[r] = true
			base := res.label(r, 0)
			m := timeutil.Infinity
			for i := 0; i < k; i++ {
				if a := arr[base+i]; a < m {
					m = a
				}
			}
			if heap.Push(int32(r), m) {
				c.QueuePushes++
			}
		}
	}

	// relax offers connection i's label of head the arrival arrTent.
	// Labels start at Infinity, so an unreachable arrival improves none.
	relax := func(head graph.NodeID, i int, arrTent timeutil.Ticks) {
		c.Relaxed++
		if hl := res.label(head, i); arrTent < arr[hl] {
			arr[hl] = arrTent
			if heap.Push(int32(head), arrTent) {
				c.QueuePushes++
			}
		}
	}
	for !heap.Empty() {
		it, _ := heap.PopMin()
		c.QueuePops++
		v := graph.NodeID(it)
		base := res.label(v, 0)
		// The popped label carries all its finite points; each is relaxed
		// along a station's boards and footpaths, or a route node's alight
		// and ride.
		for i := 0; i < k; i++ {
			av := arr[base+i]
			if av.IsInf() {
				continue
			}
			c.SettledConns++ // size of the connection label taken from Q
			if !g.IsStationNode(v) {
				relax(g.StationNode(g.Station(v)), i, av)
				if _, ok := g.Ride(v); ok {
					arrTent, _ := g.EvalRide(v, av)
					relax(v+1, i, arrTent)
				}
				continue
			}
			s := g.Station(v)
			for _, u := range g.Boards(s) {
				relax(u, i, av+g.TT.Stations[s].Transfer)
			}
			for _, f := range g.TT.FootpathsFrom(s) {
				relax(g.StationNode(f.To), i, av+f.Walk)
			}
		}
	}
	copy(res.arr, arr) // the station rows: station nodes come first
	res.Run.PerThread = []stats.Counters{c}
	res.Run.Total = c
	res.Run.Elapsed = time.Since(start)
	return res, nil
}
