package core

import (
	"fmt"
	"slices"

	"transit/internal/graph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
	"transit/internal/ttf"
)

// ProfileResult holds the outcome of a one-to-all profile search from a
// source station: for every station T and every seed connection index i,
// the arrival time arr(T, i) at T's station node (Infinity when connection i
// does not usefully reach T). Station profiles dist(S, T, ·) are derived on
// demand by connection reduction (Section 3.1). Route-node labels live only
// in the search's own label row and are not kept.
//
// The arrivals are workspace memory, filled with Infinity when the search
// starts, and the parent links are generation-stamped workspace memory.
// Results produced by a Workspace query method are therefore valid only
// until the next query on that workspace; Detach copies out what a caller
// keeps.
//
// Without footpaths the seed list is exactly the paper's conn(S). With
// footpaths it is the extended list (see extendedConns): connections of
// walk-reachable stations with *effective* departures from the source, so
// itineraries that begin on foot are represented too. Journeys consisting
// of walking only are handled separately (WalkOnly / EarliestArrival).
type ProfileResult struct {
	Source timetable.StationID
	// Conns lists the seed connections, ordered non-decreasingly by
	// effective departure; index i in all labels refers to this ordering.
	Conns []timetable.ConnID
	// Deps caches the effective departure times from the source (equal to
	// τ_dep(c_i) when c_i departs the source itself; earlier by the walking
	// time when it departs a footpath neighbour; may be negative, wrapping
	// periodically).
	Deps []timeutil.Ticks
	// Run carries the work counters and timing of the search.
	Run stats.Run

	g    *graph.Graph
	walk map[timetable.StationID]timeutil.Ticks

	// arr holds arr(T, i) at index T·k + i, numStations × k: station nodes
	// are the first NumStations nodes, so T·k + i is also the label index of
	// (StationNode(T), i).
	arr []timeutil.Ticks

	// Parent links, present only when Options.TrackParents was set, for
	// numNodes × k labels: journeys chain through route nodes. parentNode[li]
	// is meaningful iff parentGen[li] == gen; a detached result owns
	// materialized copies instead, with no stamps and every slot meaningful.
	gen        uint32
	detached   bool
	hasParents bool
	parentNode []graph.NodeID
	parentConn []timetable.ConnID
	parentGen  []uint32
}

// newProfileResult dimensions the workspace for a full-period profile
// search and returns its (workspace-owned) result shell.
func (ws *Workspace) newProfileResult(g *graph.Graph, source timetable.StationID, opts Options) *ProfileResult {
	return ws.newProfileResultWindow(g, source, opts, 0, timeutil.Infinity)
}

// newProfileResultWindow restricts the seed list to effective departures in
// [from, to] — the interval profile search of Dean [5] referenced in the
// paper's related work ("all quickest connections in a given time
// interval"). The full-period search passes [0, ∞). A departure is a time
// point of the period: a walk into a train just after midnight has a
// negative effective departure, and it is in the window when its wrapped
// time point is.
func (ws *Workspace) newProfileResultWindow(g *graph.Graph, source timetable.StationID, opts Options, from, to timeutil.Ticks) *ProfileResult {
	gen := ws.begin()
	tt := g.TT
	walk := ws.walkDistances(tt, source)
	connIDs, deps := ws.extendedConns(tt, source, walk)
	if from > 0 || !to.IsInf() {
		// Filter into workspace memory. connIDs may alias the timetable's
		// own outgoing-connection slice, which must never be compacted in
		// place.
		ws.conns = append(ws.conns[:0], connIDs...)
		fc := ws.conns[:0]
		fd := deps[:0] // deps is always workspace memory
		for i, d := range deps {
			if w := tt.Period.Wrap(d); w >= from && w <= to {
				fc = append(fc, ws.conns[i])
				fd = append(fd, d)
			}
		}
		connIDs, deps = fc, fd
	}
	k := len(connIDs)
	ws.ensureLabels(g.NumStations()*k, g.NumNodes()*k, opts.TrackParents)
	r := &ws.pres
	*r = ProfileResult{
		Source: source,
		Conns:  connIDs,
		Deps:   deps,
		g:      g,
		walk:   walk,
		arr:    ws.arr,
		gen:    gen,
	}
	if opts.TrackParents {
		r.hasParents = true
		r.parentNode = ws.parentNode
		r.parentConn = ws.parentConn
		r.parentGen = ws.parentGen
	}
	return r
}

// K returns |conn(S)|, the number of outgoing connections of the source.
func (r *ProfileResult) K() int { return len(r.Conns) }

// Detach returns a caller-owned copy of the result that survives the
// workspace's next query: the seed list, the walk distances, the counters
// and the numStations × k arrivals (one copy). Parent links chain through
// route nodes, so they are copied in full, materialized through their
// stamps, but only when the search tracked them.
//
// A detached result answers everything a workspace result does
// (StationArrival, StationArrivals, StationProfile, EarliestArrival,
// WalkOnly, JourneyConnections).
func (r *ProfileResult) Detach() *ProfileResult {
	out := &ProfileResult{
		Source:     r.Source,
		Conns:      append([]timetable.ConnID(nil), r.Conns...),
		Deps:       append([]timeutil.Ticks(nil), r.Deps...),
		Run:        r.Run,
		g:          r.g,
		walk:       make(map[timetable.StationID]timeutil.Ticks, len(r.walk)),
		detached:   true,
		hasParents: r.hasParents,
	}
	out.Run.PerThread = append([]stats.Counters(nil), r.Run.PerThread...)
	for s, d := range r.walk {
		out.walk[s] = d
	}
	out.arr = slices.Clone(r.arr)
	if r.hasParents {
		n := r.g.NumNodes() * len(r.Conns)
		out.parentNode = make([]graph.NodeID, n)
		out.parentConn = make([]timetable.ConnID, n)
		for li := range out.parentNode {
			out.parentNode[li], out.parentConn[li] = r.parentAt(li)
		}
	}
	return out
}

// MemBytes approximates the heap memory the result keeps alive: the
// numStations × k arrivals and, when tracked, the numNodes × k parent links
// dominate, at 4 bytes per entry.
func (r *ProfileResult) MemBytes() int {
	n := 4*(len(r.Conns)+len(r.Deps)) + 4*len(r.arr) + 24*len(r.walk)
	if r.hasParents {
		n += 4*len(r.parentNode) + 4*len(r.parentConn) + 4*len(r.parentGen)
	}
	return n
}

// label returns the flat index of (v, i): into the parent links for any
// node, and into arr for a station node.
func (r *ProfileResult) label(v graph.NodeID, i int) int { return int(v)*len(r.Conns) + i }

// stationRow returns arr(T, ·), the k arrivals of station T, in place.
func (r *ProfileResult) stationRow(t timetable.StationID) []timeutil.Ticks {
	base := r.label(r.g.StationNode(t), 0)
	return r.arr[base : base+len(r.Conns)]
}

// setParent records a parent link for journey extraction.
func (r *ProfileResult) setParent(li int, node graph.NodeID, conn timetable.ConnID) {
	r.parentNode[li] = node
	r.parentConn[li] = conn
	r.parentGen[li] = r.gen
}

// parentAt reads a parent link; unset slots read as (NoNode, -1).
func (r *ProfileResult) parentAt(li int) (graph.NodeID, timetable.ConnID) {
	if !r.detached && r.parentGen[li] != r.gen {
		return graph.NoNode, -1
	}
	return r.parentNode[li], r.parentConn[li]
}

// StationArrival returns arr(T, i) at the station node of T.
func (r *ProfileResult) StationArrival(t timetable.StationID, i int) timeutil.Ticks {
	return r.stationRow(t)[i]
}

// StationArrivals returns the full label vector arr(T, ·) of a station as
// a freshly allocated slice the caller may keep and modify.
func (r *ProfileResult) StationArrivals(t timetable.StationID) []timeutil.Ticks {
	return slices.Clone(r.stationRow(t))
}

// StationProfile reduces the label vector of T into the distance function
// dist(S, T, ·) (Section 3.1, "Connection Reduction"). It reads the
// arrivals in place: the function keeps no reference to them.
func (r *ProfileResult) StationProfile(t timetable.StationID) (*ttf.Function, error) {
	return ttf.FromArrivals(r.g.TT.Period, r.Deps, r.stationRow(t))
}

// AppendStationProfile appends the reduced points of StationProfile(t) to
// dst (ttf.AppendReduced): the distance table reduces a whole row into one
// reused buffer this way, with no allocation per target.
func (r *ProfileResult) AppendStationProfile(dst []ttf.Point, t timetable.StationID) ([]ttf.Point, error) {
	return ttf.AppendReduced(dst, r.g.TT.Period, r.Deps, r.stationRow(t))
}

// WalkOnly returns the pure walking time from the source to t over
// footpaths (0 for the source itself, Infinity when not walkable).
func (r *ProfileResult) WalkOnly(t timetable.StationID) timeutil.Ticks {
	return distOrInf(r.walk, t)
}

// EarliestArrival evaluates the profile at T for a departure at the
// absolute time at: the earliest arrival over all connection points, or on
// foot alone when that is faster. It is what a time-query from the same
// source would return. The source station itself is answered trivially
// with at (you are already there); its stored profile only describes
// itineraries that board a train and return.
func (r *ProfileResult) EarliestArrival(t timetable.StationID, at timeutil.Ticks) timeutil.Ticks {
	if t == r.Source {
		return at
	}
	best := timeutil.Infinity
	if w := r.WalkOnly(t); !w.IsInf() {
		best = at + w
	}
	f, err := r.StationProfile(t)
	if err != nil {
		return best
	}
	if a := f.EvalArrival(at); a < best {
		best = a
	}
	return best
}

// HasParents reports whether parent links were recorded.
func (r *ProfileResult) HasParents() bool { return r.hasParents }

// JourneyConnections reconstructs the elementary connections ridden by the
// itinerary of connection index i to station t, in travel order. It returns
// an error when parents were not tracked or (t, i) is unreachable.
func (r *ProfileResult) JourneyConnections(t timetable.StationID, i int) ([]timetable.ConnID, error) {
	if !r.HasParents() {
		return nil, fmt.Errorf("core: journey extraction requires Options.TrackParents")
	}
	if i < 0 || i >= len(r.Conns) {
		return nil, fmt.Errorf("core: connection index %d out of range [0,%d)", i, len(r.Conns))
	}
	if r.StationArrival(t, i).IsInf() {
		return nil, fmt.Errorf("core: station %d unreachable via connection %d", t, i)
	}
	v := r.g.StationNode(t)
	var rides []timetable.ConnID
	for steps := 0; ; steps++ {
		if steps > r.g.NumNodes()+1 {
			return nil, fmt.Errorf("core: parent chain cycle at node %d", v)
		}
		p, c := r.parentAt(r.label(v, i))
		if p == graph.NoNode {
			break // reached the seed route node
		}
		if c >= 0 {
			rides = append(rides, c)
		}
		v = p
	}
	// Reverse into travel order.
	for a, b := 0, len(rides)-1; a < b; a, b = a+1, b-1 {
		rides[a], rides[b] = rides[b], rides[a]
	}
	return rides, nil
}
