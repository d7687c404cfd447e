// Package graph builds the realistic time-dependent model of Pyrga et al.
// [23] from a periodic timetable, as used by the paper (Section 2, Figure 1):
// one station node per station, one route node per (route, station on that
// route), constant-weight transfer edges between station and route nodes,
// and time-dependent route edges between consecutive route nodes of a route
// carrying the elementary connections of that route as connection points.
//
// Fixed model conventions: the boarding edge station→route node has
// constant weight T(S), the station's minimum transfer time; the alighting
// edge route node→station has weight 0; a footpath is a station→station
// edge with its constant walking time. Sources are initialized directly at
// route nodes, so no transfer time is paid when boarding the very first
// train, and none is paid on final arrival at the target station node. All
// edge weights are therefore non-negative and every travel-time function
// is FIFO, which is what makes arrival-time keys monotone in the searches.
package graph

import (
	"cmp"
	"fmt"
	"slices"

	"transit/internal/csr"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// NodeID indexes the nodes of the time-dependent graph. Station nodes come
// first ([0, NumStations)), then route nodes.
type NodeID int32

// NoNode is the invalid node sentinel.
const NoNode NodeID = -1

// EdgeKind distinguishes the three edge types of the realistic model.
type EdgeKind uint8

const (
	// Board is a station node → route node edge with constant weight T(S).
	Board EdgeKind = iota
	// Alight is a route node → station node edge with weight 0.
	Alight
	// Ride is a time-dependent route node → route node edge holding the
	// elementary connections between two consecutive stations of a route.
	Ride
	// Walk is a station node → station node footpath with constant walking
	// time, usable at any moment.
	Walk
)

func (k EdgeKind) String() string {
	switch k {
	case Board:
		return "board"
	case Alight:
		return "alight"
	case Ride:
		return "ride"
	case Walk:
		return "walk"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Edge is an outgoing edge of the time-dependent graph. For Board/Alight
// edges W holds the constant weight; for Ride edges [First, First+Num)
// indexes the graph's RideConns.
type Edge struct {
	Head  NodeID
	Kind  EdgeKind
	W     timeutil.Ticks
	First int32
	Num   int32
}

// RideConn is one departure on a ride edge: at time point Dep a vehicle
// leaves, taking Dur ticks to the head route node; Conn is the underlying
// elementary connection (for journey extraction).
type RideConn struct {
	Dep  timeutil.Ticks
	Dur  timeutil.Ticks
	Conn timetable.ConnID
}

// Graph is the realistic time-dependent model of a timetable. It is
// immutable after Build and safe for concurrent readers; all query state
// lives in the algorithms, never in the graph.
type Graph struct {
	TT *timetable.Timetable

	firstOut  []int32 // CSR offsets, len = numNodes+1
	edges     []Edge
	rideConns []RideConn

	nodeStation []timetable.StationID // st(u) for every node
	routeOffset []NodeID              // first node of each route
	connDepNode []NodeID              // departing route node per connection
	connArrNode []NodeID              // arriving route node per connection

	// Incremental-update indexes (PatchTimes): the ride edge every
	// connection lives on, and per edge the full (pre-reduction) member
	// list needed to recompute the edge's departures after a retime.
	connRideEdge []int32              // per connection: index into edges (-1 for cancelled-at-build)
	rideAllConns [][]timetable.ConnID // per edge index: member connections of a Ride edge (nil otherwise)

	numStations int
}

// Build constructs the time-dependent graph. Connections on each ride edge
// are sorted by departure and dominated departures (a later vehicle on the
// same edge that arrives no later) are dropped; this never changes any
// travel-time function value and makes next-departure evaluation exact.
//
// Every per-node array is indexed by dense IDs: a hop is keyed by its
// departure route node, and each index is one counting pass.
func Build(tt *timetable.Timetable) *Graph {
	nS := tt.NumStations()
	g := &Graph{TT: tt, numStations: nS}
	routes := tt.Routes()

	// Edges: a Board and an Alight edge per route node, a Ride edge per hop
	// of a route, and the footpaths.
	numNodes, numEdges := nS, len(tt.Footpaths)
	g.routeOffset = make([]NodeID, len(routes)+1)
	for i, r := range routes {
		g.routeOffset[i] = NodeID(numNodes)
		numNodes += len(r.Stations)
		numEdges += 2*len(r.Stations) + max(len(r.Stations)-1, 0)
	}
	g.routeOffset[len(routes)] = NodeID(numNodes)

	// Each route node's station, and per station its route nodes in node
	// order (the Board edges).
	g.nodeStation = make([]timetable.StationID, numNodes)
	routeNodes := make([]NodeID, 0, numNodes-nS)
	for s := range nS {
		g.nodeStation[s] = timetable.StationID(s)
	}
	for i, r := range routes {
		for p, s := range r.Stations {
			g.nodeStation[g.routeOffset[i]+NodeID(p)] = s
			routeNodes = append(routeNodes, g.routeOffset[i]+NodeID(p))
		}
	}
	routeNodesAt := csr.Group(nS, routeNodes, func(u NodeID) int32 { return int32(g.nodeStation[u]) })

	// Assign each connection to its ride edge. A train's hops are its
	// connections in ID order (Timetable.TrainConnections); hop h of a train
	// on route r departs route node routeOffset[r]+h. hops is a CSR over
	// route nodes (numbered from 0) of the live connections departing there,
	// in ID order: a cancelled connection keeps its hop slot (so later hops
	// stay aligned with the route's station sequence) but never appears on
	// a ride edge.
	nC := tt.NumConnections()
	g.connDepNode = make([]NodeID, nC)
	g.connArrNode = make([]NodeID, nC)
	g.connRideEdge = make([]int32, nC)
	ids := make([]timetable.ConnID, nC)
	for z := range tt.Trains {
		first := g.routeOffset[tt.RouteOf(timetable.TrainID(z))]
		for h, id := range tt.TrainConnections(timetable.TrainID(z)) {
			g.connDepNode[id], g.connArrNode[id] = first+NodeID(h), first+NodeID(h)+1
		}
	}
	for id := range ids {
		ids[id], g.connRideEdge[id] = timetable.ConnID(id), -1
	}
	hops := csr.Group(numNodes-nS, ids, func(id timetable.ConnID) int32 {
		if tt.Cancelled(id) {
			return -1
		}
		return int32(g.connDepNode[id]) - int32(nS)
	})

	// Emit CSR. Station node s: one Board edge per route node at s, then its
	// footpaths. Route node (r, p): Alight edge, plus Ride edge to (r, p+1)
	// if p is not the last position.
	g.firstOut = make([]int32, numNodes+1)
	g.edges = make([]Edge, 0, numEdges)
	g.rideAllConns = make([][]timetable.ConnID, numEdges)
	g.rideConns = make([]RideConn, 0, nC)
	for s := range nS {
		g.firstOut[s] = int32(len(g.edges))
		for _, rn := range routeNodesAt[s] {
			g.edges = append(g.edges, Edge{Head: rn, Kind: Board, W: tt.Stations[s].Transfer})
		}
		for _, f := range tt.FootpathsFrom(timetable.StationID(s)) {
			g.edges = append(g.edges, Edge{Head: NodeID(f.To), Kind: Walk, W: f.Walk})
		}
	}
	for ri, r := range routes {
		for pos, s := range r.Stations {
			u := g.routeOffset[ri] + NodeID(pos)
			g.firstOut[u] = int32(len(g.edges))
			g.edges = append(g.edges, Edge{Head: NodeID(s), Kind: Alight})
			if pos == len(r.Stations)-1 {
				continue
			}
			members := hops[int(u)-nS]
			first := len(g.rideConns)
			for _, id := range members {
				c := &tt.Connections[id]
				g.rideConns = append(g.rideConns, RideConn{Dep: c.Dep, Dur: c.Duration(), Conn: id})
			}
			g.rideConns = g.rideConns[:first+len(reduceRideConns(tt.Period, g.rideConns[first:]))]
			e := int32(len(g.edges))
			for _, id := range members {
				g.connRideEdge[id] = e
			}
			g.rideAllConns[e] = members
			g.edges = append(g.edges, Edge{
				Head:  u + 1,
				Kind:  Ride,
				First: int32(first),
				Num:   int32(len(g.rideConns) - first),
			})
		}
	}
	g.firstOut[numNodes] = int32(len(g.edges))
	return g
}

// reduceRideConns sorts by (Dep, Dur, Conn), collapses duplicate departures
// to the fastest vehicle (the lowest connection ID among equals), and
// removes circularly dominated departures (cf. ttf.Function.Reduce; the
// same backward scan, retaining connection IDs). It works in place and
// returns a prefix of conns.
func reduceRideConns(period timeutil.Period, conns []RideConn) []RideConn {
	if len(conns) <= 1 {
		return conns
	}
	slices.SortFunc(conns, func(a, b RideConn) int {
		return cmp.Or(cmp.Compare(a.Dep, b.Dep), cmp.Compare(a.Dur, b.Dur), cmp.Compare(a.Conn, b.Conn))
	})
	dedup := conns[:1]
	for _, c := range conns[1:] {
		if dedup[len(dedup)-1].Dep != c.Dep {
			dedup = append(dedup, c)
		}
	}
	// A departure survives if it arrives before every later one, those of
	// the next period included: scan backwards from the end of the next
	// period, packing the survivors at the tail.
	minArr := timeutil.Infinity
	for _, c := range dedup {
		minArr = min(minArr, c.Dep+c.Dur+period.Len())
	}
	w := len(dedup)
	for i := len(dedup) - 1; i >= 0; i-- {
		if arr := dedup[i].Dep + dedup[i].Dur; arr < minArr {
			minArr = arr
			w--
			dedup[w] = dedup[i]
		}
	}
	return conns[:copy(conns, dedup[w:])]
}

// NumNodes returns the total node count (stations + route nodes).
func (g *Graph) NumNodes() int { return len(g.nodeStation) }

// NumStations returns the number of station nodes.
func (g *Graph) NumStations() int { return g.numStations }

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// IsStationNode reports whether n is a station node.
func (g *Graph) IsStationNode(n NodeID) bool { return int(n) < g.numStations }

// StationNode returns the station node of a station.
func (g *Graph) StationNode(s timetable.StationID) NodeID { return NodeID(s) }

// Station returns st(u), the station a node belongs to.
func (g *Graph) Station(n NodeID) timetable.StationID { return g.nodeStation[n] }

// OutEdges returns the outgoing edges of n (shared slice, do not modify).
func (g *Graph) OutEdges(n NodeID) []Edge {
	return g.edges[g.firstOut[n]:g.firstOut[n+1]]
}

// RideConns returns the departures of a Ride edge, sorted by departure time
// point and dominance-free.
func (g *Graph) RideConns(e *Edge) []RideConn {
	return g.rideConns[e.First : e.First+e.Num]
}

// ConnDepartureNode returns the route node where connection c departs; this
// is where the profile search seeds queue items (r, i).
func (g *Graph) ConnDepartureNode(c timetable.ConnID) NodeID { return g.connDepNode[c] }

// ConnArrivalNode returns the route node where connection c arrives.
func (g *Graph) ConnArrivalNode(c timetable.ConnID) NodeID { return g.connArrNode[c] }

// EvalRide returns the arrival time at the head of a Ride edge when reaching
// its tail at the absolute time at, together with the connection boarded.
// The next departure (wrapping to the following period) is optimal because
// ride connections are stored dominance-free. Returns Infinity and -1 for
// edges with no departures.
func (g *Graph) EvalRide(e *Edge, at timeutil.Ticks) (timeutil.Ticks, timetable.ConnID) {
	conns := g.RideConns(e)
	if len(conns) == 0 {
		return timeutil.Infinity, -1
	}
	pi, tau := g.TT.Period.Len(), at
	if tau < 0 || tau >= pi { // Period.Wrap, with its in-range case inline
		tau = g.TT.Period.Wrap(at)
	}
	// Lower bound: the first departure at or after tau. Written out rather
	// than through sort.Search so the settle loops pay no closure call per
	// probe.
	lo, hi := 0, len(conns)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if conns[m].Dep < tau {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(conns) { // past the last departure: first one of the next period
		c := &conns[0]
		return at + pi - tau + c.Dep + c.Dur, c.Conn
	}
	c := &conns[lo]
	return at + c.Dep - tau + c.Dur, c.Conn
}

// EvalEdge returns the arrival time at the head of any edge when reaching
// its tail at the absolute time at; for Ride edges it also returns the
// boarded connection (otherwise -1).
func (g *Graph) EvalEdge(e *Edge, at timeutil.Ticks) (timeutil.Ticks, timetable.ConnID) {
	if e.Kind == Ride {
		return g.EvalRide(e, at)
	}
	return at + e.W, -1
}

// Stats summarizes the graph for logging.
type Stats struct {
	Nodes        int
	StationNodes int
	RouteNodes   int
	Edges        int
	RideEdges    int
	RideConns    int
}

// Stats returns summary statistics.
func (g *Graph) Stats() Stats {
	st := Stats{
		Nodes:        g.NumNodes(),
		StationNodes: g.numStations,
		RouteNodes:   g.NumNodes() - g.numStations,
		Edges:        len(g.edges),
		RideConns:    len(g.rideConns),
	}
	for _, e := range g.edges {
		if e.Kind == Ride {
			st.RideEdges++
		}
	}
	return st
}

func (s Stats) String() string {
	return fmt.Sprintf("%d nodes (%d stations, %d route nodes), %d edges (%d ride), %d ride connections",
		s.Nodes, s.StationNodes, s.RouteNodes, s.Edges, s.RideEdges, s.RideConns)
}
