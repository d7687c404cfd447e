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
	"fmt"
	"sort"

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
func Build(tt *timetable.Timetable) *Graph {
	g := &Graph{TT: tt, numStations: tt.NumStations()}
	routes := tt.Routes()

	numNodes := tt.NumStations()
	g.routeOffset = make([]NodeID, len(routes)+1)
	for i, r := range routes {
		g.routeOffset[i] = NodeID(numNodes)
		numNodes += len(r.Stations)
	}
	g.routeOffset[len(routes)] = NodeID(numNodes)

	g.nodeStation = make([]timetable.StationID, numNodes)
	for s := 0; s < tt.NumStations(); s++ {
		g.nodeStation[s] = timetable.StationID(s)
	}
	for i, r := range routes {
		for p, s := range r.Stations {
			g.nodeStation[g.routeOffset[i]+NodeID(p)] = s
		}
	}

	// Assign each connection to its (route, hop) ride edge. A train's hops
	// are its connections in ID order (see timetable.trainHops); hop h runs
	// from route.Stations[h] to route.Stations[h+1].
	type hopKey struct {
		route timetable.RouteID
		hop   int32
	}
	hopConns := make(map[hopKey][]RideConn)
	hopIDs := make(map[hopKey][]timetable.ConnID)
	hopIndex := make(map[timetable.TrainID]int32, tt.NumTrains())
	g.connDepNode = make([]NodeID, tt.NumConnections())
	g.connArrNode = make([]NodeID, tt.NumConnections())
	g.connRideEdge = make([]int32, tt.NumConnections())
	for i := range g.connRideEdge {
		g.connRideEdge[i] = -1
	}
	for _, c := range tt.Connections {
		r := tt.RouteOf(c.Train)
		h := hopIndex[c.Train]
		hopIndex[c.Train] = h + 1
		g.connDepNode[c.ID] = g.routeOffset[r] + NodeID(h)
		g.connArrNode[c.ID] = g.routeOffset[r] + NodeID(h) + 1
		if c.Arr.IsInf() {
			// Cancelled connection: keeps its hop slot (so later hops stay
			// aligned with the route's station sequence) but never appears
			// on a ride edge.
			continue
		}
		hopConns[hopKey{r, h}] = append(hopConns[hopKey{r, h}], RideConn{
			Dep: c.Dep, Dur: c.Duration(), Conn: c.ID,
		})
		hopIDs[hopKey{r, h}] = append(hopIDs[hopKey{r, h}], c.ID)
	}

	// Emit CSR. Station node s: one Board edge per route node at s.
	// Route node (r, p): Alight edge, plus Ride edge to (r, p+1) if p is not
	// the last position.
	routeNodesAt := make([][]NodeID, tt.NumStations())
	for i, r := range routes {
		for p, s := range r.Stations {
			routeNodesAt[s] = append(routeNodesAt[s], g.routeOffset[i]+NodeID(p))
		}
	}

	g.firstOut = make([]int32, numNodes+1)
	for n := NodeID(0); int(n) < numNodes; n++ {
		g.firstOut[n] = int32(len(g.edges))
		if int(n) < tt.NumStations() {
			st := tt.Stations[n]
			for _, rn := range routeNodesAt[n] {
				g.edges = append(g.edges, Edge{Head: rn, Kind: Board, W: st.Transfer})
			}
			for _, f := range tt.FootpathsFrom(timetable.StationID(n)) {
				g.edges = append(g.edges, Edge{Head: NodeID(f.To), Kind: Walk, W: f.Walk})
			}
			continue
		}
		// Route node: find its route and position.
		ri := sort.Search(len(routes), func(i int) bool { return g.routeOffset[i+1] > n }) // route containing n
		pos := int32(n - g.routeOffset[ri])
		s := routes[ri].Stations[pos]
		g.edges = append(g.edges, Edge{Head: NodeID(s), Kind: Alight, W: 0})
		if int(pos) < len(routes[ri].Stations)-1 {
			hk := hopKey{timetable.RouteID(ri), pos}
			conns := hopConns[hk]
			conns = reduceRideConns(tt.Period, conns)
			first := int32(len(g.rideConns))
			g.rideConns = append(g.rideConns, conns...)
			eIdx := int32(len(g.edges))
			ids := hopIDs[hk]
			for _, id := range ids {
				g.connRideEdge[id] = eIdx
			}
			for int32(len(g.rideAllConns)) < eIdx {
				g.rideAllConns = append(g.rideAllConns, nil)
			}
			g.rideAllConns = append(g.rideAllConns, ids)
			g.edges = append(g.edges, Edge{
				Head:  n + 1,
				Kind:  Ride,
				First: first,
				Num:   int32(len(conns)),
			})
		}
	}
	g.firstOut[numNodes] = int32(len(g.edges))
	for len(g.rideAllConns) < len(g.edges) {
		g.rideAllConns = append(g.rideAllConns, nil)
	}
	return g
}

// reduceRideConns sorts by departure, collapses duplicate departures to the
// fastest vehicle, and removes circularly dominated departures (cf.
// ttf.Function.Reduce; the same backward scan, retaining connection IDs).
func reduceRideConns(period timeutil.Period, conns []RideConn) []RideConn {
	if len(conns) <= 1 {
		return conns
	}
	sort.Slice(conns, func(i, j int) bool {
		if conns[i].Dep != conns[j].Dep {
			return conns[i].Dep < conns[j].Dep
		}
		return conns[i].Dur < conns[j].Dur
	})
	dedup := conns[:0]
	for _, c := range conns {
		if len(dedup) > 0 && dedup[len(dedup)-1].Dep == c.Dep {
			continue
		}
		dedup = append(dedup, c)
	}
	conns = dedup
	n := len(conns)
	pi := period.Len()
	keep := make([]bool, n)
	minArr := timeutil.Infinity
	for k := 2*n - 1; k >= 0; k-- {
		i := k % n
		lift := timeutil.Ticks(0)
		if k >= n {
			lift = pi
		}
		arr := conns[i].Dep + conns[i].Dur + lift
		if k < n && arr < minArr {
			keep[i] = true
		}
		if arr < minArr {
			minArr = arr
		}
	}
	out := conns[:0]
	for i, c := range conns {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out
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
