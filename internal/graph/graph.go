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
//
// The graph stores no edge list. Board and alight edges are implicit: a
// station boards each of its route nodes (Boards), and a route node alights
// at its station (Station). A station's footpaths are the timetable's
// (Timetable.FootpathsFrom), and a route node's one route edge is its ride
// (Ride), a row of departures.
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

// RideConn is one departure of a ride: at time point Dep a vehicle leaves,
// taking Dur ticks to the next route node; Conn is the underlying
// elementary connection (for journey extraction).
type RideConn struct {
	Dep  timeutil.Ticks
	Dur  timeutil.Ticks
	Conn timetable.ConnID
}

// Graph is the realistic time-dependent model of a timetable, stored as
// rows: per station its route nodes (Boards) and footpaths
// (Timetable.FootpathsFrom), per route node its station (Station) and its
// ride to the next route node (Ride). It is immutable after Build and safe
// for concurrent readers; all query state lives in the algorithms, never in
// the graph.
type Graph struct {
	TT *timetable.Timetable

	nodeStation []timetable.StationID // st(u) for every node
	routeOffset []NodeID              // first node of each route
	boards      [][]NodeID            // per station: its route nodes, in node order
	connDepNode []NodeID              // departing route node per connection
	connArrNode []NodeID              // arriving route node per connection

	// Per route node j = u − NumStations: the departures of its ride,
	// rideConns[rideOff[j]:rideOff[j+1]], and whether it is the last stop
	// of its route, which has no ride.
	rideOff   []int32
	rideConns []RideConn
	lastStop  []bool

	// members[j] lists the live connections departing route node j, in ID
	// order: the ride's departures before reduction, which PatchTimes
	// recomputes the ride from after a retime.
	members [][]timetable.ConnID

	numStations int
}

// Build constructs the time-dependent graph. The departures of each ride
// are sorted by departure and dominated departures (a later vehicle on the
// same ride that arrives no later) are dropped; this never changes any
// travel-time function value and makes next-departure evaluation exact.
//
// Every per-node array is indexed by dense IDs: a hop is keyed by its
// departure route node, and each index is one counting pass.
func Build(tt *timetable.Timetable) *Graph {
	nS := tt.NumStations()
	g := &Graph{TT: tt, numStations: nS}
	routes := tt.Routes()

	numNodes := nS
	g.routeOffset = make([]NodeID, len(routes)+1)
	for i, r := range routes {
		g.routeOffset[i] = NodeID(numNodes)
		numNodes += len(r.Stations)
	}
	g.routeOffset[len(routes)] = NodeID(numNodes)
	numRouteNodes := numNodes - nS

	// Each route node's station and whether it ends its route, and per
	// station its route nodes in node order (its boards).
	g.nodeStation = make([]timetable.StationID, numNodes)
	g.lastStop = make([]bool, numRouteNodes)
	routeNodes := make([]NodeID, 0, numRouteNodes)
	for s := range nS {
		g.nodeStation[s] = timetable.StationID(s)
	}
	for i, r := range routes {
		for p, s := range r.Stations {
			u := g.routeOffset[i] + NodeID(p)
			g.nodeStation[u] = s
			g.lastStop[int(u)-nS] = p == len(r.Stations)-1
			routeNodes = append(routeNodes, u)
		}
	}
	g.boards = csr.Group(nS, routeNodes, func(u NodeID) int32 { return int32(g.nodeStation[u]) })

	// Assign each connection to its route nodes. A train's hops are its
	// connections in ID order (Timetable.TrainConnections); hop h of a train
	// on route r departs route node routeOffset[r]+h. members is a CSR over
	// route nodes (numbered from 0) of the live connections departing
	// there, in ID order: a cancelled connection keeps its hop slot (so
	// later hops stay aligned with the route's station sequence) but never
	// appears on a ride.
	nC := tt.NumConnections()
	g.connDepNode = make([]NodeID, nC)
	g.connArrNode = make([]NodeID, nC)
	ids := make([]timetable.ConnID, nC)
	for z := range tt.Trains {
		first := g.routeOffset[tt.RouteOf(timetable.TrainID(z))]
		for h, id := range tt.TrainConnections(timetable.TrainID(z)) {
			g.connDepNode[id], g.connArrNode[id] = first+NodeID(h), first+NodeID(h)+1
		}
	}
	for id := range ids {
		ids[id] = timetable.ConnID(id)
	}
	g.members = csr.Group(numRouteNodes, ids, func(id timetable.ConnID) int32 {
		if tt.Cancelled(id) {
			return -1
		}
		return int32(g.connDepNode[id]) - int32(nS)
	})

	// One ride row per route node, empty at a route's last stop.
	g.rideOff = make([]int32, numRouteNodes+1)
	g.rideConns = make([]RideConn, 0, nC)
	for j, members := range g.members {
		first := len(g.rideConns)
		for _, id := range members {
			c := &tt.Connections[id]
			g.rideConns = append(g.rideConns, RideConn{Dep: c.Dep, Dur: c.Duration(), Conn: id})
		}
		g.rideConns = g.rideConns[:first+len(reduceRideConns(tt.Period, g.rideConns[first:]))]
		g.rideOff[j+1] = int32(len(g.rideConns))
	}
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

// IsStationNode reports whether n is a station node.
func (g *Graph) IsStationNode(n NodeID) bool { return int(n) < g.numStations }

// StationNode returns the station node of a station.
func (g *Graph) StationNode(s timetable.StationID) NodeID { return NodeID(s) }

// Station returns st(u), the station a node belongs to: for a route node,
// the head of its alight.
func (g *Graph) Station(n NodeID) timetable.StationID { return g.nodeStation[n] }

// Boards returns the route nodes of station s in node order, each boarded at
// the constant weight T(s) (shared slice, do not modify).
func (g *Graph) Boards(s timetable.StationID) []NodeID { return g.boards[s] }

// Ride returns the departures of route node u's ride to u+1, sorted by
// departure time point and dominance-free (shared slice, do not modify),
// and whether u has a ride: the last stop of a route has none, while a ride
// whose every departure is cancelled has no departures.
func (g *Graph) Ride(u NodeID) ([]RideConn, bool) {
	j := int(u) - g.numStations
	conns := g.rideConns[g.rideOff[j]:g.rideOff[j+1]]
	return conns, len(conns) > 0 || !g.lastStop[j]
}

// ConnDepartureNode returns the route node where connection c departs; this
// is where the profile search seeds queue items (r, i).
func (g *Graph) ConnDepartureNode(c timetable.ConnID) NodeID { return g.connDepNode[c] }

// ConnArrivalNode returns the route node where connection c arrives.
func (g *Graph) ConnArrivalNode(c timetable.ConnID) NodeID { return g.connArrNode[c] }

// EvalRide returns the arrival time at u+1 when taking route node u's ride
// at the absolute time at, together with the connection boarded. The next
// departure (wrapping to the following period) is optimal because ride
// departures are stored dominance-free. Returns Infinity and -1 for a ride
// with no departures, and at the last stop of a route.
func (g *Graph) EvalRide(u NodeID, at timeutil.Ticks) (timeutil.Ticks, timetable.ConnID) {
	conns, _ := g.Ride(u)
	if len(conns) == 0 {
		return timeutil.Infinity, -1
	}
	pi, tau := g.TT.Period.Len(), at
	if tau < 0 || tau >= pi { // Period.Wrap, with its in-range case inline
		tau = g.TT.Period.Wrap(at)
	}
	// Lower bound: the first departure at or after tau, written out rather
	// than through sort.Search.
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

// Stats summarizes the graph for logging.
type Stats struct {
	Nodes        int
	StationNodes int
	RouteNodes   int
	Rides        int // route nodes with a ride: all but each route's last stop
	RideConns    int
}

// Stats returns summary statistics.
func (g *Graph) Stats() Stats {
	st := Stats{
		Nodes:        g.NumNodes(),
		StationNodes: g.numStations,
		RouteNodes:   g.NumNodes() - g.numStations,
		RideConns:    len(g.rideConns),
	}
	for _, last := range g.lastStop {
		if !last {
			st.Rides++
		}
	}
	return st
}

func (s Stats) String() string {
	return fmt.Sprintf("%d nodes (%d stations, %d route nodes), %d rides, %d ride connections",
		s.Nodes, s.StationNodes, s.RouteNodes, s.Rides, s.RideConns)
}
