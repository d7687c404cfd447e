package graph

import (
	"fmt"

	"transit/internal/timetable"
)

// PatchTimes returns a new Graph reflecting a timetable produced by
// Timetable.Patch on this graph's timetable, without rebuilding the model:
// a delay or cancellation never changes a route's station sequence, so the
// node set, the boards, the member lists and every connection↔node mapping
// are shared with the receiver. Only the rides that carry a touched
// connection, found through its departure node, recompute their (sorted,
// dominance-free) departures; every other ride's departures are copied
// verbatim into the new graph's compacted connection store.
//
// tt must derive from the receiver's timetable via Patch (same stations,
// trains, routes and dense connection IDs); touched lists the connection
// IDs the patch retimed or cancelled.
func (g *Graph) PatchTimes(tt *timetable.Timetable, touched []timetable.ConnID) (*Graph, error) {
	if tt.NumStations() != g.numStations || tt.NumConnections() != len(g.connDepNode) {
		return nil, fmt.Errorf("graph: patch timetable shape mismatch (%d stations/%d conns, graph has %d/%d)",
			tt.NumStations(), tt.NumConnections(), g.numStations, len(g.connDepNode))
	}
	touchedRow := make(map[int]bool, len(touched))
	for _, id := range touched {
		if int(id) < 0 || int(id) >= len(g.connDepNode) {
			return nil, fmt.Errorf("graph: patch touches unknown connection %d", id)
		}
		touchedRow[int(g.connDepNode[id])-g.numStations] = true
	}
	ng := *g // shares nodeStation, routeOffset, boards, connDepNode, connArrNode, lastStop, members
	ng.TT = tt
	ng.rideOff = make([]int32, len(g.rideOff))
	ng.rideConns = make([]RideConn, 0, len(g.rideConns))
	var scratch []RideConn
	for j, members := range g.members {
		if touchedRow[j] {
			scratch = scratch[:0]
			for _, id := range members {
				c := &tt.Connections[id]
				if c.Arr.IsInf() {
					continue // cancelled
				}
				scratch = append(scratch, RideConn{Dep: c.Dep, Dur: c.Arr - c.Dep, Conn: id})
			}
			// reduceRideConns reorders scratch in place; the append below
			// copies the survivors out before the next reuse.
			ng.rideConns = append(ng.rideConns, reduceRideConns(tt.Period, scratch)...)
		} else {
			ng.rideConns = append(ng.rideConns, g.rideConns[g.rideOff[j]:g.rideOff[j+1]]...)
		}
		ng.rideOff[j+1] = int32(len(ng.rideConns))
	}
	return &ng, nil
}
