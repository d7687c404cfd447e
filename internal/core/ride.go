package core

import (
	"transit/internal/graph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// rideCursor remembers, for one node, where the last evaluation of the
// node's ride edge landed: the day base and time point of the key it was
// evaluated at, and idx, the first departure at or after that time point
// (len(conns) when the key is past the last departure of the day). stamp is
// the row stamp of the connection search that wrote it (workerSpace.rowGen).
//
// The settle loop settles a node, and the Pareto search a (node, layer)
// record, at strictly falling keys within a query (package comment, "Queue
// and label layout"), so the next evaluation is
// almost always earlier on the same day, and its departure is found by
// walking back from idx. Over a query that walk visits each departure of
// the edge at most once per day the keys pass through; a bisection is only
// paid for a cursor from another query, a key on another day, or a key that
// rose (possible only with DisableSelfPruning). A node has at most one ride
// edge (graph invariant), which is what lets the cursor be indexed by node.
type rideCursor struct {
	base  timeutil.Ticks
	tau   timeutil.Ticks
	idx   int32
	stamp uint32
}

// eval is graph.EvalRide for the ride edge whose departures are conns,
// reached at key: the arrival at the head and the connection boarded
// (Infinity and -1 when the edge has no departures). The cursor counts as
// this query's when its stamp is at least floor; eval leaves it stamped
// with stamp.
func (c *rideCursor) eval(conns []graph.RideConn, period timeutil.Period, key timeutil.Ticks, floor, stamp uint32) (timeutil.Ticks, timetable.ConnID) {
	if len(conns) == 0 {
		return timeutil.Infinity, -1
	}
	pi, tau := period.Len(), key
	if tau < 0 || tau >= pi {
		tau = period.Wrap(key)
	}
	base := key - tau
	var i int
	if c.stamp >= floor && c.base == base && tau <= c.tau {
		i = int(c.idx)
		for i > 0 && conns[i-1].Dep >= tau {
			i--
		}
	} else {
		lo, hi := 0, len(conns)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if conns[m].Dep < tau {
				lo = m + 1
			} else {
				hi = m
			}
		}
		i = lo
	}
	*c = rideCursor{base: base, tau: tau, idx: int32(i), stamp: stamp}
	if i == len(conns) { // past the last departure: first one of the next period
		rc := &conns[0]
		return base + pi + rc.Dep + rc.Dur, rc.Conn
	}
	rc := &conns[i]
	return base + rc.Dep + rc.Dur, rc.Conn
}
