package core

import (
	"transit/internal/graph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// rideCursor remembers, for one node, where the last evaluation of the
// node's ride edge landed: idx, the first departure at or after the time
// point of the key it was evaluated at (len(conns) when the key is past the
// last departure of the day), and the window (lo, hi] of absolute keys that
// catch that same departure on the same day, from just after the departure
// before idx (or the start of the day) up to the key itself. stamp is the
// row stamp of the connection search that wrote it (workerSpace.rowGen).
//
// The settle loop evaluates a node's ride, and the Pareto search a (node,
// layer) record's, at strictly falling keys within a query (package
// comment, "Queue and label layout"), so the next evaluation is almost
// always earlier on the same day, and its departure is found by
// walking back from idx. Over a query that walk visits each departure of
// the edge at most once per day the keys pass through; a bisection is only
// paid for a cursor from another query, a key on another day, or a key that
// rose (possible only with DisableSelfPruning). A node has at most one ride
// edge (graph invariant), which is what lets the cursor be indexed by node.
//
// Same ride: a key in (lo, hi] catches departure idx again and arrives when
// the last evaluation arrived. The settle loop refuses it unevaluated
// (same): when that evaluation ran, with a stamp at or after the row's
// floor, the head's record took its arrival or held a better one, and
// records only fall within a query, so the record check would refuse it
// now. An evaluation whose arrival was at or beyond the search's bound is
// disarmed, since nothing was recorded for it.
type rideCursor struct {
	lo, hi timeutil.Ticks
	idx    int32
	stamp  uint32
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
	// At or below hi and on hi's day (hi − base < π): walk back from idx.
	if c.stamp >= floor && key <= c.hi && c.hi-base < pi {
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
	lo := base - 1
	if i > 0 {
		lo = base + conns[i-1].Dep
	}
	*c = rideCursor{lo: lo, hi: key, idx: int32(i), stamp: stamp}
	if i == len(conns) { // past the last departure: first one of the next period
		rc := &conns[0]
		return base + pi + rc.Dep + rc.Dur, rc.Conn
	}
	rc := &conns[i]
	return base + rc.Dep + rc.Dur, rc.Conn
}

// same reports whether key, reached at the cursor's node with floor the
// row's first stamp this search reads, catches the departure the cursor's
// last evaluation caught: its stamp is at least floor and key lies in
// (lo, hi].
func (c *rideCursor) same(key timeutil.Ticks, floor uint32) bool {
	return c.stamp >= floor && c.lo < key && key <= c.hi
}

// disarm empties the same-ride window, keeping the walk-back state: the
// last evaluation's arrival was not recorded.
func (c *rideCursor) disarm() { c.lo = c.hi }

// arrival is the arrival of the departure the cursor's last evaluation
// caught: what eval returned, read from conns without searching.
func (c *rideCursor) arrival(conns []graph.RideConn, period timeutil.Period) timeutil.Ticks {
	pi := period.Len()
	base := c.hi - period.Wrap(c.hi)
	if int(c.idx) == len(conns) {
		return base + pi + conns[0].Dep + conns[0].Dur
	}
	rc := &conns[c.idx]
	return base + rc.Dep + rc.Dur
}
