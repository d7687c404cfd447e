package core

import (
	"cmp"
	"slices"

	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// walkDistances computes the shortest walking time from the source to every
// footpath-reachable station (transitive closure over footpaths), including
// the source itself at 0. Footpath graphs are tiny, so a simple scan-based
// Dijkstra suffices. The returned map is workspace memory, reused by the
// next query on the same workspace.
func (ws *Workspace) walkDistances(tt *timetable.Timetable, source timetable.StationID) map[timetable.StationID]timeutil.Ticks {
	dist := ws.walk
	clear(dist)
	dist[source] = 0
	if len(tt.Footpaths) == 0 {
		return dist
	}
	settled := ws.wseen
	clear(settled)
	for {
		var u timetable.StationID = -1
		best := timeutil.Infinity
		for s, d := range dist {
			if !settled[s] && d < best {
				u, best = s, d
			}
		}
		if u < 0 {
			return dist
		}
		settled[u] = true
		for _, f := range tt.FootpathsFrom(u) {
			if nd := best + f.Walk; nd < distOrInf(dist, f.To) {
				dist[f.To] = nd
			}
		}
	}
}

func distOrInf(m map[timetable.StationID]timeutil.Ticks, s timetable.StationID) timeutil.Ticks {
	if d, ok := m[s]; ok {
		return d
	}
	return timeutil.Infinity
}

// extendedConns builds the profile search's seed list for a source with
// footpaths: every outgoing connection of every walk-reachable station
// (including the source itself), with *effective departures* — the latest
// time one must leave the source on foot to catch the connection. Without
// footpaths this degenerates to the paper's conn(S).
//
// Effective departures may be negative (leaving "yesterday" to catch an
// early connection after a walk); the periodic profile machinery wraps
// them. The list is sorted by effective departure, preserving the ordering
// assumption (j > i ⇒ dep_j ≥ dep_i) that self-pruning and the stopping
// criterion rely on.
//
// Boarding at a walked-to station W pays the transfer buffer T(W), matching
// the graph model where footpaths arrive at station nodes and boarding
// costs T; only departures from the source itself are buffer-free (the
// paper's convention of seeding route nodes directly).
//
// The returned slices are workspace memory — except in the footpath-free
// case, where the connection list is the timetable's own (immutable)
// outgoing slice and only the departures are workspace-owned.
func (ws *Workspace) extendedConns(tt *timetable.Timetable, source timetable.StationID, walk map[timetable.StationID]timeutil.Ticks) ([]timetable.ConnID, []timeutil.Ticks) {
	if len(walk) == 1 {
		// No footpaths from the source: exactly the paper's conn(S).
		ids := tt.Outgoing(source)
		ws.deps = grow(ws.deps, len(ids))
		for i, id := range ids {
			ws.deps[i] = tt.Connections[id].Dep
		}
		return ids, ws.deps
	}
	seeds := ws.seeds[:0]
	for s, w := range walk {
		lead := w
		if s != source {
			lead += tt.Stations[s].Transfer
		}
		for _, id := range tt.Outgoing(s) {
			seeds = append(seeds, connSeed{id: id, dep: tt.Connections[id].Dep - lead})
		}
	}
	slices.SortFunc(seeds, func(a, b connSeed) int {
		if c := cmp.Compare(a.dep, b.dep); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	ws.seeds = seeds
	ws.conns = ws.conns[:0]
	ws.deps = ws.deps[:0]
	for _, s := range seeds {
		ws.conns = append(ws.conns, s.id)
		ws.deps = append(ws.deps, s.dep)
	}
	return ws.conns, ws.deps
}
