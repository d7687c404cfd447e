package timetable

import (
	"fmt"

	"transit/internal/timeutil"
)

// ConnUpdate retimes or cancels one elementary connection. It is the unit
// of the incremental update path that backs the fully dynamic scenario of
// the paper's conclusion: a delay feed is translated into a batch of
// ConnUpdates and applied with Patch instead of rebuilding the timetable.
type ConnUpdate struct {
	ID ConnID
	// Dep, Arr are the new times (ignored when Cancel is set): Dep must be
	// a time point of Π, Arr an absolute arrival no earlier than Dep.
	Dep, Arr timeutil.Ticks
	// Cancel removes the connection from service. The connection keeps its
	// dense ID slot with an infinite arrival; cancellation is permanent for
	// the lifetime of the snapshot lineage (a later retime of a cancelled
	// connection is ignored).
	Cancel bool
}

// Patch returns a new Timetable with the updates applied, leaving the
// receiver untouched (in-flight readers of the old snapshot stay valid).
// Everything the updates do not touch is shared between the two snapshots:
// stations, trains, footpaths, the route partition and the index rows of
// unaffected stations. Only the flat connection array is re-copied and the
// outgoing/incoming rows of stations incident to an updated connection are
// re-filtered and re-sorted, so a batch touching k connections costs
// O(|C| memcpy + k log k + Σ|conn(S)| log |conn(S)| over affected S) —
// no re-validation, route derivation or full index rebuild.
//
// Callers are responsible for keeping each train's schedule internally
// consistent (shift or cancel whole trains); per-update validation only
// checks that departures are time points of Π and arrivals are no earlier
// than departures. An empty batch returns the receiver itself.
func (tt *Timetable) Patch(updates []ConnUpdate) (*Timetable, error) {
	if len(updates) == 0 {
		return tt, nil
	}
	for _, u := range updates {
		if int(u.ID) < 0 || int(u.ID) >= len(tt.Connections) {
			return nil, fmt.Errorf("timetable: patch references unknown connection %d", u.ID)
		}
		if u.Cancel {
			continue
		}
		if !tt.Period.Valid(u.Dep) {
			return nil, fmt.Errorf("timetable: patch moves connection %d to departure %d outside Π=[0,%d)",
				u.ID, u.Dep, tt.Period.Len())
		}
		if u.Arr < u.Dep {
			return nil, fmt.Errorf("timetable: patch gives connection %d arrival %d before departure %d",
				u.ID, u.Arr, u.Dep)
		}
	}
	nt := *tt // shares Stations, Trains, Footpaths, routes, trainRoute, footpathsOut, trainConns, trainsByName
	nt.Connections = append([]Connection(nil), tt.Connections...)
	touched := make(map[StationID]struct{}, 2*len(updates))
	for _, u := range updates {
		c := &nt.Connections[u.ID]
		if c.Arr.IsInf() {
			continue // already cancelled: immutable
		}
		if u.Cancel {
			c.Arr = timeutil.Infinity
		} else {
			c.Dep, c.Arr = u.Dep, u.Arr
		}
		touched[c.From] = struct{}{}
		touched[c.To] = struct{}{}
	}
	// Copy-on-write of the index headers; only touched stations get fresh
	// rows, every other row is shared with the old snapshot.
	nt.outgoing = append([][]ConnID(nil), tt.outgoing...)
	nt.incoming = append([][]ConnID(nil), tt.incoming...)
	for s := range touched {
		nt.outgoing[s] = patchIndexRow(tt.outgoing[s], nt.Connections, false)
		nt.incoming[s] = patchIndexRow(tt.incoming[s], nt.Connections, true)
	}
	return &nt, nil
}

// patchIndexRow rebuilds one station's index row against updated connection
// times: newly cancelled connections are dropped and the survivors re-sorted
// by departure (byArr=false) or arrival (byArr=true), ties on ID.
func patchIndexRow(old []ConnID, conns []Connection, byArr bool) []ConnID {
	row := make([]ConnID, 0, len(old))
	for _, id := range old {
		if conns[id].Arr.IsInf() {
			continue
		}
		row = append(row, id)
	}
	sortRow(row, conns, byArr)
	return row
}
