package transit

import (
	"fmt"
	"sort"
	"time"

	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// ConnectionInfo is the public view of one elementary connection, used by
// the dynamic-update API and network inspection.
type ConnectionInfo struct {
	Train string
	// Route is the route class index of the train (trains with identical
	// station sequences share a route).
	Route int
	From  StationID
	To    StationID
	Dep   Ticks // departure time point within the period
	Arr   Ticks // absolute arrival time (≥ Dep; may exceed the period)
	// Cancelled marks connections removed by a dynamic update (ApplyUpdates
	// with DelayOp.Cancel): they keep their slot — IDs stay dense — but are
	// excluded from every query structure and never boarded.
	Cancelled bool
}

// Connections lists all elementary connections of the network.
func (n *Network) Connections() []ConnectionInfo {
	out := make([]ConnectionInfo, len(n.tt.Connections))
	for i, c := range n.tt.Connections {
		out[i] = n.connInfo(c)
	}
	return out
}

func (n *Network) connInfo(c timetable.Connection) ConnectionInfo {
	return ConnectionInfo{
		Train:     n.tt.Trains[c.Train].Name,
		Route:     int(n.tt.RouteOf(c.Train)),
		From:      c.From,
		To:        c.To,
		Dep:       c.Dep,
		Arr:       c.Arr,
		Cancelled: c.Arr.IsInf(),
	}
}

// Departures lists the outgoing connections of a station in departure
// order — the set conn(S) that bounds the profile complexity.
func (n *Network) Departures(s StationID) ([]ConnectionInfo, error) {
	if err := n.checkStation(s); err != nil {
		return nil, err
	}
	ids := n.tt.Outgoing(s)
	out := make([]ConnectionInfo, len(ids))
	for i, id := range ids {
		out[i] = n.connInfo(n.tt.Connections[id])
	}
	return out, nil
}

// ApplyDelays returns a new Network in which every connection accepted by
// the filter is shifted delta ticks later (negative delta means earlier;
// the result is re-validated). This is the fully dynamic scenario the
// paper's conclusion targets: the profile search needs no preprocessing, so
// delayed trains only require rebuilding the (cheap) query structures.
//
// The filter decides per *train*: if any connection of a train matches, the
// whole train is shifted, keeping its internal schedule consistent.
func (n *Network) ApplyDelays(delta Ticks, filter func(ConnectionInfo) bool) (*Network, int, error) {
	affected := make(map[timetable.TrainID]bool)
	for _, c := range n.tt.Connections {
		if filter(n.connInfo(c)) {
			affected[c.Train] = true
		}
	}
	conns := make([]timetable.Connection, len(n.tt.Connections))
	copy(conns, n.tt.Connections)
	shifted := 0
	for i := range conns {
		if !affected[conns[i].Train] {
			continue
		}
		if conns[i].Arr.IsInf() {
			// Cancelled by a previous ApplyUpdates: cancellation is
			// permanent for the snapshot lineage. Re-timing would push the
			// Infinity arrival below the sentinel and resurrect the train.
			continue
		}
		dep := conns[i].Dep + delta
		dur := conns[i].Arr - conns[i].Dep
		dep = n.tt.Period.Wrap(dep)
		conns[i].Dep = dep
		conns[i].Arr = dep + dur
		shifted++
	}
	stations := make([]timetable.Station, len(n.tt.Stations))
	copy(stations, n.tt.Stations)
	trains := make([]timetable.Train, len(n.tt.Trains))
	copy(trains, n.tt.Trains)
	footpaths := make([]timetable.Footpath, len(n.tt.Footpaths))
	copy(footpaths, n.tt.Footpaths)
	tt, err := timetable.NewWithFootpaths(n.tt.Period, stations, trains, conns, footpaths)
	if err != nil {
		return nil, 0, fmt.Errorf("transit: delayed timetable invalid: %w", err)
	}
	nn := NewNetwork(tt)
	// A no-op filter on an unpatched network leaves an equivalent schedule;
	// patchedness is otherwise sticky along the derivation chain.
	nn.patched = n.patched || shifted > 0
	return nn, shifted, nil
}

// DelayOp is one operation of a dynamic-update batch: a train-level delay
// or cancellation, selected by train name, route class and/or a departure
// window. Selection is per train — every connection of a matched train is
// shifted (or cancelled) together, keeping its schedule consistent, exactly
// like ApplyDelays. All set filters must match (AND); an op with no filter
// at all matches every train whose departures intersect the window.
type DelayOp struct {
	// Train selects trains by exact name; "" disables the name filter.
	Train string
	// Routes selects trains by route class index; empty disables the route
	// filter (so the zero DelayOp matches every train, like the other
	// selectors).
	Routes []int
	// WindowFrom and WindowTo restrict the selection to trains with at
	// least one (non-cancelled) connection departing in [WindowFrom,
	// WindowTo], both time points of the period. WindowTo = 0 means "no
	// upper bound", so the zero window matches the whole period.
	WindowFrom, WindowTo Ticks
	// Delay shifts every connection of each selected train Delay ticks
	// later; negative means earlier. Departure time points wrap around the
	// period; durations are preserved.
	Delay Ticks
	// Cancel removes the selected trains from service instead of shifting
	// them. Cancellation wins over Delay and is permanent for the lifetime
	// of the snapshot lineage.
	Cancel bool
}

// TouchedConn records one connection a dynamic-update batch changed: the
// departure it had before (OldDep) and after (NewDep), or Cancelled. A
// replica checks its own touched set against each delta it applies.
type TouchedConn struct {
	Conn      int
	Train     int
	Route     int
	From      StationID
	OldDep    Ticks
	NewDep    Ticks
	Cancelled bool
}

// MergeTouched composes touched sets of consecutive update batches into one
// set describing the total change: per connection the first OldDep and the
// last NewDep (cancellation is sticky, matching the patch semantics), with
// net no-op retimes dropped. Both inputs are left untouched; the result is
// sorted by connection ID. Only benchmark/ still calls it; it goes with
// Repreprocess (ROADMAP (f)).
func MergeTouched(acc, next []TouchedConn) []TouchedConn {
	byConn := make(map[int]TouchedConn, len(acc)+len(next))
	for _, t := range acc {
		byConn[t.Conn] = t
	}
	for _, t := range next {
		if prev, ok := byConn[t.Conn]; ok {
			t.OldDep = prev.OldDep
			t.Cancelled = t.Cancelled || prev.Cancelled
		}
		byConn[t.Conn] = t
	}
	out := make([]TouchedConn, 0, len(byConn))
	for _, t := range byConn {
		if !t.Cancelled && t.OldDep == t.NewDep {
			continue // retimed back to its original slot: periodically a no-op
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Conn < out[j].Conn })
	return out
}

// UpdateStats reports the work of one ApplyUpdates call.
type UpdateStats struct {
	TrainsDelayed   int
	TrainsCancelled int
	ConnsRetimed    int
	ConnsCancelled  int
	Elapsed         time.Duration
	// Touched lists the connections this batch changed (sorted by ID).
	Touched []TouchedConn
}

// ApplyUpdates is the incremental counterpart of ApplyDelays: it returns a
// new Network with the delay/cancellation batch applied, sharing every
// untouched structure with the receiver — the route partition, the
// time-dependent graph's node set and CSR skeleton, the station graph, and
// the per-station connection indexes of unaffected stations. An update
// touching k connections costs O(k log k) recompute plus flat copies of the
// connection and edge arrays, instead of the full rebuild + re-validation
// ApplyDelays pays; see BenchmarkApplyDelays for the gap.
//
// The receiver is never modified, so in-flight queries on it stay valid —
// this is the snapshot discipline internal/live builds on. The returned
// Network carries no distance table: preprocessing computed against the old
// times is invalid, so callers either re-preprocess (live.Registry does
// this asynchronously) or serve with the stopping criterion alone. A batch
// matching no train returns the receiver itself, unchanged.
func (n *Network) ApplyUpdates(ops []DelayOp) (*Network, *UpdateStats, error) {
	start := time.Now()
	tt := n.tt
	type action struct {
		delta  Ticks
		cancel bool
	}
	acts := make(map[timetable.TrainID]*action)
	collect := func(z timetable.TrainID, op DelayOp) {
		if !trainInWindow(tt, z, op.WindowFrom, op.WindowTo) {
			return
		}
		a := acts[z]
		if a == nil {
			a = &action{}
			acts[z] = a
		}
		if op.Cancel {
			a.cancel = true
		} else {
			a.delta += op.Delay
		}
	}
	for _, op := range ops {
		for _, q := range op.Routes {
			if q < 0 || q >= len(tt.Routes()) {
				return nil, nil, fmt.Errorf("transit: delay op references route %d, have %d routes", q, len(tt.Routes()))
			}
		}
		if op.WindowTo != 0 && op.WindowTo < op.WindowFrom {
			return nil, nil, fmt.Errorf("transit: delay op window [%d,%d] is empty", op.WindowFrom, op.WindowTo)
		}
		routeMatch := func(z timetable.TrainID) bool {
			if len(op.Routes) == 0 {
				return true
			}
			r := tt.RouteOf(z)
			for _, q := range op.Routes {
				if timetable.RouteID(q) == r {
					return true
				}
			}
			return false
		}
		switch {
		case op.Train != "":
			for _, z := range tt.TrainsByName(op.Train) {
				if routeMatch(z) {
					collect(z, op)
				}
			}
		case len(op.Routes) > 0:
			seen := make(map[int]bool, len(op.Routes))
			for _, q := range op.Routes {
				if seen[q] {
					continue // duplicate route entries must not double-apply
				}
				seen[q] = true
				for _, z := range tt.Routes()[q].Trains {
					collect(z, op)
				}
			}
		default:
			for z := range tt.Trains {
				collect(timetable.TrainID(z), op)
			}
		}
	}
	st := &UpdateStats{}
	var updates []timetable.ConnUpdate
	var touched []timetable.ConnID
	for z, a := range acts {
		switch {
		case a.cancel:
			st.TrainsCancelled++
		case a.delta != 0:
			st.TrainsDelayed++
		default:
			continue // net-zero delay: nothing to do
		}
		route := int(tt.RouteOf(z))
		for _, id := range tt.TrainConnections(z) {
			if tt.Cancelled(id) {
				continue
			}
			c := tt.Connections[id]
			tc := TouchedConn{Conn: int(id), Train: int(z), Route: route, From: c.From, OldDep: c.Dep, NewDep: c.Dep}
			if a.cancel {
				updates = append(updates, timetable.ConnUpdate{ID: id, Cancel: true})
				tc.Cancelled = true
				st.ConnsCancelled++
			} else {
				dep := tt.Period.Wrap(c.Dep + a.delta)
				updates = append(updates, timetable.ConnUpdate{ID: id, Dep: dep, Arr: dep + c.Duration()})
				tc.NewDep = dep
				st.ConnsRetimed++
			}
			st.Touched = append(st.Touched, tc)
			touched = append(touched, id)
		}
	}
	sort.Slice(st.Touched, func(i, j int) bool { return st.Touched[i].Conn < st.Touched[j].Conn })
	if len(updates) == 0 {
		st.Elapsed = time.Since(start)
		return n, st, nil
	}
	ntt, err := tt.Patch(updates)
	if err != nil {
		return nil, nil, fmt.Errorf("transit: incremental update: %w", err)
	}
	ng, err := n.g.PatchTimes(ntt, touched)
	if err != nil {
		return nil, nil, fmt.Errorf("transit: incremental update: %w", err)
	}
	// The station graph condenses connectivity, which delays never change
	// and cancellations only shrink — a (possibly stale) superset keeps the
	// via-station computation conservative, hence correct — so it is shared.
	// The distance table is NOT shared: its entries are travel times, which
	// the update changed.
	n2 := &Network{tt: ntt, g: ng, sg: n.sg, byName: n.byName, patched: true}
	st.Elapsed = time.Since(start)
	return n2, st, nil
}

// trainInWindow reports whether train z has a non-cancelled connection
// departing in [from, to]; to = 0 means no upper bound.
func trainInWindow(tt *timetable.Timetable, z timetable.TrainID, from, to Ticks) bool {
	for _, id := range tt.TrainConnections(z) {
		if tt.Cancelled(id) {
			continue
		}
		d := tt.Connections[id].Dep
		if d >= from && (to == 0 || d <= to) {
			return true
		}
	}
	return false
}

// TimetableBuilder assembles a custom network programmatically through the
// public API. Times are in minutes of a 1440-minute day unless a different
// period is given.
type TimetableBuilder struct {
	b *timetable.Builder
}

// NewTimetableBuilder returns a builder over a period of the given length
// (0 means the 1440-minute day).
func NewTimetableBuilder(period Ticks) *TimetableBuilder {
	if period <= 0 {
		period = timeutil.DayMinutes
	}
	return &TimetableBuilder{b: timetable.NewBuilder(timeutil.NewPeriod(period))}
}

// AddStation adds a station with the given minimum transfer time and
// returns its ID.
func (tb *TimetableBuilder) AddStation(name string, transfer Ticks) StationID {
	return tb.b.AddStation(name, transfer)
}

// AddTrain adds a train serving the given stations in order: it departs the
// first station at dep, hop i takes hops[i] ticks, and the train waits
// dwell ticks at intermediate stops.
func (tb *TimetableBuilder) AddTrain(name string, stations []StationID, dep Ticks, hops []Ticks, dwell Ticks) error {
	if len(hops) != len(stations)-1 {
		return fmt.Errorf("transit: %d stations need %d hop times, got %d", len(stations), len(stations)-1, len(hops))
	}
	tb.b.AddTrainRun(name, stations, dep, hops, dwell)
	return nil
}

// AddFootpath adds a directed walking link: arriving at from at time t one
// reaches to at t + walk, at any time of day.
func (tb *TimetableBuilder) AddFootpath(from, to StationID, walk Ticks) {
	tb.b.AddFootpath(from, to, walk)
}

// Build validates the timetable and returns the query-ready Network.
func (tb *TimetableBuilder) Build() (*Network, error) {
	tt, err := tb.b.Build()
	if err != nil {
		return nil, err
	}
	return NewNetwork(tt), nil
}
