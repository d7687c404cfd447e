package graph

// A reference construction of the timetable's indexes and of the
// time-dependent graph with plain maps and comparator sorts, written for
// clarity rather than speed. TestBuildMatchesReference compares
// timetable.New's indexes and Build with it field for field.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"transit/internal/gen"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// refIndexes are the timetable indexes, derived the plain way.
type refIndexes struct {
	outgoing, incoming map[timetable.StationID][]timetable.ConnID
	trainConns         map[timetable.TrainID][]timetable.ConnID
	routes             []timetable.Route
	trainRoute         []timetable.RouteID
	footpaths          map[timetable.StationID][]timetable.Footpath
}

func refTimetable(tt *timetable.Timetable) refIndexes {
	ref := refIndexes{
		outgoing:   map[timetable.StationID][]timetable.ConnID{},
		incoming:   map[timetable.StationID][]timetable.ConnID{},
		trainConns: map[timetable.TrainID][]timetable.ConnID{},
		footpaths:  map[timetable.StationID][]timetable.Footpath{},
	}
	for _, c := range tt.Connections {
		ref.trainConns[c.Train] = append(ref.trainConns[c.Train], c.ID)
		if !c.Arr.IsInf() {
			ref.outgoing[c.From] = append(ref.outgoing[c.From], c.ID)
			ref.incoming[c.To] = append(ref.incoming[c.To], c.ID)
		}
	}
	byTime := func(ids []timetable.ConnID, at func(timetable.Connection) timeutil.Ticks) {
		sort.Slice(ids, func(i, j int) bool {
			a, b := tt.Connections[ids[i]], tt.Connections[ids[j]]
			if at(a) != at(b) {
				return at(a) < at(b)
			}
			return a.ID < b.ID
		})
	}
	for _, ids := range ref.outgoing {
		byTime(ids, func(c timetable.Connection) timeutil.Ticks { return c.Dep })
	}
	for _, ids := range ref.incoming {
		byTime(ids, func(c timetable.Connection) timeutil.Ticks { return c.Arr })
	}
	for _, f := range tt.Footpaths {
		ref.footpaths[f.From] = append(ref.footpaths[f.From], f)
	}
	index := map[string]timetable.RouteID{}
	for z := range tt.Trains {
		ids := ref.trainConns[timetable.TrainID(z)]
		var seq []timetable.StationID
		if len(ids) > 0 {
			seq = append(seq, tt.Connections[ids[0]].From)
		}
		for _, id := range ids {
			seq = append(seq, tt.Connections[id].To)
		}
		key := fmt.Sprint(seq)
		r, ok := index[key]
		if !ok {
			r = timetable.RouteID(len(ref.routes))
			index[key] = r
			ref.routes = append(ref.routes, timetable.Route{ID: r, Stations: seq})
		}
		ref.routes[r].Trains = append(ref.routes[r].Trains, timetable.TrainID(z))
		ref.trainRoute = append(ref.trainRoute, r)
	}
	return ref
}

// refGraph is the time-dependent graph, derived the plain way: the boards
// of every station, and per route node its ride's departures, whether it is
// its route's last stop and its member connections.
type refGraph struct {
	routeOffset []NodeID
	nodeStation []timetable.StationID
	boards      [][]NodeID           // per station
	rides       [][]RideConn         // per route node
	lastStop    []bool               // per route node
	members     [][]timetable.ConnID // per route node
	connDepNode []NodeID
	connArrNode []NodeID
}

func refBuild(tt *timetable.Timetable, ref refIndexes) refGraph {
	var g refGraph
	numNodes := tt.NumStations()
	for _, r := range ref.routes {
		g.routeOffset = append(g.routeOffset, NodeID(numNodes))
		numNodes += len(r.Stations)
	}
	g.routeOffset = append(g.routeOffset, NodeID(numNodes))
	routeNodesAt := map[timetable.StationID][]NodeID{}
	for s := range tt.Stations {
		g.nodeStation = append(g.nodeStation, timetable.StationID(s))
	}
	for i, r := range ref.routes {
		for p, s := range r.Stations {
			g.nodeStation = append(g.nodeStation, s)
			routeNodesAt[s] = append(routeNodesAt[s], g.routeOffset[i]+NodeID(p))
		}
	}
	for s := range tt.Stations {
		g.boards = append(g.boards, routeNodesAt[timetable.StationID(s)])
	}
	type hopKey struct {
		route timetable.RouteID
		hop   int
	}
	hopConns := map[hopKey][]RideConn{}
	hopIDs := map[hopKey][]timetable.ConnID{}
	hopIndex := map[timetable.TrainID]int{}
	for _, c := range tt.Connections {
		r, h := ref.trainRoute[c.Train], hopIndex[c.Train]
		hopIndex[c.Train]++
		g.connDepNode = append(g.connDepNode, g.routeOffset[r]+NodeID(h))
		g.connArrNode = append(g.connArrNode, g.routeOffset[r]+NodeID(h)+1)
		if !c.Arr.IsInf() {
			k := hopKey{r, h}
			hopConns[k] = append(hopConns[k], RideConn{Dep: c.Dep, Dur: c.Arr - c.Dep, Conn: c.ID})
			hopIDs[k] = append(hopIDs[k], c.ID)
		}
	}
	for n := NodeID(tt.NumStations()); int(n) < numNodes; n++ {
		ri := sort.Search(len(ref.routes), func(i int) bool { return g.routeOffset[i+1] > n })
		pos := int(n - g.routeOffset[ri])
		k := hopKey{timetable.RouteID(ri), pos}
		g.rides = append(g.rides, refReduce(tt.Period, hopConns[k]))
		g.lastStop = append(g.lastStop, pos == len(ref.routes[ri].Stations)-1)
		g.members = append(g.members, hopIDs[k])
	}
	return g
}

// refReduce is the definition reduceRideConns implements: sorted by
// (Dep, Dur, Conn), one vehicle per departure, and a departure kept iff it
// arrives strictly before every later departure of this and the next
// period.
func refReduce(period timeutil.Period, conns []RideConn) []RideConn {
	conns = slices.Clone(conns)
	sort.Slice(conns, func(i, j int) bool {
		a, b := conns[i], conns[j]
		if a.Dep != b.Dep {
			return a.Dep < b.Dep
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		return a.Conn < b.Conn
	})
	var dedup []RideConn
	for _, c := range conns {
		if len(dedup) == 0 || dedup[len(dedup)-1].Dep != c.Dep {
			dedup = append(dedup, c)
		}
	}
	var out []RideConn
	for i, c := range dedup {
		arr, kept := c.Dep+c.Dur, true
		for j, d := range dedup {
			later := d.Dep + d.Dur
			if j <= i {
				later += period.Len()
			}
			if later <= arr && j != i {
				kept = false
			}
		}
		if kept {
			out = append(out, c)
		}
	}
	return out
}

// checkAgainstReference compares the timetable's indexes and Build's graph
// with the reference construction.
func checkAgainstReference(t *testing.T, label string, tt *timetable.Timetable) {
	t.Helper()
	ref := refTimetable(tt)
	eq := func(what string, got, want any) {
		t.Helper()
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
			t.Fatalf("%s: %s = %s, reference %s", label, what, g, w)
		}
	}
	for s := range tt.Stations {
		id := timetable.StationID(s)
		eq(fmt.Sprintf("Outgoing(%d)", s), tt.Outgoing(id), ref.outgoing[id])
		eq(fmt.Sprintf("Incoming(%d)", s), tt.Incoming(id), ref.incoming[id])
		eq(fmt.Sprintf("FootpathsFrom(%d)", s), tt.FootpathsFrom(id), ref.footpaths[id])
	}
	for z := range tt.Trains {
		id := timetable.TrainID(z)
		eq(fmt.Sprintf("TrainConnections(%d)", z), tt.TrainConnections(id), ref.trainConns[id])
		eq(fmt.Sprintf("RouteOf(%d)", z), tt.RouteOf(id), ref.trainRoute[z])
	}
	eq("Routes", tt.Routes(), ref.routes)

	g, want := Build(tt), refBuild(tt, ref)
	eq("routeOffset", g.routeOffset, want.routeOffset)
	eq("nodeStation", g.nodeStation, want.nodeStation)
	eq("connDepNode", g.connDepNode, want.connDepNode)
	eq("connArrNode", g.connArrNode, want.connArrNode)
	for s := range tt.Stations {
		eq(fmt.Sprintf("Boards(%d)", s), g.Boards(timetable.StationID(s)), want.boards[s])
	}
	eq("lastStop", g.lastStop, want.lastStop)
	if len(g.members) != len(want.members) || len(g.rideOff) != len(want.rides)+1 {
		t.Fatalf("%s: %d member lists and %d ride offsets for %d route nodes", label, len(g.members), len(g.rideOff), len(want.rides))
	}
	var store []RideConn
	for j := range want.rides {
		u := NodeID(tt.NumStations() + j)
		conns, ok := g.Ride(u)
		eq(fmt.Sprintf("route node %d's ride departures", u), conns, want.rides[j])
		eq(fmt.Sprintf("route node %d has a ride", u), ok, !want.lastStop[j])
		eq(fmt.Sprintf("route node %d's members", u), g.members[j], want.members[j])
		store = append(store, want.rides[j]...)
	}
	eq("rideConns", g.rideConns, store)
}

// referenceTimetable draws a small network whose trains share routes and
// often depart together with equal running times, so rides carry
// duplicate departures and exact ties; some trains run past the period's
// end, and there are footpaths. A third of the periods are long (a day in
// seconds, or 2^23 ticks), so times take two or three 11-bit digits.
func referenceTimetable(t *testing.T, rng *rand.Rand) *timetable.Timetable {
	t.Helper()
	pi, scale := 30+rng.Intn(200), 1
	switch rng.Intn(6) {
	case 0:
		pi, scale = 86400, 60
	case 1:
		pi, scale = 1<<23, 1<<13
	}
	period := timeutil.NewPeriod(timeutil.Ticks(pi))
	b := timetable.NewBuilder(period)
	nS := 2 + rng.Intn(10)
	for s := 0; s < nS; s++ {
		b.AddStation(fmt.Sprintf("S%d", s), timeutil.Ticks(rng.Intn(4)))
	}
	var lines [][]timetable.StationID
	for l := 1 + rng.Intn(4); l > 0; l-- {
		var stops []timetable.StationID
		for len(stops) < 2+rng.Intn(5) {
			s := timetable.StationID(rng.Intn(nS))
			if len(stops) == 0 || stops[len(stops)-1] != s {
				stops = append(stops, s)
			}
		}
		lines = append(lines, stops)
	}
	for z := rng.Intn(25); z >= 0; z-- {
		stops := lines[rng.Intn(len(lines))]
		run := make([]timeutil.Ticks, len(stops)-1)
		for i := range run {
			run[i] = timeutil.Ticks(1 + rng.Intn(3)*rng.Intn(40)*scale)
		}
		b.AddTrainRun(fmt.Sprintf("z%d", rng.Intn(6)), stops, timeutil.Ticks(rng.Intn(4)*rng.Intn(int(period.Len()))), run, timeutil.Ticks(rng.Intn(3)))
	}
	for f := rng.Intn(2 * nS); f > 0; f-- {
		from, to := timetable.StationID(rng.Intn(nS)), timetable.StationID(rng.Intn(nS))
		if from != to {
			b.AddFootpath(from, to, timeutil.Ticks(rng.Intn(30)))
		}
	}
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

// cancelSome patches tt: every third touched connection is cancelled, the
// others are moved by a few ticks (whole trains are not kept consistent,
// which neither Patch nor Build needs).
func cancelSome(t *testing.T, tt *timetable.Timetable, rng *rand.Rand, n int) *timetable.Timetable {
	t.Helper()
	var ups []timetable.ConnUpdate
	for i := 0; i < n && tt.NumConnections() > 0; i++ {
		c := tt.Connections[rng.Intn(tt.NumConnections())]
		if i%3 == 0 {
			ups = append(ups, timetable.ConnUpdate{ID: c.ID, Cancel: true})
			continue
		}
		dep := tt.Period.Wrap(c.Dep + timeutil.Ticks(rng.Intn(5)))
		ups = append(ups, timetable.ConnUpdate{ID: c.ID, Dep: dep, Arr: dep + c.Duration()})
	}
	pt, err := tt.Patch(ups)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// checkPatched checks a patched timetable (its rows re-sorted by Patch)
// and the same records indexed from scratch.
func checkPatched(t *testing.T, label string, pt *timetable.Timetable) {
	t.Helper()
	checkAgainstReference(t, label+" patched", pt)
	rebuilt, err := timetable.NewWithFootpaths(pt.Period, pt.Stations, pt.Trains, pt.Connections, pt.Footpaths)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, label+" patched and rebuilt", rebuilt)
}

// TestBuildMatchesReference runs the comparison on every generator family,
// on random timetables with footpaths and ties, and on all of them with
// cancelled and retimed connections.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, f := range gen.Families() {
		cfg, err := gen.FamilyConfig(f, 0.03, 7)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, string(f), tt)
		checkPatched(t, string(f), cancelSome(t, tt, rng, 300))
	}
	for trial := 0; trial < 300; trial++ {
		tt := referenceTimetable(t, rng)
		label := fmt.Sprintf("random %d", trial)
		checkAgainstReference(t, label, tt)
		checkPatched(t, label, cancelSome(t, tt, rng, 1+rng.Intn(8)))
	}
}
