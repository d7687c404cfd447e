package graph

import (
	"math/rand"
	"sort"
	"testing"

	"transit/internal/gen"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

var day = timeutil.NewPeriod(1440)

// lineNetwork: stations A-B-C, one route with two trains, plus a second
// route B-C with one train.
func lineNetwork(t *testing.T) *timetable.Timetable {
	t.Helper()
	b := timetable.NewBuilder(day)
	a := b.AddStation("A", 2)
	bb := b.AddStation("B", 3)
	c := b.AddStation("C", 2)
	b.AddTrainRun("t1", []timetable.StationID{a, bb, c}, 480, []timeutil.Ticks{10, 15}, 1)
	b.AddTrainRun("t2", []timetable.StationID{a, bb, c}, 540, []timeutil.Ticks{10, 15}, 1)
	b.AddTrainRun("t3", []timetable.StationID{bb, c}, 505, []timeutil.Ticks{9}, 0)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestBuildStructure(t *testing.T) {
	tt := lineNetwork(t)
	g := Build(tt)
	// 3 station nodes + route1 has 3 nodes + route2 has 2 nodes = 8.
	if g.NumNodes() != 8 || g.NumStations() != 3 {
		t.Fatalf("nodes = %d (%d stations)", g.NumNodes(), g.NumStations())
	}
	st := g.Stats()
	if st.RouteNodes != 5 {
		t.Fatalf("route nodes = %d, want 5", st.RouteNodes)
	}
	// Rides: route1 has 2 hops, route2 has 1 hop.
	if st.Rides != 3 {
		t.Fatalf("rides = %d, want 3", st.Rides)
	}
	// Every node belongs to a station.
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		s := g.Station(n)
		if s < 0 || int(s) >= tt.NumStations() {
			t.Fatalf("node %d has invalid station %d", n, s)
		}
		if g.IsStationNode(n) && NodeID(s) != n {
			t.Fatalf("station node %d maps to station %d", n, s)
		}
	}
}

func TestEdgeKindsAndWeights(t *testing.T) {
	tt := lineNetwork(t)
	g := Build(tt)
	// Station B (id 1) hosts route nodes of both routes → 2 boards, each
	// paying T(B)=3, and no footpaths.
	boards := g.Boards(1)
	if len(boards) != 2 || len(tt.FootpathsFrom(1)) != 0 || tt.Stations[1].Transfer != 3 {
		t.Fatalf("station B: boards %v, footpaths %v, T(B) = %d; want 2 boards at weight 3 and no footpaths",
			boards, tt.FootpathsFrom(1), tt.Stations[1].Transfer)
	}
	for _, u := range boards {
		if g.IsStationNode(u) {
			t.Fatalf("board leads to station node %d", u)
		}
		// Each route node alights back at its station, at weight 0.
		if g.StationNode(g.Station(u)) != g.StationNode(1) {
			t.Fatalf("board leads to route node %d of station %d", u, g.Station(u))
		}
	}
	// B is the middle stop of route 1, which rides on to C, and the first
	// of route 2, which rides on too.
	for _, u := range boards {
		if _, ok := g.Ride(u); !ok || g.Station(u+1) != 2 {
			t.Fatalf("route node %d: ride %v to station %d, want a ride to C", u, ok, g.Station(u+1))
		}
	}
}

func TestConnDepartureNodes(t *testing.T) {
	tt := lineNetwork(t)
	g := Build(tt)
	for _, c := range tt.Connections {
		dep := g.ConnDepartureNode(c.ID)
		arr := g.ConnArrivalNode(c.ID)
		if g.Station(dep) != c.From {
			t.Fatalf("conn %d departs from node of station %d, want %d", c.ID, g.Station(dep), c.From)
		}
		if g.Station(arr) != c.To {
			t.Fatalf("conn %d arrives at node of station %d, want %d", c.ID, g.Station(arr), c.To)
		}
		if g.IsStationNode(dep) || g.IsStationNode(arr) {
			t.Fatal("connection endpoints must be route nodes")
		}
		// The ride out of dep must contain the connection (unless it was
		// dominance-reduced away, which cannot happen here).
		found := false
		conns, _ := g.Ride(dep)
		for _, rc := range conns {
			if rc.Conn == c.ID {
				found = true
				if rc.Dep != c.Dep || rc.Dur != c.Duration() {
					t.Fatalf("ride conn mismatch: %+v vs %+v", rc, c)
				}
			}
		}
		if !found {
			t.Fatalf("connection %d not found on its ride", c.ID)
		}
	}
}

func TestEvalRide(t *testing.T) {
	tt := lineNetwork(t)
	g := Build(tt)
	// Route 1 hop A→B: departures 480 (t1) and 540 (t2), both 10 min.
	depNode := g.ConnDepartureNode(0)
	if _, ok := g.Ride(depNode); !ok {
		t.Fatal("no ride")
	}
	tests := []struct {
		at      timeutil.Ticks
		wantArr timeutil.Ticks
	}{
		{470, 490},   // wait 10 for 480 train
		{480, 490},   // immediate
		{481, 550},   // next train at 540
		{541, 1930},  // missed both → next day 480 train: 541 + (1440-541+480) + 10
		{1950, 1990}, // day 1, 07:30 → day 1 train at 540+1440
	}
	for _, tc := range tests {
		arr, conn := g.EvalRide(depNode, tc.at)
		if arr != tc.wantArr {
			t.Errorf("EvalRide(at=%d) = %d, want %d", tc.at, arr, tc.wantArr)
		}
		if conn < 0 {
			t.Errorf("EvalRide(at=%d) returned no connection", tc.at)
		}
	}
}

func TestReduceRideConnsDominance(t *testing.T) {
	conns := []RideConn{
		{Dep: 480, Dur: 200, Conn: 0}, // arrives 680, dominated by next
		{Dep: 500, Dur: 30, Conn: 1},  // arrives 530
		{Dep: 500, Dur: 60, Conn: 2},  // duplicate departure, slower
		{Dep: 600, Dur: 50, Conn: 3},
	}
	out := reduceRideConns(day, conns)
	if len(out) != 2 || out[0].Conn != 1 || out[1].Conn != 3 {
		t.Fatalf("got %+v", out)
	}
}

func TestReduceRideConnsCircular(t *testing.T) {
	// 23:00 + 10h dominated by 06:00 + 1h (Δ(1380,360)+60 = 480 < 600).
	conns := []RideConn{
		{Dep: 360, Dur: 60, Conn: 0},
		{Dep: 1380, Dur: 600, Conn: 1},
	}
	out := reduceRideConns(day, conns)
	if len(out) != 1 || out[0].Conn != 0 {
		t.Fatalf("got %+v", out)
	}
}

// EvalRide must equal the brute-force minimum over all (unreduced)
// departures, on random rides.
func TestEvalRideMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		raw := make([]RideConn, n)
		for i := range raw {
			raw[i] = RideConn{
				Dep:  timeutil.Ticks(rng.Intn(1440)),
				Dur:  timeutil.Ticks(1 + rng.Intn(300)),
				Conn: timetable.ConnID(i),
			}
		}
		cp := make([]RideConn, n)
		copy(cp, raw)
		reduced := reduceRideConns(day, cp)
		g := rideRows(reduced)
		for tau := timeutil.Ticks(0); tau < 1440; tau += 17 {
			best := timeutil.Infinity
			for _, c := range raw {
				arr := tau + day.Delta(tau, c.Dep) + c.Dur
				if arr < best {
					best = arr
				}
			}
			got, _ := g.EvalRide(0, tau)
			if got != best {
				t.Fatalf("trial %d: EvalRide(%d)=%d, brute=%d\nraw %+v\nreduced %+v",
					trial, tau, got, best, raw, reduced)
			}
		}
	}
}

// rideRows is a graph of route nodes only (no stations), one per row: node
// j rides on rows[j]. It has no timetable but its period, and its last node
// is not a route's last stop.
func rideRows(rows ...[]RideConn) *Graph {
	g := &Graph{TT: &timetable.Timetable{Period: day}, rideOff: []int32{0}, lastStop: make([]bool, len(rows))}
	for _, row := range rows {
		g.rideConns = append(g.rideConns, row...)
		g.rideOff = append(g.rideOff, int32(len(g.rideConns)))
	}
	return g
}

// A ride with no departures (every one cancelled) is a ride, unreachable;
// the last stop of a route has no ride and evaluates the same.
func TestEmptyRideEdge(t *testing.T) {
	g := rideRows(nil)
	if conns, ok := g.Ride(0); !ok || len(conns) != 0 {
		t.Fatalf("empty ride: Ride = (%v, %v), want a ride without departures", conns, ok)
	}
	if arr, conn := g.EvalRide(0, 100); !arr.IsInf() || conn != -1 {
		t.Fatal("empty ride must be unreachable")
	}
	g.lastStop[0] = true
	if conns, ok := g.Ride(0); ok || len(conns) != 0 {
		t.Fatalf("last stop: Ride = (%v, %v), want no ride", conns, ok)
	}
	if arr, conn := g.EvalRide(0, 100); !arr.IsInf() || conn != -1 {
		t.Fatal("the last stop must be unreachable by ride")
	}
}

func TestStatsString(t *testing.T) {
	tt := lineNetwork(t)
	g := Build(tt)
	if g.Stats().String() == "" {
		t.Fatal("empty stats string")
	}
}

// evalRideBySearch is EvalRide as it was defined before the lower bound was
// written out: sort.Search over the departures, Period.Wrap and Period.Len
// called as methods.
func evalRideBySearch(g *Graph, u NodeID, at timeutil.Ticks) (timeutil.Ticks, timetable.ConnID) {
	conns, _ := g.Ride(u)
	if len(conns) == 0 {
		return timeutil.Infinity, -1
	}
	tau := g.TT.Period.Wrap(at)
	i := sort.Search(len(conns), func(i int) bool { return conns[i].Dep >= tau })
	if i == len(conns) {
		c := conns[0]
		return at + g.TT.Period.Len() - tau + c.Dep + c.Dur, c.Conn
	}
	c := conns[i]
	return at + c.Dep - tau + c.Dur, c.Conn
}

func TestEvalRideTable(t *testing.T) {
	g := rideRows([]RideConn{{Dep: 100, Dur: 10, Conn: 0}, {Dep: 700, Dur: 20, Conn: 1}}, nil)
	const full, empty NodeID = 0, 1
	for _, tc := range []struct {
		name string
		u    NodeID
		at   timeutil.Ticks
		arr  timeutil.Ticks
		conn timetable.ConnID
	}{
		{"before first", full, 0, 110, 0},
		{"at a departure", full, 100, 110, 0},
		{"just missed", full, 101, 720, 1},
		{"last of the day", full, 700, 720, 1},
		{"wrap to next period", full, 701, 1440 + 110, 0},
		{"end of period", full, 1439, 1440 + 110, 0},
		{"at = π", full, 1440, 1440 + 110, 0},
		{"two periods on", full, 2*1440 + 100, 2*1440 + 110, 0},
		{"two periods on, wrapping", full, 2*1440 + 701, 3*1440 + 110, 0},
		{"empty edge", empty, 100, timeutil.Infinity, -1},
	} {
		arr, conn := g.EvalRide(tc.u, tc.at)
		if arr != tc.arr || conn != tc.conn {
			t.Errorf("%s: EvalRide(%d) = (%d, %d), want (%d, %d)", tc.name, tc.at, arr, conn, tc.arr, tc.conn)
		}
	}
}

// The written-out lower bound must agree with the sort.Search definition on
// every ride of a generated network — at the period's ends, around every
// departure, periods later, and at random times — and on a ride whose
// departures were all cancelled.
func TestEvalRideMatchesSearchDefinition(t *testing.T) {
	cfg, err := gen.FamilyConfig(gen.Oahu, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(tt)
	pi := tt.Period.Len()
	rng := rand.New(rand.NewSource(11))
	check := func(u NodeID, at timeutil.Ticks) {
		t.Helper()
		wantArr, wantConn := evalRideBySearch(g, u, at)
		if arr, conn := g.EvalRide(u, at); arr != wantArr || conn != wantConn {
			t.Fatalf("ride of %d at %d: EvalRide = (%d, %d), definition gives (%d, %d)",
				u, at, arr, conn, wantArr, wantConn)
		}
	}
	empty := rideRows(nil)
	empty.TT = g.TT
	rides, wraps := 0, 0
	for u := NodeID(g.NumStations()); int(u) < g.NumNodes(); u++ {
		conns, ok := g.Ride(u)
		if !ok {
			continue
		}
		rides++
		for _, at := range []timeutil.Ticks{0, pi - 1, pi} {
			check(u, at)
		}
		for _, c := range conns {
			for _, at := range []timeutil.Ticks{c.Dep - 1, c.Dep, c.Dep + 1, 2*pi + c.Dep} {
				if at >= 0 {
					check(u, at)
				}
			}
		}
		if len(conns) > 0 && conns[len(conns)-1].Dep+1 < pi {
			wraps++ // Dep+1 above was past the last departure
		}
		for r := 0; r < 8; r++ {
			check(u, timeutil.Ticks(rng.Intn(int(3*pi))))
		}
		if arr, conn := empty.EvalRide(0, timeutil.Ticks(rng.Intn(int(pi)))); !arr.IsInf() || conn != -1 {
			t.Fatalf("a ride with its departures cancelled: EvalRide = (%d, %d)", arr, conn)
		}
	}
	if rides == 0 || wraps == 0 {
		t.Fatalf("network exercised %d rides, %d wraps to the next period", rides, wraps)
	}
}
