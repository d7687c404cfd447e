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
	// Ride edges: route1 has 2 hops, route2 has 1 hop.
	if st.RideEdges != 3 {
		t.Fatalf("ride edges = %d, want 3", st.RideEdges)
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
	// Station B (id 1) hosts route nodes of both routes → 2 board edges
	// with weight T(B)=3.
	edges := g.OutEdges(g.StationNode(1))
	if len(edges) != 2 {
		t.Fatalf("station B board edges = %d, want 2", len(edges))
	}
	for _, e := range edges {
		if e.Kind != Board || e.W != 3 {
			t.Fatalf("bad board edge %+v", e)
		}
		if g.Station(e.Head) != 1 {
			t.Fatalf("board edge leads to route node of station %d", g.Station(e.Head))
		}
		// Each route node has an alight edge back with weight 0.
		back := g.OutEdges(e.Head)
		foundAlight := false
		for _, be := range back {
			if be.Kind == Alight {
				foundAlight = true
				if be.W != 0 || be.Head != g.StationNode(1) {
					t.Fatalf("bad alight edge %+v", be)
				}
			}
		}
		if !foundAlight {
			t.Fatal("route node missing alight edge")
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
		// The ride edge out of dep must contain the connection (unless it
		// was dominance-reduced away, which cannot happen here).
		found := false
		for _, e := range g.OutEdges(dep) {
			if e.Kind != Ride {
				continue
			}
			for _, rc := range g.RideConns(&e) {
				if rc.Conn == c.ID {
					found = true
					if rc.Dep != c.Dep || rc.Dur != c.Duration() {
						t.Fatalf("ride conn mismatch: %+v vs %+v", rc, c)
					}
				}
			}
		}
		if !found {
			t.Fatalf("connection %d not found on its ride edge", c.ID)
		}
	}
}

func TestEvalRide(t *testing.T) {
	tt := lineNetwork(t)
	g := Build(tt)
	// Route 1 hop A→B: departures 480 (t1) and 540 (t2), both 10 min.
	depNode := g.ConnDepartureNode(0)
	var ride *Edge
	for i := range g.OutEdges(depNode) {
		e := &g.OutEdges(depNode)[i]
		if e.Kind == Ride {
			ride = e
		}
	}
	if ride == nil {
		t.Fatal("no ride edge")
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
		arr, conn := g.EvalRide(ride, tc.at)
		if arr != tc.wantArr {
			t.Errorf("EvalRide(at=%d) = %d, want %d", tc.at, arr, tc.wantArr)
		}
		if conn < 0 {
			t.Errorf("EvalRide(at=%d) returned no connection", tc.at)
		}
	}
}

func TestEvalEdgeConstant(t *testing.T) {
	tt := lineNetwork(t)
	g := Build(tt)
	e := g.OutEdges(g.StationNode(1))[0] // board edge, W=3
	arr, conn := g.EvalEdge(&e, 500)
	if arr != 503 || conn != -1 {
		t.Fatalf("EvalEdge board = (%d,%d)", arr, conn)
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
// departures, on random ride edges.
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
		g := &Graph{rideConns: reduced}
		g.TT = &timetable.Timetable{Period: day}
		e := Edge{Kind: Ride, First: 0, Num: int32(len(reduced))}
		for tau := timeutil.Ticks(0); tau < 1440; tau += 17 {
			best := timeutil.Infinity
			for _, c := range raw {
				arr := tau + day.Delta(tau, c.Dep) + c.Dur
				if arr < best {
					best = arr
				}
			}
			got, _ := g.EvalRide(&e, tau)
			if got != best {
				t.Fatalf("trial %d: EvalRide(%d)=%d, brute=%d\nraw %+v\nreduced %+v",
					trial, tau, got, best, raw, reduced)
			}
		}
	}
}

func TestEmptyRideEdge(t *testing.T) {
	g := &Graph{}
	g.TT = &timetable.Timetable{Period: day}
	e := Edge{Kind: Ride, First: 0, Num: 0}
	arr, conn := g.EvalRide(&e, 100)
	if !arr.IsInf() || conn != -1 {
		t.Fatal("empty ride edge must be unreachable")
	}
}

func TestStatsString(t *testing.T) {
	tt := lineNetwork(t)
	g := Build(tt)
	if g.Stats().String() == "" {
		t.Fatal("empty stats string")
	}
	if g.NumEdges() != len(g.edges) {
		t.Fatal("NumEdges mismatch")
	}
}

// evalRideBySearch is EvalRide as it was defined before the lower bound was
// written out: sort.Search over the departures, Period.Wrap and Period.Len
// called as methods.
func evalRideBySearch(g *Graph, e *Edge, at timeutil.Ticks) (timeutil.Ticks, timetable.ConnID) {
	conns := g.RideConns(e)
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
	g := &Graph{rideConns: []RideConn{{Dep: 100, Dur: 10, Conn: 0}, {Dep: 700, Dur: 20, Conn: 1}}}
	g.TT = &timetable.Timetable{Period: day}
	full := Edge{Kind: Ride, First: 0, Num: 2}
	empty := Edge{Kind: Ride, First: 2, Num: 0}
	for _, tc := range []struct {
		name string
		e    *Edge
		at   timeutil.Ticks
		arr  timeutil.Ticks
		conn timetable.ConnID
	}{
		{"before first", &full, 0, 110, 0},
		{"at a departure", &full, 100, 110, 0},
		{"just missed", &full, 101, 720, 1},
		{"last of the day", &full, 700, 720, 1},
		{"wrap to next period", &full, 701, 1440 + 110, 0},
		{"end of period", &full, 1439, 1440 + 110, 0},
		{"at = π", &full, 1440, 1440 + 110, 0},
		{"two periods on", &full, 2*1440 + 100, 2*1440 + 110, 0},
		{"two periods on, wrapping", &full, 2*1440 + 701, 3*1440 + 110, 0},
		{"empty edge", &empty, 100, timeutil.Infinity, -1},
	} {
		arr, conn := g.EvalRide(tc.e, tc.at)
		if arr != tc.arr || conn != tc.conn {
			t.Errorf("%s: EvalRide(%d) = (%d, %d), want (%d, %d)", tc.name, tc.at, arr, conn, tc.arr, tc.conn)
		}
	}
}

// The written-out lower bound must agree with the sort.Search definition on
// every ride edge of a generated network — at the period's ends, around
// every departure, periods later, and at random times — and on an edge whose
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
	check := func(e *Edge, at timeutil.Ticks) {
		t.Helper()
		wantArr, wantConn := evalRideBySearch(g, e, at)
		if arr, conn := g.EvalRide(e, at); arr != wantArr || conn != wantConn {
			t.Fatalf("edge to %d at %d: EvalRide = (%d, %d), definition gives (%d, %d)",
				e.Head, at, arr, conn, wantArr, wantConn)
		}
	}
	rides, wraps := 0, 0
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		edges := g.OutEdges(n)
		for i := range edges {
			e := &edges[i]
			if e.Kind != Ride {
				continue
			}
			rides++
			for _, at := range []timeutil.Ticks{0, pi - 1, pi} {
				check(e, at)
			}
			for _, c := range g.RideConns(e) {
				for _, at := range []timeutil.Ticks{c.Dep - 1, c.Dep, c.Dep + 1, 2*pi + c.Dep} {
					if at >= 0 {
						check(e, at)
					}
				}
			}
			if last := g.RideConns(e); len(last) > 0 && last[len(last)-1].Dep+1 < pi {
				wraps++ // Dep+1 above was past the last departure
			}
			for r := 0; r < 8; r++ {
				check(e, timeutil.Ticks(rng.Intn(int(3*pi))))
			}
			check(&Edge{Kind: Ride, Head: e.Head, First: e.First, Num: 0}, timeutil.Ticks(rng.Intn(int(pi))))
		}
	}
	if rides == 0 || wraps == 0 {
		t.Fatalf("network exercised %d ride edges, %d wraps to the next period", rides, wraps)
	}
}
