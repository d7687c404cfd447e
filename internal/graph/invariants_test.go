package graph

// Structural invariants of the time-dependent graph, checked across all
// generator families: these are the properties the search algorithms rely
// on without re-validating at query time.

import (
	"slices"
	"testing"

	"transit/internal/gen"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// assertOneRidePerNode checks, route by route, that a route node has a ride
// exactly when it is not its route's last stop, and that every departure of
// the ride of u is a connection from u to u+1. The profile searches keep one
// ride cursor per node (internal/core), which is only right while a node's
// ride departures are those of one hop.
func assertOneRidePerNode(t *testing.T, g *Graph) {
	t.Helper()
	u := NodeID(g.NumStations())
	for r, route := range g.TT.Routes() {
		for p := range route.Stations {
			conns, ok := g.Ride(u)
			if last := p == len(route.Stations)-1; ok == last {
				t.Fatalf("route %d, stop %d of %d (node %d): has a ride = %v", r, p, len(route.Stations), u, ok)
			}
			for _, rc := range conns {
				if g.ConnDepartureNode(rc.Conn) != u || g.ConnArrivalNode(rc.Conn) != u+1 {
					t.Fatalf("node %d rides connection %d, which runs %d → %d", u, rc.Conn,
						g.ConnDepartureNode(rc.Conn), g.ConnArrivalNode(rc.Conn))
				}
			}
			u++
		}
	}
	if int(u) != g.NumNodes() {
		t.Fatalf("routes cover nodes up to %d of %d", u, g.NumNodes())
	}
}

// A patched graph keeps the shape of the one it was patched from, rides
// included.
func TestOneRideEdgePerNodeAfterPatch(t *testing.T) {
	for _, fam := range gen.Families() {
		t.Run(string(fam), func(t *testing.T) {
			cfg, err := gen.FamilyConfig(fam, 0.06, 5)
			if err != nil {
				t.Fatal(err)
			}
			tt, err := gen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := Build(tt)
			// Delay the first train that stays within the period and cancel
			// the last one.
			fits := make(map[timetable.TrainID]bool)
			for _, c := range tt.Connections {
				ok, seen := fits[c.Train]
				fits[c.Train] = (ok || !seen) && !c.Arr.IsInf() && tt.Period.Valid(c.Dep+15)
			}
			delayed, cancelled := timetable.TrainID(-1), tt.Connections[len(tt.Connections)-1].Train
			for _, c := range tt.Connections {
				if fits[c.Train] && c.Train != cancelled {
					delayed = c.Train
					break
				}
			}
			var ups []timetable.ConnUpdate
			var touched []timetable.ConnID
			for _, c := range tt.Connections {
				switch c.Train {
				case delayed:
					ups = append(ups, timetable.ConnUpdate{ID: c.ID, Dep: c.Dep + 15, Arr: c.Arr + 15})
				case cancelled:
					ups = append(ups, timetable.ConnUpdate{ID: c.ID, Cancel: true})
				default:
					continue
				}
				touched = append(touched, c.ID)
			}
			ntt, err := tt.Patch(ups)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := g.PatchTimes(ntt, touched)
			if err != nil {
				t.Fatal(err)
			}
			assertOneRidePerNode(t, pg)
		})
	}
}

func TestGraphInvariantsAcrossFamilies(t *testing.T) {
	for _, fam := range gen.Families() {
		t.Run(string(fam), func(t *testing.T) {
			cfg, err := gen.FamilyConfig(fam, 0.06, 5)
			if err != nil {
				t.Fatal(err)
			}
			tt, err := gen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := Build(tt)
			pi := tt.Period.Len()

			// Boards(s) is exactly the route nodes at s, in node order, and
			// a route node alights at a station.
			routeNodesAt := make([][]NodeID, tt.NumStations())
			for u := NodeID(g.NumStations()); int(u) < g.NumNodes(); u++ {
				s := g.Station(u)
				if s < 0 || int(s) >= tt.NumStations() {
					t.Fatalf("route node %d alights at station %d", u, s)
				}
				routeNodesAt[s] = append(routeNodesAt[s], u)
			}
			for s := range tt.NumStations() {
				if got := g.Boards(timetable.StationID(s)); !slices.Equal(got, routeNodesAt[s]) {
					t.Fatalf("station %d: boards %v, route nodes %v", s, got, routeNodesAt[s])
				}
			}

			for u := NodeID(g.NumStations()); int(u) < g.NumNodes(); u++ {
				conns, _ := g.Ride(u)
				// Sorted strictly by departure (duplicates collapsed).
				for i := 1; i < len(conns); i++ {
					if conns[i].Dep <= conns[i-1].Dep {
						t.Fatalf("ride conns not strictly sorted at node %d", u)
					}
				}
				// Dominance-free circularly.
				for i := range conns {
					ai := conns[i].Dep + conns[i].Dur
					for d := 1; d < len(conns); d++ {
						j := (i + d) % len(conns)
						lift := timeutil.Ticks(0)
						if i+d >= len(conns) {
							lift = pi
						}
						if conns[j].Dep+conns[j].Dur+lift <= ai {
							t.Fatalf("dominated ride conn survived at node %d: %d dominated by %d", u, i, j)
						}
					}
				}
				// Connection endpoints match the ride.
				for _, rc := range conns {
					c := tt.Connections[rc.Conn]
					if c.From != g.Station(u) || c.To != g.Station(u+1) {
						t.Fatalf("ride conn endpoints mismatch at node %d", u)
					}
					if c.Dep != rc.Dep || c.Duration() != rc.Dur {
						t.Fatalf("ride conn times mismatch at node %d", u)
					}
				}
			}

			// Every connection's departure node has a ride toward the
			// arrival node's station (the connection itself may have been
			// dominance-reduced away, but the ride must exist).
			for _, c := range tt.Connections {
				dep := g.ConnDepartureNode(c.ID)
				if _, ok := g.Ride(dep); !ok || g.Station(dep+1) != c.To {
					t.Fatalf("connection %d has no ride from its departure node", c.ID)
				}
			}

			// The last stop of every route has no ride.
			assertOneRidePerNode(t, g)
		})
	}
}
