package graph

// Structural invariants of the time-dependent graph, checked across all
// generator families: these are the properties the search algorithms rely
// on without re-validating at query time.

import (
	"testing"

	"transit/internal/gen"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// assertOneRideEdgePerNode checks that no node has two Ride out-edges. The
// profile searches keep one ride cursor per node (internal/core), which is
// only right while a node's ride departures are those of one edge.
func assertOneRideEdgePerNode(t *testing.T, g *Graph) {
	t.Helper()
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		rides := 0
		for _, e := range g.OutEdges(n) {
			if e.Kind == Ride {
				rides++
			}
		}
		if rides > 1 {
			t.Fatalf("node %d has %d ride edges", n, rides)
		}
	}
}

// A patched graph keeps the shape of the one it was patched from, ride edges
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
			assertOneRideEdgePerNode(t, pg)
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

			for n := NodeID(0); int(n) < g.NumNodes(); n++ {
				edges := g.OutEdges(n)
				for e := range edges {
					edge := &edges[e]
					switch edge.Kind {
					case Board:
						// Only station nodes board; weight is T(S).
						if !g.IsStationNode(n) {
							t.Fatalf("board edge out of route node %d", n)
						}
						if edge.W != tt.Stations[g.Station(n)].Transfer {
							t.Fatalf("board weight %d != T(S)=%d", edge.W, tt.Stations[g.Station(n)].Transfer)
						}
						if g.IsStationNode(edge.Head) {
							t.Fatal("board edge leads to a station node")
						}
						if g.Station(edge.Head) != g.Station(n) {
							t.Fatal("board edge changes station")
						}
					case Alight:
						if g.IsStationNode(n) {
							t.Fatal("alight edge out of station node")
						}
						if edge.W != 0 {
							t.Fatalf("alight weight %d != 0", edge.W)
						}
						if edge.Head != g.StationNode(g.Station(n)) {
							t.Fatal("alight edge leads to foreign station")
						}
					case Ride:
						if g.IsStationNode(n) {
							t.Fatal("ride edge out of station node")
						}
						conns := g.RideConns(edge)
						// Sorted strictly by departure (duplicates collapsed).
						for i := 1; i < len(conns); i++ {
							if conns[i].Dep <= conns[i-1].Dep {
								t.Fatalf("ride conns not strictly sorted at node %d", n)
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
									t.Fatalf("dominated ride conn survived at node %d: %d dominated by %d", n, i, j)
								}
							}
						}
						// Connection endpoints match the edge.
						for _, rc := range conns {
							c := tt.Connections[rc.Conn]
							if c.From != g.Station(n) || c.To != g.Station(edge.Head) {
								t.Fatalf("ride conn endpoints mismatch at node %d", n)
							}
							if c.Dep != rc.Dep || c.Duration() != rc.Dur {
								t.Fatalf("ride conn times mismatch at node %d", n)
							}
						}
					default:
						t.Fatalf("unknown edge kind %d", edge.Kind)
					}
				}
			}

			// Every connection's departure node has a ride edge toward the
			// arrival node's station (the connection itself may have been
			// dominance-reduced away, but the edge must exist).
			for _, c := range tt.Connections {
				dep := g.ConnDepartureNode(c.ID)
				found := false
				for _, e := range g.OutEdges(dep) {
					if e.Kind == Ride && g.Station(e.Head) == c.To {
						found = true
					}
				}
				if !found {
					t.Fatalf("connection %d has no ride edge from its departure node", c.ID)
				}
			}

			assertOneRideEdgePerNode(t, g)

			// A route node's out-edges are its Alight edge, then its Ride
			// edge to the next route node, which RideEdge returns (nil at
			// the last stop): the settle loop's trip scan reads them so.
			for u := NodeID(g.NumStations()); int(u) < g.NumNodes(); u++ {
				edges := g.OutEdges(u)
				if len(edges) == 0 || len(edges) > 2 || edges[0].Kind != Alight {
					t.Fatalf("route node %d: out-edges %v, want Alight then at most one Ride", u, edges)
				}
				ride := g.RideEdge(u)
				if len(edges) == 1 {
					if ride != nil {
						t.Fatalf("route node %d: RideEdge %v at the last stop", u, ride)
					}
					continue
				}
				if ride != &edges[1] || ride.Kind != Ride || ride.Head != u+1 {
					t.Fatalf("route node %d: RideEdge %v, out-edges %v, want a Ride edge to %d", u, ride, edges, u+1)
				}
			}

			// Station nodes have exactly one board edge per route node at
			// that station.
			routeNodesAt := make(map[timetable.StationID]int)
			for n := NodeID(0); int(n) < g.NumNodes(); n++ {
				if !g.IsStationNode(n) {
					routeNodesAt[g.Station(n)]++
				}
			}
			for s := 0; s < tt.NumStations(); s++ {
				edges := g.OutEdges(g.StationNode(timetable.StationID(s)))
				if len(edges) != routeNodesAt[timetable.StationID(s)] {
					t.Fatalf("station %d: %d board edges for %d route nodes", s, len(edges), routeNodesAt[timetable.StationID(s)])
				}
			}
		})
	}
}
