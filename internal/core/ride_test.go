package core

import (
	"fmt"
	"testing"

	"transit/internal/graph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// rideEdge builds a two-station network with one train A→B per departure
// (dep[i], taking dur[i]) and returns its graph and its one ride edge, whose
// departures graph.Build has sorted and reduced. No departures gives an edge
// whose only train is cancelled: an empty one.
func rideEdge(t testing.TB, dep, dur []timeutil.Ticks) (*graph.Graph, *graph.Edge) {
	t.Helper()
	b := timetable.NewBuilder(timeutil.NewPeriod(timeutil.DayMinutes))
	a, z := b.AddStation("A", 2), b.AddStation("B", 2)
	empty := len(dep) == 0
	if empty {
		dep, dur = []timeutil.Ticks{480}, []timeutil.Ticks{10}
	}
	for i := range dep {
		b.AddTrainRun(fmt.Sprintf("t%d", i), []timetable.StationID{a, z}, dep[i], []timeutil.Ticks{dur[i]}, 0)
	}
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if empty {
		if tt, err = tt.Patch([]timetable.ConnUpdate{{ID: 0, Cancel: true}}); err != nil {
			t.Fatal(err)
		}
	}
	g := graph.Build(tt)
	for n := graph.NodeID(g.NumStations()); int(n) < g.NumNodes(); n++ {
		edges := g.OutEdges(n)
		for e := range edges {
			if edges[e].Kind == graph.Ride {
				return g, &edges[e]
			}
		}
	}
	t.Fatal("no ride edge")
	return nil, nil
}

// checkCursor evaluates keys in order through one cursor, all within one
// query (stamp 1 on a zero cursor), and compares every answer with
// graph.EvalRide.
func checkCursor(t *testing.T, g *graph.Graph, e *graph.Edge, keys []timeutil.Ticks) {
	t.Helper()
	var c rideCursor
	for n, key := range keys {
		arr, conn := c.eval(g.RideConns(e), g.TT.Period, key, 1, 1)
		wantArr, wantConn := g.EvalRide(e, key)
		if arr != wantArr || conn != wantConn {
			t.Fatalf("key %d (#%d of %v): cursor gives (%d, %d), EvalRide (%d, %d)",
				key, n, keys, arr, conn, wantArr, wantConn)
		}
	}
}

func TestRideCursorMatchesEvalRide(t *testing.T) {
	five := []timeutil.Ticks{360, 420, 480, 540, 600}
	tens := []timeutil.Ticks{10, 10, 10, 10, 10}
	cases := []struct {
		name     string
		dep, dur []timeutil.Ticks
		keys     []timeutil.Ticks
	}{
		{"empty edge", nil, nil, []timeutil.Ticks{500, 400, 2000}},
		{"one departure", []timeutil.Ticks{480}, []timeutil.Ticks{10},
			[]timeutil.Ticks{1000, 600, 481, 480, 479, 100, 0}},
		{"falls within a day", five, tens,
			[]timeutil.Ticks{700, 650, 600, 599, 541, 540, 539, 300, 0}},
		{"wraps past the last departure", five, tens,
			[]timeutil.Ticks{1439, 1000, 601, 600, 420}},
		{"crosses a day boundary downwards", five, tens,
			[]timeutil.Ticks{3000, 2000, 1500, 1440, 1439, 800, 360, 100}},
		{"rises", five, tens,
			[]timeutil.Ticks{300, 500, 800, 2000, 100, 3000, 1441}},
		{"repeats", five, tens,
			[]timeutil.Ticks{500, 500, 500, 420, 420, 1000, 1000}},
		// A slow early train is dominated by a fast later one and reduced
		// away, so the edge holds fewer departures than the timetable.
		{"reduced departures", []timeutil.Ticks{400, 410, 700, 1430}, []timeutil.Ticks{60, 10, 5, 20},
			[]timeutil.Ticks{1435, 1430, 1429, 700, 411, 405, 400, 399, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, e := rideEdge(t, tc.dep, tc.dur)
			checkCursor(t, g, e, tc.keys)
		})
	}

	// A cursor from an earlier query (stamp below the floor) is not read,
	// however well its day and time point would fit.
	g, e := rideEdge(t, five, tens)
	c := rideCursor{base: 0, tau: 1000, idx: 0, stamp: 4}
	arr, conn := c.eval(g.RideConns(e), g.TT.Period, 500, 5, 5)
	if wantArr, wantConn := g.EvalRide(e, 500); arr != wantArr || conn != wantConn {
		t.Fatalf("stale cursor: (%d, %d), EvalRide (%d, %d)", arr, conn, wantArr, wantConn)
	}
	if c.stamp != 5 || c.idx != 3 {
		t.Fatalf("cursor after the evaluation: %+v, want stamp 5 at index 3", c)
	}
}

// FuzzRideCursor drives one cursor through arbitrary key sequences on
// arbitrary edges: three bytes per train (departure, duration) and two per
// key, keys spanning some 45 days.
func FuzzRideCursor(f *testing.F) {
	f.Add([]byte{1, 104, 10, 1, 164, 10, 1, 224, 10}, []byte{2, 188, 2, 138, 1, 224, 1, 223, 0, 0})
	f.Add([]byte{}, []byte{1, 244, 1, 144})
	f.Add([]byte{5, 150, 20}, []byte{11, 184, 5, 160, 5, 159, 0, 1, 11, 184, 11, 184})
	f.Fuzz(func(t *testing.T, trains, keyBytes []byte) {
		var dep, dur []timeutil.Ticks
		for i := 0; i+2 < len(trains) && len(dep) < 32; i += 3 {
			dep = append(dep, timeutil.Ticks(int(trains[i])<<8|int(trains[i+1]))%timeutil.DayMinutes)
			dur = append(dur, 1+timeutil.Ticks(trains[i+2]))
		}
		var keys []timeutil.Ticks
		for i := 0; i+1 < len(keyBytes) && len(keys) < 64; i += 2 {
			keys = append(keys, timeutil.Ticks(int(keyBytes[i])<<8|int(keyBytes[i+1])))
		}
		g, e := rideEdge(t, dep, dur)
		checkCursor(t, g, e, keys)
	})
}
