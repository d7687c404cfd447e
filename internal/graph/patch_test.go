package graph

import (
	"slices"
	"testing"

	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// patchNetwork builds a line network with two routes and several trains per
// route, so rides carry multiple departures.
func patchNetwork(t *testing.T) *timetable.Timetable {
	t.Helper()
	b := timetable.NewBuilder(timeutil.NewPeriod(1440))
	a := b.AddStation("A", 2)
	bb := b.AddStation("B", 3)
	c := b.AddStation("C", 2)
	d := b.AddStation("D", 1)
	for h := timeutil.Ticks(6); h <= 10; h++ {
		b.AddTrainRun("r1", []timetable.StationID{a, bb, c}, h*60, []timeutil.Ticks{10, 15}, 1)
	}
	for h := timeutil.Ticks(7); h <= 9; h++ {
		b.AddTrainRun("r2", []timetable.StationID{bb, c, d}, h*60+20, []timeutil.Ticks{12, 8}, 1)
	}
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

// assertGraphsEquivalent compares the boards, the rides and their
// evaluation behavior of two graphs over the same timetable shape.
func assertGraphsEquivalent(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumStations() != want.NumStations() {
		t.Fatalf("shape: got %d nodes/%d stations, want %d/%d",
			got.NumNodes(), got.NumStations(), want.NumNodes(), want.NumStations())
	}
	for s := timetable.StationID(0); int(s) < got.NumStations(); s++ {
		if gb, wb := got.Boards(s), want.Boards(s); !slices.Equal(gb, wb) {
			t.Fatalf("station %d: boards %v, want %v", s, gb, wb)
		}
	}
	for u := NodeID(got.NumStations()); int(u) < got.NumNodes(); u++ {
		gc, gok := got.Ride(u)
		wc, wok := want.Ride(u)
		if gok != wok || !slices.Equal(gc, wc) {
			t.Fatalf("node %d: ride (%v, %v), want (%v, %v)", u, gc, gok, wc, wok)
		}
		for at := timeutil.Ticks(0); at < 1600; at += 37 {
			ga, gid := got.EvalRide(u, at)
			wa, wid := want.EvalRide(u, at)
			if ga != wa || gid != wid {
				t.Fatalf("EvalRide(node %d, %d): (%d,%d) vs (%d,%d)", u, at, ga, gid, wa, wid)
			}
		}
	}
}

func TestPatchTimesMatchesRebuild(t *testing.T) {
	tt := patchNetwork(t)
	// Connection 7, the 09:00 r1 train's second hop, is cancelled before
	// the graph is built.
	cancelledAtBuild, err := tt.Patch([]timetable.ConnUpdate{{ID: 7, Cancel: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		tt      *timetable.Timetable
		updates []timetable.ConnUpdate
		empty   timetable.ConnID // a connection whose ride the batch leaves without departures, or -1
	}{
		// Delay the 08:00 r1 train (train 2, conns 4-5) by 45 so its hops
		// reorder against neighbours, and cancel the 08:20 r2 train (train
		// 6, conns 12-13).
		{"delay and cancel", tt, []timetable.ConnUpdate{
			{ID: 4, Dep: tt.Connections[4].Dep + 45, Arr: tt.Connections[4].Arr + 45},
			{ID: 5, Dep: tt.Connections[5].Dep + 45, Arr: tt.Connections[5].Arr + 45},
			{ID: 12, Cancel: true},
			{ID: 13, Cancel: true},
		}, -1},
		// Retime a connection cancelled when the graph was built (Patch
		// leaves it cancelled) beside a live one on the same ride.
		{"touches a connection cancelled at build", cancelledAtBuild, []timetable.ConnUpdate{
			{ID: 7, Dep: tt.Connections[7].Dep + 5, Arr: tt.Connections[7].Arr + 5},
			{ID: 9, Dep: tt.Connections[9].Dep + 5, Arr: tt.Connections[9].Arr + 5},
		}, -1},
		// Cancel every departure of r2's first hop B→C (conns 10, 12, 14),
		// which is not the route's last stop: its ride stays, empty.
		{"cancels every departure of a hop", tt, []timetable.ConnUpdate{
			{ID: 10, Cancel: true},
			{ID: 12, Cancel: true},
			{ID: 14, Cancel: true},
		}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := Build(tc.tt)
			ntt, err := tc.tt.Patch(tc.updates)
			if err != nil {
				t.Fatal(err)
			}
			var touched []timetable.ConnID
			for _, u := range tc.updates {
				touched = append(touched, u.ID)
			}
			pg, err := g.PatchTimes(ntt, touched)
			if err != nil {
				t.Fatal(err)
			}
			assertGraphsEquivalent(t, pg, Build(ntt))
			if tc.empty >= 0 {
				if conns, ok := pg.Ride(pg.ConnDepartureNode(tc.empty)); !ok || len(conns) != 0 {
					t.Fatalf("ride of connection %d: (%v, %v), want a ride without departures", tc.empty, conns, ok)
				}
			}
			// The patch shares the structural arrays with the original.
			if &pg.boards[0] != &g.boards[0] || &pg.nodeStation[0] != &g.nodeStation[0] || &pg.members[0] != &g.members[0] {
				t.Error("structural arrays not shared")
			}
			// The original graph still answers with the old times.
			assertGraphsEquivalent(t, g, Build(tc.tt))
		})
	}
}

func TestPatchTimesChained(t *testing.T) {
	tt := patchNetwork(t)
	g := Build(tt)
	// Two successive patches (delay, then cancel the same train) must equal
	// a fresh build of the final timetable.
	tt1, err := tt.Patch([]timetable.ConnUpdate{
		{ID: 0, Dep: tt.Connections[0].Dep + 10, Arr: tt.Connections[0].Arr + 10},
		{ID: 1, Dep: tt.Connections[1].Dep + 10, Arr: tt.Connections[1].Arr + 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := g.PatchTimes(tt1, []timetable.ConnID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	tt2, err := tt1.Patch([]timetable.ConnUpdate{{ID: 0, Cancel: true}, {ID: 1, Cancel: true}})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := g1.PatchTimes(tt2, []timetable.ConnID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEquivalent(t, g2, Build(tt2))
}

func TestPatchTimesShapeMismatch(t *testing.T) {
	tt := patchNetwork(t)
	g := Build(tt)
	other := Build(patchNetwork(t)) // same shape, different object — fine
	if _, err := g.PatchTimes(other.TT, nil); err != nil {
		t.Fatalf("same-shape timetable rejected: %v", err)
	}
	b := timetable.NewBuilder(timeutil.NewPeriod(1440))
	b.AddStation("X", 1)
	small, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.PatchTimes(small, nil); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := g.PatchTimes(tt, []timetable.ConnID{999}); err == nil {
		t.Fatal("unknown touched connection accepted")
	}
}
