package core

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"transit/internal/graph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// rideNode builds a two-station network with one train A→B per departure
// (dep[i], taking dur[i]) and returns its graph and the route node of its
// one ride, whose departures graph.Build has sorted and reduced. No
// departures gives a ride whose only train is cancelled: an empty one.
func rideNode(t testing.TB, dep, dur []timeutil.Ticks) (*graph.Graph, graph.NodeID) {
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
	for u := graph.NodeID(g.NumStations()); int(u) < g.NumNodes(); u++ {
		if _, ok := g.Ride(u); ok {
			return g, u
		}
	}
	t.Fatal("no ride")
	return nil, graph.NoNode
}

// rideStep is one evaluation through a cursor: the key, the row stamp of the
// connection searching, the query's first stamp (qfloor, which eval reads),
// and the row floor rideCursor.same reads (qfloor, or the connection's own
// stamp under DisableSelfPruning).
type rideStep struct {
	key                  timeutil.Ticks
	stamp, qfloor, floor uint32
}

// inQuery is one query's steps at stamp 1 on a zero cursor.
func inQuery(keys ...timeutil.Ticks) []rideStep {
	steps := make([]rideStep, len(keys))
	for n, key := range keys {
		steps[n] = rideStep{key: key, stamp: 1, qfloor: 1, floor: 1}
	}
	return steps
}

// checkCursor runs steps through one cursor and compares every answer with
// graph.EvalRide. Before each evaluation it asks the cursor whether the key
// catches the same ride; whenever it says so, EvalRide at the new key must
// return the arrival and connection of the cursor's previous evaluation.
// It returns the indexes of the steps that reported the same ride.
func checkCursor(t *testing.T, g *graph.Graph, u graph.NodeID, steps []rideStep) []int {
	t.Helper()
	conns, _ := g.Ride(u)
	var c rideCursor
	var same []int
	prevArr, prevConn := timeutil.Ticks(-1), timetable.ConnID(-1)
	for n, s := range steps {
		wantArr, wantConn := g.EvalRide(u, s.key)
		if c.same(s.key, s.floor) {
			same = append(same, n)
			if wantArr != prevArr || wantConn != prevConn {
				t.Fatalf("step %d of %+v: cursor %+v reports the same ride as (%d, %d), EvalRide gives (%d, %d)",
					n, steps, c, prevArr, prevConn, wantArr, wantConn)
			}
		}
		arr, conn := c.eval(conns, g.TT.Period, s.key, s.qfloor, s.stamp)
		if arr != wantArr || conn != wantConn {
			t.Fatalf("step %d of %+v: cursor gives (%d, %d), EvalRide (%d, %d)",
				n, steps, arr, conn, wantArr, wantConn)
		}
		prevArr, prevConn = arr, conn
	}
	return same
}

func TestRideCursorMatchesEvalRide(t *testing.T) {
	five := []timeutil.Ticks{360, 420, 480, 540, 600}
	tens := []timeutil.Ticks{10, 10, 10, 10, 10}
	cases := []struct {
		name     string
		dep, dur []timeutil.Ticks
		steps    []rideStep
		same     []int // the steps that catch the previous evaluation's ride
	}{
		{"empty edge", nil, nil, inQuery(500, 400, 2000), nil},
		{"one departure", []timeutil.Ticks{480}, []timeutil.Ticks{10},
			inQuery(1000, 600, 481, 480, 479, 100, 0), []int{1, 2, 4, 5, 6}},
		{"falls within a day", five, tens,
			inQuery(700, 650, 600, 599, 541, 540, 539, 300, 0), []int{1, 3, 4, 6, 8}},
		// idx = 0: no earlier departure, the window opens at the start of
		// the day.
		{"before the first departure", five, tens,
			inQuery(359, 300, 1, 0, 1439), []int{1, 2, 3}},
		// idx = len: past the last departure, the ride is the next day's
		// first.
		{"wraps past the last departure", five, tens,
			inQuery(1439, 1000, 601, 600, 420), []int{1, 2}},
		// The same time point on another day is another ride.
		{"crosses a day boundary downwards", five, tens,
			inQuery(3000, 2880, 2879, 2041, 2040, 1500, 1440, 1439, 800, 360, 100), []int{1, 3, 6, 8, 10}},
		{"rises", five, tens,
			inQuery(300, 500, 800, 2000, 100, 3000, 1441), nil},
		// A board above a ride-in of the same connection is another
		// evaluation; the key after it falls into its window.
		{"board above a ride-in", []timeutil.Ticks{540}, []timeutil.Ticks{10},
			inQuery(500, 530, 505), []int{2}},
		{"repeats", five, tens,
			inQuery(500, 500, 500, 420, 420, 1000, 1000), []int{1, 2, 4, 6}},
		// A slow early train is dominated by a fast later one and reduced
		// away, so the edge holds fewer departures than the timetable.
		{"reduced departures", []timeutil.Ticks{400, 410, 700, 1430}, []timeutil.Ticks{60, 10, 5, 20},
			inQuery(1435, 1430, 1429, 700, 411, 405, 400, 399, 0), []int{2, 4, 6, 7, 8}},
		// DisableSelfPruning: each connection reads the cursor from its own
		// stamp on, so the next connection's rising key walks from nothing
		// it caught before, while eval still reads the query's cursor.
		{"rising key under DisableSelfPruning", five, tens,
			[]rideStep{{500, 1, 1, 1}, {490, 1, 1, 1}, {520, 2, 1, 2}, {530, 3, 1, 3}, {525, 3, 1, 3}, {481, 3, 1, 3}, {480, 3, 1, 3}},
			[]int{1, 4, 5}},
		// A cursor stamped below the floor is an earlier query's (or, under
		// DisableSelfPruning, an earlier connection's): never the same ride.
		{"stamp below the floor", five, tens,
			[]rideStep{{500, 4, 4, 4}, {490, 5, 5, 5}, {485, 5, 5, 5}, {484, 6, 5, 6}, {483, 6, 5, 5}},
			[]int{2, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, u := rideNode(t, tc.dep, tc.dur)
			if got := checkCursor(t, g, u, tc.steps); !slices.Equal(got, tc.same) {
				t.Fatalf("same ride at steps %v, want %v", got, tc.same)
			}
		})
	}

	// One cursor per row record: the window replaced the day base and time
	// point without growing it.
	if size := unsafe.Sizeof(rideCursor{}); size != 16 {
		t.Fatalf("rideCursor is %d bytes, want 16", size)
	}

	// A cursor from an earlier query (stamp below the floor) is not read,
	// however well its day and time point would fit.
	g, u := rideNode(t, five, tens)
	conns, _ := g.Ride(u)
	c := rideCursor{lo: -1, hi: 1000, idx: 0, stamp: 4}
	if c.same(500, 5) {
		t.Fatal("a cursor of an earlier query reports the same ride")
	}
	arr, conn := c.eval(conns, g.TT.Period, 500, 5, 5)
	if wantArr, wantConn := g.EvalRide(u, 500); arr != wantArr || conn != wantConn {
		t.Fatalf("stale cursor: (%d, %d), EvalRide (%d, %d)", arr, conn, wantArr, wantConn)
	}
	if c.stamp != 5 || c.idx != 3 || c.lo != 480 || c.hi != 500 {
		t.Fatalf("cursor after the evaluation: %+v, want stamp 5 at index 3, window (480, 500]", c)
	}
}

// FuzzRideCursor drives one cursor through arbitrary steps on arbitrary
// rides: three bytes per train (departure, duration) and three per step,
// two for a key spanning some 45 days and one whose low bits start a new
// connection (bit 0), read the row from the connection's own stamp as
// DisableSelfPruning does (bit 1) and start a new query (bit 2). Every
// answer must be graph.EvalRide's, and every same-ride report must repeat
// the previous evaluation.
func FuzzRideCursor(f *testing.F) {
	f.Add([]byte{1, 104, 10, 1, 164, 10, 1, 224, 10}, []byte{2, 188, 0, 2, 138, 0, 1, 224, 1, 1, 223, 3, 0, 0, 4})
	f.Add([]byte{}, []byte{1, 244, 0, 1, 144, 0})
	f.Add([]byte{5, 150, 20}, []byte{11, 184, 0, 5, 160, 0, 5, 159, 2, 0, 1, 0, 11, 184, 5, 11, 184, 0})
	// Within one stamp, a ride-in at 500 and then a board at 530 above it
	// (the board loop asks the cursor before the record check): 530 is not
	// in (−1, 500], evaluates, and moves the window to (−1, 530], which
	// holds the next key, 505.
	f.Add([]byte{2, 28, 10}, []byte{1, 244, 0, 2, 18, 0, 1, 249, 0})
	f.Fuzz(func(t *testing.T, trains, stepBytes []byte) {
		var dep, dur []timeutil.Ticks
		for i := 0; i+2 < len(trains) && len(dep) < 32; i += 3 {
			dep = append(dep, timeutil.Ticks(int(trains[i])<<8|int(trains[i+1]))%timeutil.DayMinutes)
			dur = append(dur, 1+timeutil.Ticks(trains[i+2]))
		}
		var steps []rideStep
		stamp, qfloor := uint32(1), uint32(1)
		for i := 0; i+2 < len(stepBytes) && len(steps) < 64; i += 3 {
			ctl := stepBytes[i+2]
			if ctl&4 != 0 {
				stamp++
				qfloor = stamp
			} else if ctl&1 != 0 {
				stamp++
			}
			floor := qfloor
			if ctl&2 != 0 {
				floor = stamp
			}
			key := timeutil.Ticks(int(stepBytes[i])<<8 | int(stepBytes[i+1]))
			steps = append(steps, rideStep{key: key, stamp: stamp, qfloor: qfloor, floor: floor})
		}
		g, u := rideNode(t, dep, dur)
		checkCursor(t, g, u, steps)
	})
}
