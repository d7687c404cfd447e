package core

import (
	"testing"

	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

func TestTimeQueryBasics(t *testing.T) {
	g := diamond(t)
	// Depart A at 07:00: morning train at 08:00 via B arrives 08:30.
	res, err := NewWorkspace().TimeQuery(g, 0, 420, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.StationArrival(3); got != 510 {
		t.Errorf("arrival at D = %d, want 510", got)
	}
	// The source is reached at departure time.
	if got := res.StationArrival(0); got != 420 {
		t.Errorf("arrival at source = %d, want 420", got)
	}
	if res.Source != 0 || res.Depart != 420 {
		t.Error("metadata wrong")
	}
	if res.Run.Total.SettledConns == 0 || res.Run.Total.QueuePops == 0 {
		t.Error("no work recorded")
	}
}

func TestTimeQueryNoSourceTransferPenalty(t *testing.T) {
	// The first boarding must not pay the transfer time T(S): the diamond's
	// A has T=2, and the 08:00 train must be catchable when departing at
	// exactly 08:00.
	g := diamond(t)
	res, err := NewWorkspace().TimeQuery(g, 0, 480, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.StationArrival(1); got != 495 {
		t.Errorf("arrival at B = %d, want 495 (board the 480 train)", got)
	}
}

func TestTimeQueryAbsoluteTimesBeyondPeriod(t *testing.T) {
	g := diamond(t)
	// Departing on day 1 at 08:00 (1920) gives day-1 arrivals.
	res, err := NewWorkspace().TimeQuery(g, 0, 1920, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.StationArrival(3); got != 1950 {
		t.Errorf("day-1 arrival at D = %d, want 1950", got)
	}
}

func TestTimeQueryUnreachable(t *testing.T) {
	// One-way line: from the last station nothing is reachable.
	b := timetable.NewBuilder(day)
	a := b.AddStation("A", 1)
	c := b.AddStation("B", 1)
	b.AddTrainRun("t", []timetable.StationID{a, c}, 480, []timeutil.Ticks{10}, 0)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	res, err := NewWorkspace().TimeQuery(g, 1, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StationArrival(0).IsInf() {
		t.Error("unreachable station has finite arrival")
	}
	if got := res.StationArrival(1); got != 100 {
		t.Errorf("source arrival = %d, want 100", got)
	}
}

// Waiting never hurts: the time-query arrival is monotone non-decreasing in
// the departure time (FIFO property of the whole network).
func TestTimeQueryFIFO(t *testing.T) {
	g := diamond(t)
	prev := make(map[timetable.StationID]timeutil.Ticks)
	for tau := timeutil.Ticks(0); tau < 1440; tau += 60 {
		res, err := NewWorkspace().TimeQuery(g, 0, tau, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for s := timetable.StationID(1); s < 4; s++ {
			arr := res.StationArrival(s)
			if p, ok := prev[s]; ok && arr < p {
				t.Fatalf("FIFO violated at station %d: departing %d arrives %d, departing earlier arrived %d",
					s, tau, arr, p)
			}
			prev[s] = arr
		}
	}
}

// The time-query's work is pinned: settled nodes, queue pushes and pops and
// relaxed edges of TimeQuery and TimeQueryTo. The counts are a plain
// time-dependent Dijkstra's over one label per node — each node settled
// once, one push per improvement — which the one-to-all search must match
// at k = 1. A target set stops the search at its last station; duplicates
// and the source itself count once.
func TestTimeQueryWork(t *testing.T) {
	cfg, err := gen.FamilyConfig(gen.Germany, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*graph.Graph{"oahu": workspaceNet(t), "germany": graph.Build(tt)}
	type work struct{ settled, pushes, pops, relaxed int64 }
	for _, c := range []struct {
		net     string
		src     timetable.StationID
		depart  timeutil.Ticks
		targets []timetable.StationID
		want    work
	}{
		{"oahu", 0, 480, nil, work{56, 56, 56, 112}},
		{"oahu", 8, 1000, nil, work{56, 56, 56, 112}},
		{"oahu", 15, 1439, nil, work{56, 57, 56, 112}},
		{"oahu", 0, 480, []timetable.StationID{5, 4}, work{13, 15, 13, 24}},
		{"oahu", 8, 1000, []timetable.StationID{1, 2, 3, 2}, work{44, 45, 44, 85}},
		{"oahu", 15, 1439, []timetable.StationID{15}, work{3, 5, 3, 4}},
		{"germany", 0, 480, nil, work{171, 210, 171, 418}},
		{"germany", 12, 1000, nil, work{171, 210, 171, 418}},
		{"germany", 24, 1439, nil, work{171, 208, 171, 418}},
		{"germany", 0, 480, []timetable.StationID{8, 6}, work{43, 53, 43, 98}},
		{"germany", 12, 1000, []timetable.StationID{1, 2, 3, 2}, work{142, 177, 142, 346}},
		{"germany", 24, 1439, []timetable.StationID{24}, work{9, 14, 9, 13}},
	} {
		ws := NewWorkspace()
		var res *TimeQueryResult
		if c.targets == nil {
			res, err = ws.TimeQuery(nets[c.net], c.src, c.depart, Options{})
		} else {
			res, err = ws.TimeQueryTo(nets[c.net], c.src, c.depart, c.targets, Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		x := res.Run.Total
		if got := (work{x.SettledConns, x.QueuePushes, x.QueuePops, x.Relaxed}); got != c.want {
			t.Errorf("%s from %d at %d to %v: {settled, pushes, pops, relaxed} = %v, want %v",
				c.net, c.src, c.depart, c.targets, got, c.want)
		}
	}
}
