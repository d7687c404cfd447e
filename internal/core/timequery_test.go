package core

import (
	"testing"

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
