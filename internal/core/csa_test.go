package core

import (
	"math/rand"
	"testing"

	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// oracleDays is the connection scan's horizon, in periods, where it serves
// as the reference of the graph searches: longer than any journey of the
// test networks.
const oracleDays = 8

func TestCSAMatchesTimeQueryDiamond(t *testing.T) {
	g := diamond(t)
	sched := NewConnectionScan(g.TT)
	for tau := timeutil.Ticks(0); tau < 1440; tau += 59 {
		tq, err := NewWorkspace().TimeQuery(g, 0, tau, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := sched.Query(0, tau, 2)
		if err != nil {
			t.Fatal(err)
		}
		for s := timetable.StationID(0); s < 4; s++ {
			want := tq.StationArrival(s)
			got := cs.StationArrival(s)
			if got != want && !(got.IsInf() && want.IsInf()) {
				t.Fatalf("τ=%d station %d: CSA %d vs time-query %d", tau, s, got, want)
			}
		}
	}
}

// The families exercise dense and sparse schedules; CSA shares no code with
// the graph machinery, so agreement here validates both sides.
func TestCSAMatchesTimeQueryFamilies(t *testing.T) {
	for _, fam := range []gen.Family{gen.Oahu, gen.Germany} {
		cfg, err := gen.FamilyConfig(fam, 0.05, 77)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.Build(tt)
		sched := NewConnectionScan(tt)
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 6; trial++ {
			src := timetable.StationID(rng.Intn(tt.NumStations()))
			tau := timeutil.Ticks(rng.Intn(1440))
			tq, err := NewWorkspace().TimeQuery(g, src, tau, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cs, err := sched.Query(src, tau, 3)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < tt.NumStations(); s++ {
				want := tq.StationArrival(timetable.StationID(s))
				got := cs.StationArrival(timetable.StationID(s))
				if got != want && !(got.IsInf() && want.IsInf()) {
					t.Fatalf("%s: src %d τ=%d station %d: CSA %d vs time-query %d",
						fam, src, tau, s, got, want)
				}
			}
		}
	}
}

// Overnight continuation: a train crossing midnight must stay boardable
// without a transfer on its post-midnight hops.
func TestCSAOvernightTrain(t *testing.T) {
	b := timetable.NewBuilder(day)
	a := b.AddStation("A", 5)
	m := b.AddStation("M", 5)
	c := b.AddStation("C", 5)
	// Departs 23:50, M at 00:10 (+1 dwell), arrives C 00:31. The transfer
	// time 5 would make the 00:11 continuation uncatchable if the train
	// identity were lost at midnight.
	b.AddTrainRun("night", []timetable.StationID{a, m, c}, 1430, []timeutil.Ticks{20, 20}, 1)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched := NewConnectionScan(tt)
	res, err := sched.Query(a, 1400, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.StationArrival(c); got != 1471 { // 00:31 next day
		t.Fatalf("overnight arrival at C = %d, want 1471", got)
	}
	// Cross-check against the graph machinery.
	g := graph.Build(tt)
	tq, err := NewWorkspace().TimeQuery(g, a, 1400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tq.StationArrival(c) != res.StationArrival(c) {
		t.Fatalf("CSA %d vs time-query %d", res.StationArrival(c), tq.StationArrival(c))
	}
}

// Boarding a yesterday-started trip after midnight must work: the rider
// departs at 00:05 and catches the 00:11 hop of the overnight train.
func TestCSABoardsYesterdaysTrip(t *testing.T) {
	b := timetable.NewBuilder(day)
	a := b.AddStation("A", 1)
	m := b.AddStation("M", 1)
	c := b.AddStation("C", 1)
	b.AddTrainRun("night", []timetable.StationID{a, m, c}, 1430, []timeutil.Ticks{20, 20}, 1)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched := NewConnectionScan(tt)
	// Day 1, 00:05 = 1445 absolute. The night train that started day 0 at
	// 23:50 passes M at 00:11 day 1 (= 1451).
	res, err := sched.Query(m, 1445, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.StationArrival(c); got != 1471 {
		t.Fatalf("arrival at C = %d, want 1471 (caught yesterday's trip)", got)
	}
}

func TestCSAErrorsAndEdgeCases(t *testing.T) {
	g := diamond(t)
	sched := NewConnectionScan(g.TT)
	if _, err := sched.Query(-1, 0, 2); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := sched.Query(0, -1, 2); err == nil {
		t.Error("negative departure accepted")
	}
	// days < 1 coerced.
	res, err := sched.Query(0, 480, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.StationArrival(0) != 480 {
		t.Error("source arrival wrong")
	}
	// Convenience wrapper.
	res2, err := ConnectionScanQuery(g, 0, 480)
	if err != nil {
		t.Fatal(err)
	}
	if res2.StationArrival(3) != 510 {
		t.Errorf("wrapper arrival = %d, want 510", res2.StationArrival(3))
	}
}

// Random chaotic networks: CSA with a generous horizon agrees with the
// graph-based time-query everywhere.
func TestCSARandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 30; trial++ {
		tt := randomTimetable(t, rng)
		g := graph.Build(tt)
		sched := NewConnectionScan(tt)
		src := timetable.StationID(rng.Intn(tt.NumStations()))
		tau := timeutil.Ticks(rng.Intn(1440))
		tq, err := NewWorkspace().TimeQuery(g, src, tau, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := sched.Query(src, tau, 6)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tt.NumStations(); s++ {
			want := tq.StationArrival(timetable.StationID(s))
			got := cs.StationArrival(timetable.StationID(s))
			if got != want && !(got.IsInf() && want.IsInf()) {
				t.Fatalf("trial %d: src %d τ=%d station %d: CSA %d vs time-query %d",
					trial, src, tau, s, got, want)
			}
		}
	}
}
