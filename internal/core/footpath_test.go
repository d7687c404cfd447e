package core

// Footpath integration: walking links must be honored consistently by
// every algorithm — time-query, SPCS (sequential and parallel), CSA,
// Pareto — and survive the station-to-station prunings.

import (
	"math/rand"
	"testing"

	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// footpathNetwork: two parallel lines A→B and C→D, linked only by a
// footpath B→C (5 min walk). Reaching D from A requires the walk.
func footpathNetwork(t *testing.T) *graph.Graph {
	t.Helper()
	b := timetable.NewBuilder(day)
	a := b.AddStation("A", 2)
	bb := b.AddStation("B", 2)
	c := b.AddStation("C", 2)
	d := b.AddStation("D", 2)
	for h := 6; h <= 20; h++ {
		b.AddTrainRun("l1", []timetable.StationID{a, bb}, timeutil.Ticks(h*60), []timeutil.Ticks{15}, 0)
		b.AddTrainRun("l2", []timetable.StationID{c, d}, timeutil.Ticks(h*60+30), []timeutil.Ticks{15}, 0)
	}
	b.AddFootpath(bb, c, 5)
	b.AddFootpath(c, bb, 5)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return graph.Build(tt)
}

func TestFootpathTimeQuery(t *testing.T) {
	g := footpathNetwork(t)
	// Depart A 08:00 → B 08:15 → walk to C 08:20 → board 08:30 (+T(C)=2
	// still catchable: 08:20+2=08:22 ≤ 08:30) → D 08:45.
	res, err := NewWorkspace().TimeQuery(g, 0, 480, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.StationArrival(3); got != 525 {
		t.Fatalf("arrival at D = %d, want 525", got)
	}
	if got := res.StationArrival(2); got != 500 {
		t.Fatalf("arrival at C = %d, want 500 (on foot)", got)
	}
}

func TestFootpathAllAlgorithmsAgree(t *testing.T) {
	g := footpathNetwork(t)
	sched := NewConnectionScan(g.TT)
	prof, err := NewWorkspace().OneToAll(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewWorkspace().OneToAll(g, 0, Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	pareto, err := OneToAllPareto(g, 0, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for tau := timeutil.Ticks(0); tau < 1440; tau += 93 {
		cs, err := sched.Query(0, tau, 3)
		if err != nil {
			t.Fatal(err)
		}
		tq, err := NewWorkspace().TimeQuery(g, 0, tau, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for s := timetable.StationID(1); s < 4; s++ {
			want := cs.StationArrival(s)
			if got := prof.EarliestArrival(s, tau); got != want && !(got.IsInf() && want.IsInf()) {
				t.Fatalf("SPCS τ=%d station %d: %d vs %d", tau, s, got, want)
			}
			if got := par.EarliestArrival(s, tau); got != want && !(got.IsInf() && want.IsInf()) {
				t.Fatalf("parallel τ=%d station %d: %d vs %d", tau, s, got, want)
			}
			if got := tq.StationArrival(s); got != want && !(got.IsInf() && want.IsInf()) {
				t.Fatalf("time-query τ=%d station %d: %d vs %d", tau, s, got, want)
			}
			pf, err := pareto.StationProfile(s, 6)
			if err != nil {
				t.Fatal(err)
			}
			if got := pf.EvalArrival(tau); got != want && !(got.IsInf() && want.IsInf()) {
				t.Fatalf("pareto τ=%d station %d: %d vs %d", tau, s, got, want)
			}
		}
	}
}

// Walking does not count as a transfer: A→B, walk, C→D is one transfer
// (boarding the second train), not two.
func TestFootpathParetoTransferCount(t *testing.T) {
	g := footpathNetwork(t)
	res, err := OneToAllPareto(g, 0, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := res.ParetoSet(3, 480)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatal("D unreachable")
	}
	if set[0].Transfers != 1 {
		t.Fatalf("first choice uses %d transfers, want 1 (walk is free)", set[0].Transfers)
	}
}

// Station-to-station with prunings and footpaths agrees with one-to-all on
// random networks that include random footpaths.
func TestFootpathStationToStation(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 15; trial++ {
		tt := randomTimetableWithFootpaths(t, rng)
		g := graph.Build(tt)
		sg := stationgraph.Build(tt)
		marked := make([]bool, tt.NumStations())
		for i := range marked {
			marked[i] = rng.Intn(4) == 0
		}
		pre, err := BuildDistanceTable(g, marked, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		env := QueryEnv{Graph: g, StationGraph: sg, Table: pre.Table}
		src := timetable.StationID(rng.Intn(tt.NumStations()))
		ref, err := NewWorkspace().OneToAll(g, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tt.NumStations(); s += 2 {
			dst := timetable.StationID(s)
			if dst == src {
				continue
			}
			res, err := NewWorkspace().StationToStation(env, src, dst, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Profile()
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.StationProfile(dst)
			if err != nil {
				t.Fatal(err)
			}
			for tau := timeutil.Ticks(0); tau < 1440; tau += 177 {
				a, b := got.EvalArrival(tau), want.EvalArrival(tau)
				if a != b && !(a.IsInf() && b.IsInf()) {
					t.Fatalf("trial %d: %d→%d τ=%d: s2s %d vs %d", trial, src, s, tau, a, b)
				}
			}
		}
	}
}

// randomTimetableWithFootpaths rebuilds a chaotic timetable with random
// walking links added.
func randomTimetableWithFootpaths(t *testing.T, rng *rand.Rand) *timetable.Timetable {
	t.Helper()
	base := randomTimetable(t, rng)
	nFoot := rng.Intn(6)
	foot := make([]timetable.Footpath, 0, nFoot)
	for i := 0; i < nFoot; i++ {
		from := timetable.StationID(rng.Intn(base.NumStations()))
		to := timetable.StationID(rng.Intn(base.NumStations()))
		if from == to {
			continue
		}
		foot = append(foot, timetable.Footpath{From: from, To: to, Walk: timeutil.Ticks(rng.Intn(20))})
	}
	tt, err := timetable.NewWithFootpaths(base.Period, base.Stations, base.Trains, base.Connections, foot)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

// Initial walks: when walking from the source to a neighbour station first
// is the best start, the profile searches must find it — this exercises the
// extended seeding (effective departures) rather than plain conn(S).
func TestFootpathInitialWalk(t *testing.T) {
	b := timetable.NewBuilder(day)
	s := b.AddStation("S", 2) // source: bad service
	w := b.AddStation("W", 2) // walkable neighbour: good service
	d := b.AddStation("D", 2) // destination
	// From S directly: one slow midday train.
	b.AddTrainRun("slowdirect", []timetable.StationID{s, d}, 720, []timeutil.Ticks{120}, 0)
	// From W: fast frequent trains.
	for h := 6; h <= 20; h++ {
		b.AddTrainRun("fast", []timetable.StationID{w, d}, timeutil.Ticks(h*60), []timeutil.Ticks{20}, 0)
	}
	b.AddFootpath(s, w, 7)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)

	// Departing S at 07:50: walk to W (arrive 07:57), board 08:00, arrive
	// 08:20. The direct train would arrive 14:00.
	prof, err := NewWorkspace().OneToAll(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.EarliestArrival(d, 470); got != 500 {
		t.Fatalf("profile arrival = %d, want 500 (walk first)", got)
	}
	// Full agreement with CSA, for the profile and the time-query, at every
	// departure.
	sched := NewConnectionScan(tt)
	for tau := timeutil.Ticks(0); tau < 1440; tau += 41 {
		cs, err := sched.Query(s, tau, 3)
		if err != nil {
			t.Fatal(err)
		}
		tq, err := NewWorkspace().TimeQuery(g, s, tau, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range []timetable.StationID{w, d} {
			want := cs.StationArrival(dst)
			if got := prof.EarliestArrival(dst, tau); got != want {
				t.Fatalf("SPCS τ=%d dst %d: %d vs CSA %d", tau, dst, got, want)
			}
			if got := tq.StationArrival(dst); got != want && !(got.IsInf() && want.IsInf()) {
				t.Fatalf("time-query τ=%d dst %d: %d vs CSA %d", tau, dst, got, want)
			}
		}
	}
	// Station-to-station (no table) agrees too, including the walk-only
	// answer to W.
	env := QueryEnv{Graph: g}
	res, err := NewWorkspace().StationToStation(env, s, w, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.EarliestArrival(470); got != 477 {
		t.Fatalf("s2s to W = %d, want 477 (pure walk)", got)
	}
	resD, err := NewWorkspace().StationToStation(env, s, d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resD.EarliestArrival(470); got != 500 {
		t.Fatalf("s2s to D = %d, want 500", got)
	}
	// Pareto includes the walk-first itinerary (1 boarding = 0 transfers).
	pareto, err := OneToAllPareto(g, s, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := pareto.ParetoSet(d, 470)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 || set[len(set)-1].Arrival != 500 {
		t.Fatalf("pareto missing walk-first itinerary: %+v", set)
	}
}

// Random footpath networks: every algorithm agrees with the connection scan,
// now including initial walks from the source.
func TestFootpathRandomCrossValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 25; trial++ {
		tt := randomTimetableWithFootpaths(t, rng)
		g := graph.Build(tt)
		sched := NewConnectionScan(tt)
		src := timetable.StationID(rng.Intn(tt.NumStations()))
		prof, err := NewWorkspace().OneToAll(g, src, Options{Threads: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		for _, tau := range []timeutil.Ticks{0, timeutil.Ticks(rng.Intn(1440)), 1439} {
			cs, err := sched.Query(src, tau, 6)
			if err != nil {
				t.Fatal(err)
			}
			tq, err := NewWorkspace().TimeQuery(g, src, tau, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < tt.NumStations(); s++ {
				dst := timetable.StationID(s)
				want := cs.StationArrival(dst)
				got := prof.EarliestArrival(dst, tau)
				if got != want && !(got.IsInf() && want.IsInf()) {
					t.Fatalf("trial %d: SPCS src %d dst %d τ=%d: %d vs %d", trial, src, s, tau, got, want)
				}
				gotTQ := tq.StationArrival(dst)
				if gotTQ != want && !(gotTQ.IsInf() && want.IsInf()) {
					t.Fatalf("trial %d: time-query src %d dst %d τ=%d: %d vs %d", trial, src, s, tau, gotTQ, want)
				}
			}
		}
	}
}
