package core

import (
	"errors"
	"math/rand"
	"testing"

	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// The point query is the k = 1 station-to-station search; on chaotic
// networks with random footpaths and random transfer-station selections it
// must answer exactly what the one-to-all time-query answers — without a
// table, with one (via pruning, target pruning, table hits, local queries),
// for S = T, unreachable targets and departures in later periods.
func TestEarliestArrivalExactAgainstTimeQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(1609))
	hits, pruned, local := 0, 0, 0
	ws := NewWorkspace()
	for trial := 0; trial < 60; trial++ {
		var tt *timetable.Timetable
		if trial%2 == 0 {
			tt = randomTimetable(t, rng)
		} else {
			tt = randomTimetableWithFootpaths(t, rng)
		}
		g := graph.Build(tt)
		sg := stationgraph.Build(tt)
		marked := make([]bool, tt.NumStations())
		for i := range marked {
			marked[i] = rng.Intn(3) == 0
		}
		marked[rng.Intn(len(marked))] = true
		pre, err := BuildDistanceTable(g, marked, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		envs := []QueryEnv{{Graph: g}, {Graph: g, StationGraph: sg, Table: pre.Table}}
		for _, tau := range []timeutil.Ticks{0, 1, timeutil.Ticks(rng.Intn(1440)), 1439, 1440, 1920, 2897} {
			src := timetable.StationID(rng.Intn(tt.NumStations()))
			tq, err := TimeQuery(g, src, tau, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < tt.NumStations(); s++ {
				dst := timetable.StationID(s)
				want := tq.StationArrival(dst)
				for e, env := range envs {
					res, err := ws.EarliestArrival(env, src, dst, tau, QueryOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if got := res.ArrT[0]; got != want {
						t.Fatalf("trial %d env %d: %d→%d @%d = %d, time-query %d (local=%v hit=%v)",
							trial, e, src, s, tau, got, want, res.Local, res.TableHit)
					}
					if e == 1 {
						switch {
						case res.TableHit:
							hits++
						case res.Local:
							local++
						default:
							pruned++
						}
					}
				}
			}
		}
	}
	if hits == 0 || pruned == 0 || local == 0 {
		t.Fatalf("coverage: %d table hits, %d pruned global searches, %d local", hits, pruned, local)
	}
}

// A time-query with a target set stops early but answers its targets
// exactly as the whole-graph search does — duplicates, the source itself and
// unreachable targets included — and never settles more.
func TestTimeQueryToMatchesFullSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ws := NewWorkspace()
	stoppedEarly := false
	for trial := 0; trial < 40; trial++ {
		tt := randomTimetableWithFootpaths(t, rng)
		g := graph.Build(tt)
		src := timetable.StationID(rng.Intn(tt.NumStations()))
		tau := timeutil.Ticks(rng.Intn(3000))
		full, err := TimeQuery(g, src, tau, Options{})
		if err != nil {
			t.Fatal(err)
		}
		targets := []timetable.StationID{src}
		for i := 0; i < rng.Intn(4); i++ {
			targets = append(targets, timetable.StationID(rng.Intn(tt.NumStations())))
		}
		targets = append(targets, targets[len(targets)-1])
		res, err := ws.TimeQueryTo(g, src, tau, targets, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range targets {
			if got, want := res.StationArrival(dst), full.StationArrival(dst); got != want {
				t.Fatalf("trial %d: %d→%d @%d = %d with targets %v, whole graph %d", trial, src, dst, tau, got, targets, want)
			}
		}
		if res.Run.Total.SettledConns > full.Run.Total.SettledConns {
			t.Fatalf("trial %d: target set settled %d nodes, whole graph %d", trial, res.Run.Total.SettledConns, full.Run.Total.SettledConns)
		}
		stoppedEarly = stoppedEarly || res.Run.Total.SettledConns < full.Run.Total.SettledConns
	}
	if !stoppedEarly {
		t.Fatal("no target set ever stopped a search early")
	}
}

// Departures just below Infinity must not wrap the 32-bit keys: arrivals at
// or past the sentinel read as unreachable, in the time-query and in the
// point query alike, and departures at or past it are rejected.
func TestPointQueriesNearInfinity(t *testing.T) {
	g := workspaceNet(t)
	ws := NewWorkspace()
	env := QueryEnv{Graph: g}
	for _, tau := range []timeutil.Ticks{timeutil.Infinity - 1, timeutil.Infinity - 700, timeutil.Infinity - 3000} {
		tq, err := ws.TimeQuery(g, 0, tau, Options{})
		if err != nil {
			t.Fatal(err)
		}
		arrivals := make([]timeutil.Ticks, g.NumStations())
		for s := range arrivals {
			arrivals[s] = tq.StationArrival(timetable.StationID(s))
			if a := arrivals[s]; a < tau || a > timeutil.Infinity {
				t.Fatalf("time-query @%d: arrival %d at station %d", tau, a, s)
			}
		}
		for s, want := range arrivals {
			res, err := ws.EarliestArrival(env, 0, timetable.StationID(s), tau, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.ArrT[0]; got != want {
				t.Fatalf("point query 0→%d @%d = %d, time-query %d", s, tau, got, want)
			}
		}
	}
	for _, tau := range []timeutil.Ticks{-1, timeutil.Infinity, 1<<31 - 1} {
		if _, err := ws.TimeQuery(g, 0, tau, Options{}); err == nil {
			t.Errorf("TimeQuery accepted departure %d", tau)
		}
		if _, err := ws.EarliestArrival(env, 0, 5, tau, QueryOptions{}); err == nil {
			t.Errorf("EarliestArrival accepted departure %d", tau)
		}
	}
}

// A table profile out of a transfer station lists the connections leaving
// it, so it knows the walk that starts there only from the next departure
// on. Pruning with it lost S→X→(walk)→D: 373 answered as 383.
func TestTablePruningSparesStationsWithFootpaths(t *testing.T) {
	b := timetable.NewBuilder(day)
	s, x, d := b.AddStation("S", 2), b.AddStation("X", 2), b.AddStation("D", 2)
	for h := 6; h <= 20; h++ {
		b.AddTrainRun("sx", []timetable.StationID{s, x}, timeutil.Ticks(h*60), []timeutil.Ticks{10}, 0)
		b.AddTrainRun("xd", []timetable.StationID{x, d}, timeutil.Ticks(h*60+20), []timeutil.Ticks{30}, 0)
	}
	b.AddFootpath(x, d, 3)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	pre, err := BuildDistanceTable(g, []bool{false, true, true}, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	env := QueryEnv{Graph: g, StationGraph: stationgraph.Build(tt), Table: pre.Table}
	want, err := OneToAll(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := StationToStation(env, s, d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range got.ArrT {
		if w := want.StationArrival(d, i); a != w {
			t.Fatalf("connection %d: arr(D) = %d with the table, %d without", i, a, w)
		}
	}
	if got.ArrT[0] != 373 {
		t.Fatalf("first connection arrives %d, want 373 (S 06:00 → X 06:10, walk 3)", got.ArrT[0])
	}
}

// A stream of journeys must leave the workspace small: the window search
// tracks parents for the few connections that can matter, so the shared
// label store never reaches numNodes × |conn(S)| for any busy source.
func TestJourneySearchKeepsLabelStoreSmall(t *testing.T) {
	g := workspaceNet(t)
	env := QueryEnv{Graph: g}
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(5))
	ns := g.NumStations()
	minBusyK, found := 1<<30, 0
	for i := 0; i < 300; i++ {
		src, dst := timetable.StationID(rng.Intn(ns)), timetable.StationID(rng.Intn(ns))
		if src == dst {
			continue // answered by the whole-period search (see JourneySearch)
		}
		res, err := ws.JourneySearch(env, src, dst, timeutil.Ticks(rng.Intn(1440)), QueryOptions{Options: Options{TrackParents: true}})
		if errors.Is(err, ErrUnreachable) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		found++
		if k := len(g.TT.Outgoing(src)); k >= 16 {
			minBusyK = min(minBusyK, k)
		}
		if !res.HasParents() {
			t.Fatal("journey search dropped parent tracking")
		}
	}
	if found == 0 || minBusyK == 1<<30 {
		t.Fatalf("%d journeys, busiest-source floor %d: sample too thin", found, minBusyK)
	}
	limit := g.NumNodes() * minBusyK
	if cap(ws.arr) >= limit || cap(ws.parentNode) >= limit || cap(ws.worker(0).labels) >= limit {
		t.Fatalf("label store grew to %d arrivals, %d parents, %d search labels; a whole-period search from a source with %d connections needs %d",
			cap(ws.arr), cap(ws.parentNode), cap(ws.worker(0).labels), minBusyK, limit)
	}
}
