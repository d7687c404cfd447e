package transit

// Plan-level oracle for the two point kinds. Plan answers earliest-arrival
// as a target-stopped, table-pruned k = 1 search and journeys from a bounded
// window search behind it; both must be indistinguishable from the
// whole-graph, whole-period computations they replaced — on chaotic random
// networks, on footpath fixtures and on the generator families, with and
// without a distance table, before and after delay batches.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"transit/internal/core"
	"transit/internal/timetable"
)

// oracleRandomNetwork is core's chaotic randomTimetable through the public
// builder: overnight trains, duplicate departures, single-connection
// stations, zero transfer times — and optionally a few random footpaths.
func oracleRandomNetwork(t *testing.T, rng *rand.Rand, footpaths bool) *Network {
	t.Helper()
	tb := NewTimetableBuilder(0)
	ids := make([]StationID, 4+rng.Intn(12))
	for i := range ids {
		ids[i] = tb.AddStation(fmt.Sprintf("s%d", i), Ticks(rng.Intn(6)))
	}
	for z, nTrains := 0, 5+rng.Intn(40); z < nTrains; z++ {
		length := 2 + rng.Intn(5)
		if length > len(ids) {
			length = len(ids)
		}
		path := make([]StationID, length)
		for i, p := range rng.Perm(len(ids))[:length] {
			path[i] = ids[p]
		}
		hops := make([]Ticks, length-1)
		for h := range hops {
			hops[h] = Ticks(1 + rng.Intn(200))
		}
		if err := tb.AddTrain(fmt.Sprintf("z%d", z), path, Ticks(rng.Intn(1440)), hops, Ticks(rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	if footpaths {
		for i, nFoot := 0, 1+rng.Intn(5); i < nFoot; i++ {
			from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if from != to {
				tb.AddFootpath(from, to, Ticks(rng.Intn(20)))
			}
		}
	}
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// oracleFootpathFixture is footpath_test.go's fixture (two lines A→B and
// C→D joined only by the footpath B↔C) extended by the shapes the point
// kinds special-case: S→W, an initial walk to better service; X→D, where a
// walk (3) leaves a transfer station the table knows only by its train
// departures; and P→Q, where for most of the day walking (30) beats waiting
// for the one train, so the journey's itinerary arrives after the point
// query's answer.
func oracleFootpathFixture(t *testing.T) *Network {
	t.Helper()
	tb := NewTimetableBuilder(0)
	a, b := tb.AddStation("A", 2), tb.AddStation("B", 2)
	c, d := tb.AddStation("C", 2), tb.AddStation("D", 2)
	s, w, x := tb.AddStation("S", 2), tb.AddStation("W", 2), tb.AddStation("X", 2)
	p, q := tb.AddStation("P", 2), tb.AddStation("Q", 2)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for h := Ticks(6); h <= 20; h++ {
		must(tb.AddTrain("l1", []StationID{a, b}, h*60, []Ticks{15}, 0))
		must(tb.AddTrain("l2", []StationID{c, d}, h*60+30, []Ticks{15}, 0))
		must(tb.AddTrain("fast", []StationID{w, d}, h*60, []Ticks{20}, 0))
		must(tb.AddTrain("sx", []StationID{s, x}, h*60, []Ticks{10}, 0))
		must(tb.AddTrain("xd", []StationID{x, d}, h*60+20, []Ticks{30}, 0))
		must(tb.AddTrain("da", []StationID{d, a}, h*60+50, []Ticks{25}, 0))
	}
	must(tb.AddTrain("slowdirect", []StationID{s, d}, 720, []Ticks{120}, 0))
	must(tb.AddTrain("crawl", []StationID{s, w}, 700, []Ticks{40}, 0))
	must(tb.AddTrain("hop", []StationID{p, q}, 700, []Ticks{5}, 0))
	must(tb.AddTrain("back", []StationID{q, a, p}, 800, []Ticks{50, 50}, 1))
	tb.AddFootpath(b, c, 5)
	tb.AddFootpath(c, b, 5)
	tb.AddFootpath(s, w, 7)
	tb.AddFootpath(x, d, 3)
	tb.AddFootpath(p, q, 30)
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// oracleVariant is one network state the serving stack can be in.
type oracleVariant struct {
	name string
	n    *Network
}

// oracleVariants derives the four states from a plain network: no table, a
// built table, and — after a random delay batch — the table dropped and the
// table rebuilt. Variants that share a timetable must answer alike.
func oracleVariants(t *testing.T, rng *rand.Rand, plain *Network, sel TransferSelection) []oracleVariant {
	t.Helper()
	built, _, err := plain.Preprocess(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := []oracleVariant{{"no-table", plain}, {"table", built}}
	for try := 0; try < 8; try++ {
		dropped, _, err := built.ApplyUpdates(randomOps(rng, built))
		if err != nil {
			t.Fatal(err)
		}
		if dropped == built {
			continue // the batch matched no train
		}
		if dropped.Preprocessed() {
			t.Fatal("ApplyUpdates kept the distance table")
		}
		rebuilt, _, err := dropped.Preprocess(sel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return append(out, oracleVariant{"dropped", dropped}, oracleVariant{"rebuilt", rebuilt})
	}
	t.Fatal("no delay batch changed the network")
	return nil
}

// randomOps draws a small batch of delay/cancellation ops — mostly
// train-level (the realistic delay-feed shape), occasionally a windowed
// route-level op, including negative delays.
func randomOps(rng *rand.Rand, n *Network) []DelayOp {
	tt := n.Timetable()
	ops := make([]DelayOp, 0, 4)
	for i := 0; i < 1+rng.Intn(4); i++ {
		var op DelayOp
		if rng.Intn(5) == 0 {
			op.Routes = []int{rng.Intn(len(tt.Routes()))}
			op.WindowFrom = Ticks(rng.Intn(1200))
			op.WindowTo = op.WindowFrom + Ticks(30+rng.Intn(120))
		} else {
			op.Train = tt.Trains[rng.Intn(tt.NumTrains())].Name
		}
		switch rng.Intn(8) {
		case 0:
			op.Cancel = true
		case 1:
			op.Delay = -Ticks(1 + rng.Intn(15))
		default:
			op.Delay = Ticks(1 + rng.Intn(45))
		}
		ops = append(ops, op)
	}
	return ops
}

// footpathTime is the shortest walk from a to b over footpaths alone.
func footpathTime(tt *timetable.Timetable, a, b StationID) Ticks {
	dist := map[StationID]Ticks{a: 0}
	for changed := true; changed; {
		changed = false
		for _, f := range tt.Footpaths {
			if d, ok := dist[f.From]; ok {
				if old, seen := dist[f.To]; !seen || d+f.Walk < old {
					dist[f.To], changed = d+f.Walk, true
				}
			}
		}
	}
	if d, ok := dist[b]; ok {
		return d
	}
	return Infinity
}

// replayJourney walks an itinerary against the timetable alone and returns
// when it reaches dst, the transit-level form of core's validateJourney
// replay: every leg is a run of consecutive connections of its train, none
// cancelled, leaving from where the traveller stands — or from where a
// footpath takes them — no earlier than they are ready: a route change costs
// the station's transfer time, as does boarding after a walk, while the
// first boarding at the source and staying on a route cost nothing.
func replayJourney(n *Network, j *Journey, src, dst StationID, dep Ticks) (Ticks, error) {
	tt := n.tt
	at, now := src, dep
	route := timetable.RouteID(-1)
	for li, leg := range j.Legs {
		ready := now
		if leg.From != at {
			w := footpathTime(tt, at, leg.From)
			if w.IsInf() {
				return 0, fmt.Errorf("leg %d leaves station %d, traveller is at %d", li, leg.From, at)
			}
			at, ready, route = leg.From, now+w+tt.Stations[leg.From].Transfer, -1
		} else if r := tt.RouteOf(leg.train); li > 0 && r != route {
			ready += tt.Stations[at].Transfer
		}
		conns := tt.TrainConnections(leg.train)
		first := -1
		for k, id := range conns {
			if c := tt.Connections[id]; c.From == leg.From && c.Dep == leg.Departure && k+leg.Stops <= len(conns) {
				first = k
				break
			}
		}
		if first < 0 {
			return 0, fmt.Errorf("leg %d: train %q has no departure from %d at %d", li, leg.Train, leg.From, leg.Departure)
		}
		for k, id := range conns[first : first+leg.Stops] {
			c := tt.Connections[id]
			if tt.Cancelled(id) {
				return 0, fmt.Errorf("leg %d rides cancelled connection %d", li, id)
			}
			if c.From != at && k > 0 {
				return 0, fmt.Errorf("leg %d: connection %d leaves %d, train is at %d", li, id, c.From, at)
			}
			now = tt.Period.NextOccurrence(c.Dep, ready) + c.Duration()
			at, ready = c.To, now
		}
		last := tt.Connections[conns[first+leg.Stops-1]]
		if at != leg.To || last.Arr != leg.Arrival {
			return 0, fmt.Errorf("leg %d ends at %d (%d), leg says %d (%d)", li, at, last.Arr, leg.To, leg.Arrival)
		}
		route = tt.RouteOf(leg.train)
	}
	if at != dst {
		w := footpathTime(tt, at, dst)
		if w.IsInf() {
			return 0, fmt.Errorf("journey ends at station %d, not %d", at, dst)
		}
		now += w
	}
	return now, nil
}

// oracleTally counts what the samples covered, so a vacuous run fails.
type oracleTally struct {
	arrivals, journeys, unreachable, sameStation int
	tableHits, local, pruned, walkWins           int
}

// checkPointKinds compares Plan's earliest-arrival and journey answers on
// every variant with their whole-graph references, for the given sources,
// all targets and the given departure times.
func checkPointKinds(t *testing.T, label string, variants []oracleVariant, sources []StationID, targets []StationID, deps []Ticks, tally *oracleTally) {
	t.Helper()
	ctx := context.Background()
	// Variants that share a timetable must print the same itinerary (or
	// fail alike), whatever their table state.
	type sample struct {
		tt       *timetable.Timetable
		src, dst StationID
		dep      Ticks
	}
	journeys := map[sample]string{}
	for _, v := range variants {
		n := v.n
		sched := core.NewConnectionScan(n.tt)
		for _, src := range sources {
			whole, err := core.OneToAll(n.g, src, core.Options{TrackParents: true})
			if err != nil {
				t.Fatal(err)
			}
			ref := &AllProfiles{n: n, res: whole}
			for _, dep := range deps {
				tq, err := core.TimeQuery(n.g, src, dep, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				cs, err := sched.Query(src, dep, 8)
				if err != nil {
					t.Fatal(err)
				}
				for _, dst := range targets {
					where := fmt.Sprintf("%s/%s: %d→%d @%d", label, v.name, src, dst, dep)
					res, err := n.Plan(ctx, Request{Kind: KindEarliestArrival, From: src, To: dst, Depart: dep})
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					got, want := res.arrival, tq.StationArrival(dst)
					if got != want {
						t.Fatalf("%s: Plan arrival %d, time-query %d (stats %+v)", where, got, want, res.stats)
					}
					if scan := cs.StationArrival(dst); scan != want && !(scan.IsInf() && want.IsInf()) {
						t.Fatalf("%s: Plan arrival %d, connection scan %d", where, got, scan)
					}
					tally.arrivals++
					switch {
					case src == dst:
						tally.sameStation++
					case want.IsInf():
						tally.unreachable++
					case res.stats.TableHit:
						tally.tableHits++
					case res.stats.Local:
						tally.local++
					case n.table != nil:
						tally.pruned++
					}

					wantJ, wantErr := ref.Journey(dst, dep)
					var effort SearchEffort
					jres, err := n.Plan(ctx, Request{Kind: KindJourney, From: src, To: dst, Depart: dep, Options: Options{Effort: &effort}})
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("%s: Plan journey error %v, whole-period search %v", where, err, wantErr)
					}
					key := sample{n.tt, src, dst, dep}
					if err != nil {
						if ErrorCodeOf(err) != CodeUnreachable || err.Error() != "transit: "+strings.TrimPrefix(wantErr.Error(), "transit: ") {
							t.Fatalf("%s: Plan journey error %q, whole-period search %q", where, err, wantErr)
						}
						if prev, ok := journeys[key]; ok && prev != err.Error() {
							t.Fatalf("%s: error %q here, %q with the table state flipped", where, err, prev)
						}
						journeys[key] = err.Error()
						continue
					}
					j := jres.journey
					if j.String() != wantJ.String() || j.RequestedDeparture != dep || fmt.Sprint(j.Legs) != fmt.Sprint(wantJ.Legs) {
						t.Fatalf("%s: Plan journey %q, whole-period search %q", where, j, wantJ)
					}
					if prev, ok := journeys[key]; ok && prev != j.String() {
						t.Fatalf("%s: journey %q here, %q with the table state flipped", where, j, prev)
					}
					journeys[key] = j.String()
					// The itinerary is the earliest arrival by train; the
					// point query may beat it on foot alone, never lose.
					fn, err := ref.res.StationProfile(dst)
					if err != nil {
						t.Fatal(err)
					}
					byTrain := fn.EvalArrival(dep)
					if want < byTrain {
						tally.walkWins++
					} else if want != byTrain {
						t.Fatalf("%s: earliest arrival %d is later than the best train arrival %d", where, want, byTrain)
					}
					// The phases behind it: a point query, a second one at
					// the next day start only when the trip runs past
					// midnight, one bounded window search — and the
					// whole-period search only where walking alone wins.
					if src != dst {
						rounds := int64(2)
						if want-dep/n.Period()*n.Period() >= n.Period() {
							rounds++
						}
						if want < byTrain {
							rounds++
						}
						if got := effort.Rounds.Load(); got != rounds {
							t.Fatalf("%s: journey took %d searches, want %d", where, got, rounds)
						}
					}
					arr, err := replayJourney(n, j, src, dst, dep)
					if err != nil {
						t.Fatalf("%s: journey %q does not replay: %v", where, j, err)
					}
					if arr != byTrain {
						t.Fatalf("%s: journey %q replays to %d, best train arrival is %d", where, j, arr, byTrain)
					}
					tally.journeys++
				}
			}
		}
	}
}

// oracleDeps are the departures every sample is asked at: both ends of the
// period, the first tick of the next one, and times one and two periods out.
func oracleDeps(rng *rand.Rand, pi Ticks) []Ticks {
	return []Ticks{0, 1, pi - 1, pi, pi + 480, 2*pi + 17, Ticks(rng.Intn(int(pi)))}
}

func allStations(n *Network) []StationID {
	out := make([]StationID, n.NumStations())
	for i := range out {
		out[i] = StationID(i)
	}
	return out
}

// TestPlanPointKindsOracle is the tier-1 exactness guard of the point kinds.
func TestPlanPointKindsOracle(t *testing.T) {
	var tally oracleTally
	rng := rand.New(rand.NewSource(1610))
	for trial := 0; trial < 56; trial++ {
		plain := oracleRandomNetwork(t, rng, trial%4 == 3)
		sel := TransferSelection{Fraction: 0.2 + 0.3*rng.Float64()}
		if trial%3 == 0 {
			sel = TransferSelection{MinDegree: 2 + rng.Intn(3)}
		}
		variants := oracleVariants(t, rng, plain, sel)
		sources := []StationID{StationID(rng.Intn(plain.NumStations())), StationID(rng.Intn(plain.NumStations()))}
		checkPointKinds(t, fmt.Sprintf("random %d", trial), variants, sources, allStations(plain), oracleDeps(rng, plain.Period()), &tally)
	}

	fix := oracleFootpathFixture(t)
	// A, B, D, W and X transfer stations: table hits (A→B), walks out of
	// transfer stations (X→D, B→C) and a walk that beats the train (S→W).
	fixSel := TransferSelection{MinDegree: 1}
	walkBefore := tally.walkWins
	checkPointKinds(t, "footpaths", oracleVariants(t, rng, fix, fixSel)[:2], allStations(fix), allStations(fix),
		append(oracleDeps(rng, fix.Period()), 470, 700), &tally)
	if tally.walkWins == walkBefore {
		t.Error("footpath fixture: no pair where walking alone beats the itinerary")
	}

	for _, family := range GenerateFamilies() {
		plain, err := Generate(family, 0.03, 5)
		if err != nil {
			t.Fatal(err)
		}
		variants := oracleVariants(t, rng, plain, TransferSelection{Fraction: 0.1})
		ns := plain.NumStations()
		transfer := variants[1].n.table.Stations()
		sources := []StationID{StationID(rng.Intn(ns)), transfer[rng.Intn(len(transfer))]}
		targets := []StationID{sources[0], transfer[rng.Intn(len(transfer))], transfer[rng.Intn(len(transfer))]}
		for i := 0; i < 5; i++ {
			targets = append(targets, StationID(rng.Intn(ns)))
		}
		// A neighbour along a line is the likeliest S ∈ local(T).
		targets = append(targets, StationID((int(sources[0])+1)%ns), StationID((int(sources[0])+ns-1)%ns))
		checkPointKinds(t, family, variants, sources, targets, oracleDeps(rng, plain.Period()), &tally)
	}

	t.Logf("%+v", tally)
	if tally.journeys == 0 || tally.unreachable == 0 || tally.sameStation == 0 ||
		tally.tableHits == 0 || tally.local == 0 || tally.pruned == 0 {
		t.Fatalf("vacuous run: %+v", tally)
	}
}
