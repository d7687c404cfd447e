package transit

// The multi-criteria oracle: a round-based scan over the unrolled trips of
// the timetable (RAPTOR, Delling, Pajor, Werneck, ALENEX 2012), in which
// round r holds the earliest arrival at every station with at most r
// transfers. It shares no code with the graph searches — no graph, no
// queue, no per-connection labels — and checks the Pareto kind's profiles
// and Pareto sets on chaotic random networks, on the footpath fixture and
// on generated families, at several thread counts, before and after delay
// batches.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"transit/internal/timetable"
)

// roundScan returns rounds[r][s]: the earliest arrival at station s, for a
// traveller at src at the absolute time dep, over itineraries that ride at
// least one trip and change trips at most r times (Infinity where there is
// none), for r = 0 … maxTransfers.
//
// A trip is boarded in round 0 at src at any departure from dep on (the
// first boarding is free), or at a station W reached on foot from src at
// any departure from dep + walk(src, W) + T(W); in round r > 0 at a station
// s round r − 1 reached, at any departure from that arrival + T(s). Staying
// aboard costs nothing, a cancelled hop ends the ride, and after the trips
// of a round its arrivals spread over footpaths. The periodic timetable is
// unrolled over enough trip start days to hold every itinerary of
// maxTransfers + 1 trips.
func roundScan(tt *timetable.Timetable, src StationID, dep Ticks, maxTransfers int) [][]Ticks {
	pi := tt.Period.Len()
	ns := tt.NumStations()
	walk := make([]Ticks, ns)
	for s := range walk {
		walk[s] = footpathTime(tt, src, StationID(s))
	}

	// start[c] is connection c's departure on its trip's own timeline: the
	// first hop at its time point, later hops at the next occurrence of
	// theirs after the previous hop arrives. span is the longest trip in
	// periods, rounded up.
	start := make([]Ticks, tt.NumConnections())
	span := Ticks(1)
	for z := 0; z < tt.NumTrains(); z++ {
		conns := tt.TrainConnections(timetable.TrainID(z))
		var at Ticks
		for h, id := range conns {
			c := tt.Connections[id]
			if h == 0 {
				start[id] = c.Dep
			} else {
				start[id] = at + tt.Period.Delta(at, c.Dep)
			}
			at = start[id]
			if !c.Arr.IsInf() {
				at += c.Arr - c.Dep
			}
		}
		if len(conns) > 0 {
			span = max(span, (at-start[conns[0]])/pi+1)
		}
	}
	// Each trip of an itinerary is boarded within a period of the traveller
	// being ready and rides at most span periods.
	firstDay := dep/pi - 1 - span
	lastDay := dep/pi + Ticks(maxTransfers+1)*(span+1) + 1

	rounds := make([][]Ticks, maxTransfers+1)
	for r := range rounds {
		cur := make([]Ticks, ns)
		for s := range cur {
			cur[s] = Infinity
		}
		if r > 0 {
			copy(cur, rounds[r-1])
		}
		canBoard := func(s StationID, at Ticks) bool {
			if r == 0 {
				if s == src {
					return at >= dep
				}
				return !walk[s].IsInf() && at >= dep+walk[s]+tt.Stations[s].Transfer
			}
			prev := rounds[r-1][s]
			return !prev.IsInf() && at >= prev+tt.Stations[s].Transfer
		}
		for z := 0; z < tt.NumTrains(); z++ {
			conns := tt.TrainConnections(timetable.TrainID(z))
			for day := firstDay; day <= lastDay; day++ {
				aboard := false
				for _, id := range conns {
					c := tt.Connections[id]
					if c.Arr.IsInf() {
						aboard = false
						continue
					}
					at := start[id] + day*pi
					if !aboard {
						aboard = canBoard(c.From, at)
					}
					if arr := at + c.Arr - c.Dep; aboard && arr < cur[c.To] {
						cur[c.To] = arr
					}
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, f := range tt.Footpaths {
				if a := cur[f.From] + f.Walk; !cur[f.From].IsInf() && a < cur[f.To] {
					cur[f.To], changed = a, true
				}
			}
		}
		rounds[r] = cur
	}
	return rounds
}

// checkPareto compares one Pareto result from src with the round scan at
// every departure of deps and every target, and returns how many (target,
// departure) pairs it compared. A station's profile under budget u, read as
// a traveller does (Profile.EarliestArrival: walking alone when that is
// faster, which is all the profile is read for where a walk exists), must
// equal round u or the walk; the Pareto set must be the walk at zero
// transfers followed by every round that arrives strictly earlier than the
// rounds before it. At the source itself the traveller is already there,
// which both sides answer trivially, so its Pareto set is not compared.
func checkPareto(t *testing.T, where string, n *Network, pp *ParetoProfiles, src StationID, deps []Ticks, targets []StationID) int {
	t.Helper()
	budget := pp.MaxTransfers()
	checked := 0
	for _, dep := range deps {
		rounds := roundScan(n.tt, src, dep, budget)
		for _, dst := range targets {
			walk := footpathTime(n.tt, src, dst)
			byFoot := Infinity
			if !walk.IsInf() {
				byFoot = dep + walk
			}
			for u := 0; u <= budget; u++ {
				prof, err := pp.To(dst, u)
				if err != nil {
					t.Fatalf("%s: profile %d→%d u=%d: %v", where, src, dst, u, err)
				}
				want := min(rounds[u][dst], byFoot)
				if dst == src {
					want = dep
				}
				if got := prof.EarliestArrival(dep); got != want {
					t.Fatalf("%s: %d→%d @%d with ≤ %d transfers: profile %d, round scan %d (walk %d)", where, src, dst, dep, u, got, rounds[u][dst], walk)
				}
			}
			if dst == src {
				continue
			}
			var want []ParetoChoice
			prev := byFoot
			if !byFoot.IsInf() {
				want = append(want, ParetoChoice{Transfers: 0, Arrival: byFoot})
			}
			for u := 0; u <= budget; u++ {
				if a := rounds[u][dst]; a < prev {
					want = append(want, ParetoChoice{Transfers: u, Arrival: a})
					prev = a
				}
			}
			got, err := pp.Choices(dst, dep)
			if err != nil {
				t.Fatalf("%s: choices %d→%d: %v", where, src, dst, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %d→%d @%d: Pareto set %v, round scan %v", where, src, dst, dep, got, want)
			}
			checked++
		}
	}
	return checked
}

// planPareto runs one Pareto request through Plan.
func planPareto(t *testing.T, n *Network, src StationID, budget, threads int) *ParetoProfiles {
	t.Helper()
	res, err := n.Plan(context.Background(), Request{Kind: KindPareto, From: src, MaxTransfers: budget, Options: Options{Threads: threads}})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := res.Pareto()
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// TestParetoRoundOracle checks the Pareto kind against the round scan on
// chaotic random networks (every fourth with footpaths), the footpath
// fixture and two generated families, each before and after a delay batch,
// at Threads 1, 2 and 4.
func TestParetoRoundOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	type network struct {
		name    string
		n       *Network
		sources []StationID
	}
	var nets []network
	for trial := 0; trial < 24; trial++ {
		n := oracleRandomNetwork(t, rng, trial%4 == 3)
		ns := n.NumStations()
		nets = append(nets, network{fmt.Sprintf("random %d", trial), n, []StationID{StationID(rng.Intn(ns)), StationID(rng.Intn(ns))}})
	}
	fix := oracleFootpathFixture(t)
	nets = append(nets, network{"footpaths", fix, allStations(fix)})
	for _, family := range []string{"oahu", "germany"} {
		n, err := Generate(family, 0.03, 5)
		if err != nil {
			t.Fatal(err)
		}
		ns := n.NumStations()
		nets = append(nets, network{family, n, []StationID{StationID(rng.Intn(ns)), StationID(rng.Intn(ns))}})
	}

	checked := 0
	for i, net := range nets {
		budget := []int{0, 1, 2, 3, 5}[i%5]
		for _, v := range []oracleVariant{{"plain", net.n}, {"delayed", delayed(t, rng, net.n)}} {
			deps := oracleDeps(rng, v.n.Period())
			for _, src := range net.sources {
				for _, threads := range []int{1, 2, 4} {
					where := fmt.Sprintf("%s/%s/u%d/p%d", net.name, v.name, budget, threads)
					checked += checkPareto(t, where, v.n, planPareto(t, v.n, src, budget, threads), src, deps, allStations(v.n))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("vacuous run")
	}
	t.Logf("%d (target, departure) pairs", checked)
}
