package core

// Chaos cross-validation: random, adversarial timetables (not the
// well-behaved generator families) exercise edge cases — overnight trains,
// duplicate departures, stations with a single connection, zero transfer
// times — and every algorithm must agree with every other on the answers.

import (
	"fmt"
	"math/rand"
	"testing"

	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
	"transit/internal/ttf"
)

// randomTimetable builds a chaotic but valid timetable.
func randomTimetable(t *testing.T, rng *rand.Rand) *timetable.Timetable {
	t.Helper()
	nStations := 4 + rng.Intn(12)
	b := timetable.NewBuilder(day)
	ids := make([]timetable.StationID, nStations)
	for i := range ids {
		ids[i] = b.AddStation(fmt.Sprintf("s%d", i), timeutil.Ticks(rng.Intn(6)))
	}
	nTrains := 5 + rng.Intn(40)
	for z := 0; z < nTrains; z++ {
		length := 2 + rng.Intn(5)
		if length > nStations {
			length = nStations
		}
		perm := rng.Perm(nStations)[:length]
		path := make([]timetable.StationID, length)
		for i, p := range perm {
			path[i] = ids[p]
		}
		hops := make([]timeutil.Ticks, length-1)
		for h := range hops {
			hops[h] = timeutil.Ticks(1 + rng.Intn(200))
		}
		// Departures anywhere in the period, including close to midnight so
		// runs wrap.
		b.AddTrainRun(fmt.Sprintf("z%d", z), path, timeutil.Ticks(rng.Intn(1440)), hops, timeutil.Ticks(rng.Intn(4)))
	}
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestRandomNetworksCrossValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		tt := randomTimetable(t, rng)
		g := graph.Build(tt)
		src := timetable.StationID(rng.Intn(tt.NumStations()))

		spcs, err := OneToAll(g, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := 1 + rng.Intn(7)
		strat := PartitionStrategy(rng.Intn(3))
		par, err := OneToAll(g, src, Options{Threads: p, Partition: strat})
		if err != nil {
			t.Fatal(err)
		}
		lc, err := LabelCorrecting(g, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pareto, err := OneToAllPareto(g, src, 8, Options{})
		if err != nil {
			t.Fatal(err)
		}

		for s := 0; s < tt.NumStations(); s++ {
			st := timetable.StationID(s)
			if st == src {
				continue
			}
			parProf, err := par.StationProfile(st)
			if err != nil {
				t.Fatal(err)
			}
			lcProf, err := lc.StationProfile(st)
			if err != nil {
				t.Fatal(err)
			}
			paretoProf, err := pareto.StationProfile(st, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, tau := range []timeutil.Ticks{0, timeutil.Ticks(rng.Intn(1440)), 719, 1439} {
				want := spcs.EarliestArrival(st, tau)
				// Reference: independent time-query.
				tq, err := TimeQuery(g, src, tau, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got := tq.StationArrival(st); got != want {
					t.Fatalf("trial %d: time-query %d vs profile %d (src %d, dst %d, τ=%d)",
						trial, got, want, src, s, tau)
				}
				if got := parProf.EvalArrival(tau); got != want && !(got.IsInf() && want.IsInf()) {
					t.Fatalf("trial %d: parallel(p=%d,%v) %d vs %d (src %d, dst %d, τ=%d)",
						trial, p, strat, got, want, src, s, tau)
				}
				if got := lcProf.EvalArrival(tau); got != want && !(got.IsInf() && want.IsInf()) {
					t.Fatalf("trial %d: LC %d vs %d (src %d, dst %d, τ=%d)", trial, got, want, src, s, tau)
				}
				if got := paretoProf.EvalArrival(tau); got != want && !(got.IsInf() && want.IsInf()) {
					t.Fatalf("trial %d: pareto %d vs %d (src %d, dst %d, τ=%d)", trial, got, want, src, s, tau)
				}
			}
		}
	}
}

// Station-to-station with all prunings must agree with one-to-all on
// random chaotic networks, including after preprocessing with random
// transfer-station selections.
func TestRandomNetworksStationToStation(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 25; trial++ {
		tt := randomTimetable(t, rng)
		g := graph.Build(tt)
		sg := stationgraph.Build(tt)
		// Random transfer-station selection (possibly empty or full).
		marked := make([]bool, tt.NumStations())
		for i := range marked {
			marked[i] = rng.Intn(3) == 0
		}
		pre, err := BuildDistanceTable(g, marked, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		env := QueryEnv{Graph: g, StationGraph: sg, Table: pre.Table}

		src := timetable.StationID(rng.Intn(tt.NumStations()))
		ref, err := OneToAll(g, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tt.NumStations(); s++ {
			dst := timetable.StationID(s)
			if dst == src {
				continue
			}
			res, err := StationToStation(env, src, dst, QueryOptions{
				Options: Options{Threads: 1 + rng.Intn(4)},
			})
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
			for tau := timeutil.Ticks(0); tau < 1440; tau += 111 {
				g1, w1 := got.EvalArrival(tau), want.EvalArrival(tau)
				if g1 != w1 && !(g1.IsInf() && w1.IsInf()) {
					t.Fatalf("trial %d: s2s %d vs one-to-all %d (src %d, dst %d, τ=%d, local=%v hit=%v)",
						trial, g1, w1, src, s, tau, res.Local, res.TableHit)
				}
			}
		}
	}
}

// validateJourney checks the itinerary recorded for arr(dst, i) twice over.
//
// Link by link: every parent link (p → v, ride c) on the chain must
// reproduce the child's final arrival when the edge is evaluated at the
// parent's final arrival. A link written for a key that was later improved
// — or kept after a worse push — fails this.
//
// Against the timetable alone: each extracted ride must leave from where the
// previous one arrived, no earlier than the traveller is ready (a route
// change costs the station's transfer time — also straight off the seed
// connection's platform — while staying on the route costs nothing), and the
// replay must end at dst at exactly the label's arrival.
func validateJourney(g *graph.Graph, r *ProfileResult, dst timetable.StationID, i int) error {
	tt := g.TT
	for v := g.StationNode(dst); ; {
		p, c := r.parentAt(r.label(v, i))
		if p == graph.NoNode {
			if seed := g.ConnDepartureNode(r.Conns[i]); v != seed {
				return fmt.Errorf("parent chain ends at node %d, seed node is %d", v, seed)
			}
			break
		}
		linked := false
		edges := g.OutEdges(p)
		for e := range edges {
			if edges[e].Head != v {
				continue
			}
			arr, ride := g.EvalEdge(&edges[e], r.Arrival(p, i))
			linked = linked || (arr == r.Arrival(v, i) && ride == c)
		}
		if !linked {
			return fmt.Errorf("link %d→%d (ride %d): arr(parent) = %d does not yield arr(child) = %d",
				p, v, c, r.Arrival(p, i), r.Arrival(v, i))
		}
		v = p
	}

	rides, err := r.JourneyConnections(dst, i)
	if err != nil {
		return err
	}
	if len(rides) == 0 {
		return fmt.Errorf("no rides")
	}
	seed := tt.Connections[r.Conns[i]]
	at, t, route := seed.From, seed.Dep, tt.RouteOf(seed.Train)
	for n, id := range rides {
		c := tt.Connections[id]
		if c.From != at {
			return fmt.Errorf("ride %d (conn %d) leaves station %d, traveller is at %d", n, id, c.From, at)
		}
		ready := t
		if cr := tt.RouteOf(c.Train); cr != route {
			ready += tt.Stations[at].Transfer
			route = cr
		}
		at, t = c.To, tt.Period.NextOccurrence(c.Dep, ready)+c.Duration()
	}
	if want := r.StationArrival(dst, i); at != dst || t != want {
		return fmt.Errorf("replay ends at station %d at %d, label says station %d at %d (rides %v)", at, t, dst, want, rides)
	}
	return nil
}

// The radix queue surfaces equal keys in a different order than the
// addressable heap did and keeps superseded entries around. Neither may
// show in an answer: on chaotic networks, at every thread count, the
// connection-setting searches must reduce to exactly the label-correcting
// profiles — one-to-all with parents tracked and every journey replayed,
// station-to-station without a table, with one, and towards transfer
// stations (target pruning).
func TestRandomNetworksExactAgainstLabelCorrecting(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	journeys, targetPruned := 0, 0
	for trial := 0; trial < 50; trial++ {
		tt := randomTimetable(t, rng)
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

		src := timetable.StationID(rng.Intn(tt.NumStations()))
		lc, err := LabelCorrecting(g, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 4} {
			ota, err := OneToAll(g, src, Options{Threads: threads, TrackParents: true})
			if err != nil {
				t.Fatal(err)
			}
			// Without self-pruning every label is the exact per-connection
			// arrival, at route nodes too — which is where superseded queue
			// entries occur (a station node is only ever pushed at the key
			// being settled). Self-pruning would discard one that slipped
			// through; here it would overwrite the label.
			unpruned, err := OneToAll(g, src, Options{Threads: threads, DisableSelfPruning: true})
			if err != nil {
				t.Fatal(err)
			}
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				for i := 0; i < lc.K(); i++ {
					if got, want := unpruned.Arrival(v, i), lc.Arrival(v, i); got != want {
						t.Fatalf("trial %d, %d threads: unpruned arr(%d, %d) = %d, label-correcting %d", trial, threads, v, i, got, want)
					}
				}
			}
			for s := 0; s < tt.NumStations(); s++ {
				dst := timetable.StationID(s)
				if dst == src {
					continue
				}
				want, err := lc.StationProfile(dst)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ota.StationProfile(dst)
				if err != nil {
					t.Fatal(err)
				}
				if !ttf.Equal(got, want) {
					t.Fatalf("trial %d, %d threads: one-to-all %d→%d is %v, label-correcting %v", trial, threads, src, s, got, want)
				}
				for i := 0; i < ota.K(); i++ {
					if ota.StationArrival(dst, i).IsInf() {
						continue
					}
					if err := validateJourney(g, ota, dst, i); err != nil {
						t.Fatalf("trial %d, %d threads: journey %d→%d via connection %d: %v", trial, threads, src, s, i, err)
					}
					journeys++
				}
				for e, env := range envs {
					res, err := StationToStation(env, src, dst, QueryOptions{Options: Options{Threads: threads}})
					if err != nil {
						t.Fatal(err)
					}
					got, err := res.Profile()
					if err != nil {
						t.Fatal(err)
					}
					if !ttf.Equal(got, want) {
						t.Fatalf("trial %d, %d threads, env %d: s2s %d→%d is %v, label-correcting %v (local=%v hit=%v)",
							trial, threads, e, src, s, got, want, res.Local, res.TableHit)
					}
					if e == 1 && marked[s] && !res.Local && !res.TableHit {
						targetPruned++
					}
				}
			}
		}
	}
	if journeys == 0 || targetPruned == 0 {
		t.Fatalf("replayed %d journeys, ran %d global queries towards transfer stations", journeys, targetPruned)
	}
}
