package core

import (
	"testing"

	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// paretoNetwork: A→D has a slow direct line (0 transfers, 60 min) and a
// fast two-leg path via B (1 transfer, 25 min + change + 10 min).
func paretoNetwork(t *testing.T) *graph.Graph {
	t.Helper()
	b := timetable.NewBuilder(day)
	a := b.AddStation("A", 2)
	bb := b.AddStation("B", 3)
	d := b.AddStation("D", 2)
	// Direct slow line, hourly.
	for h := 6; h <= 20; h++ {
		b.AddTrainRun("slow", []timetable.StationID{a, d}, timeutil.Ticks(h*60), []timeutil.Ticks{60}, 0)
	}
	// Fast leg A→B, every 30 min.
	for h := 6; h <= 20; h++ {
		b.AddTrainRun("leg1", []timetable.StationID{a, bb}, timeutil.Ticks(h*60), []timeutil.Ticks{25}, 0)
		b.AddTrainRun("leg1", []timetable.StationID{a, bb}, timeutil.Ticks(h*60+30), []timeutil.Ticks{25}, 0)
	}
	// Fast leg B→D, every 30 min at :58/:28 (connects after 25 min ride + 3 transfer).
	for h := 6; h <= 20; h++ {
		b.AddTrainRun("leg2", []timetable.StationID{bb, d}, timeutil.Ticks(h*60+28), []timeutil.Ticks{10}, 0)
		b.AddTrainRun("leg2", []timetable.StationID{bb, d}, timeutil.Ticks(h*60+58), []timeutil.Ticks{10}, 0)
	}
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return graph.Build(tt)
}

func TestParetoFrontierHandcrafted(t *testing.T) {
	g := paretoNetwork(t)
	res, err := OneToAllPareto(g, 0, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Departing 08:00 (480): 0 transfers → direct slow arrives 540.
	// 1 transfer → leg1 480+25=505, transfer 3 → catch 508... next leg2 at
	// 508 → dep 508 arrives 518.
	set, err := res.ParetoSet(2, 480) // station D
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("Pareto set = %+v, want 2 choices", set)
	}
	if set[0].Transfers != 0 || set[0].Arrival != 540 {
		t.Errorf("0-transfer choice = %+v, want arrival 540", set[0])
	}
	if set[1].Transfers != 1 || set[1].Arrival != 518 {
		t.Errorf("1-transfer choice = %+v, want arrival 518", set[1])
	}
}

// With a generous transfer budget, the Pareto arrival must equal the
// unconstrained SPCS profile everywhere.
func TestParetoMatchesUnconstrained(t *testing.T) {
	for _, fam := range []gen.Family{gen.Oahu, gen.Germany} {
		cfg, err := gen.FamilyConfig(fam, 0.05, 13)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.Build(tt)
		src := timetable.StationID(1)
		plain, err := NewWorkspace().OneToAll(g, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pareto, err := OneToAllPareto(g, src, 10, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tt.NumStations(); s += 4 {
			st := timetable.StationID(s)
			if st == src {
				continue
			}
			pf, err := pareto.StationProfile(st, 10)
			if err != nil {
				t.Fatal(err)
			}
			for tau := timeutil.Ticks(0); tau < 1440; tau += 173 {
				want := plain.EarliestArrival(st, tau)
				got := pf.EvalArrival(tau)
				if got != want {
					t.Fatalf("%s: station %d τ=%d: pareto %d vs plain %d", fam, s, tau, got, want)
				}
			}
		}
	}
}

// Arrivals must be monotone non-increasing in the transfer budget, and the
// Pareto frontier strictly improving.
func TestParetoMonotonicity(t *testing.T) {
	cfg, err := gen.FamilyConfig(gen.Washington, 0.05, 29)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	res, err := OneToAllPareto(g, 0, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < tt.NumStations(); s += 3 {
		st := timetable.StationID(s)
		for i := 0; i < len(res.Conns); i += 17 {
			prev := timeutil.Infinity
			for u := 0; u <= 6; u++ {
				a := res.Arrival(st, i, u)
				if a > prev {
					t.Fatalf("arrival increased with budget at station %d conn %d u=%d: %d > %d", s, i, u, a, prev)
				}
				prev = a
			}
		}
		set, err := res.ParetoSet(st, 480)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(set); j++ {
			if set[j].Arrival >= set[j-1].Arrival || set[j].Transfers <= set[j-1].Transfers {
				t.Fatalf("frontier not strictly improving at station %d: %+v", s, set)
			}
		}
	}
}

// Parallel Pareto search must equal sequential.
func TestParetoParallelEquivalence(t *testing.T) {
	cfg, err := gen.FamilyConfig(gen.Germany, 0.06, 4)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	seq, err := OneToAllPareto(g, 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := OneToAllPareto(g, 2, 4, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < tt.NumStations(); s += 5 {
		st := timetable.StationID(s)
		for u := 0; u <= 4; u += 2 {
			fs, err1 := seq.StationProfile(st, u)
			fp, err2 := par.StationProfile(st, u)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			for tau := timeutil.Ticks(0); tau < 1440; tau += 201 {
				if fs.EvalArrival(tau) != fp.EvalArrival(tau) {
					t.Fatalf("parallel differs at station %d u=%d τ=%d", s, u, tau)
				}
			}
		}
	}
}

// Self-pruning must not change Pareto answers, only work.
func TestParetoSelfPruningCorrect(t *testing.T) {
	cfg, err := gen.FamilyConfig(gen.Oahu, 0.04, 8)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	with, err := OneToAllPareto(g, 0, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := OneToAllPareto(g, 0, 4, Options{DisableSelfPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Run.Total.SettledConns >= without.Run.Total.SettledConns {
		t.Errorf("layered self-pruning saved no work: %d vs %d",
			with.Run.Total.SettledConns, without.Run.Total.SettledConns)
	}
	for s := 1; s < tt.NumStations(); s += 2 {
		st := timetable.StationID(s)
		for u := 0; u <= 4; u++ {
			a, err1 := with.StationProfile(st, u)
			b, err2 := without.StationProfile(st, u)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			for tau := timeutil.Ticks(0); tau < 1440; tau += 157 {
				if a.EvalArrival(tau) != b.EvalArrival(tau) {
					t.Fatalf("self-pruning changed Pareto answer at station %d u=%d τ=%d", s, u, tau)
				}
			}
		}
	}
}

func TestParetoErrors(t *testing.T) {
	g := paretoNetwork(t)
	if _, err := OneToAllPareto(g, -1, 3, Options{}); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := OneToAllPareto(g, 0, -1, Options{}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := OneToAllPareto(g, 0, 99, Options{}); err == nil {
		t.Error("huge budget accepted")
	}
	if _, err := OneToAllPareto(g, 0, 3, Options{TrackParents: true}); err == nil {
		t.Error("parent tracking accepted")
	}
	if _, err := OneToAllPareto(g, 0, 3, Options{Partition: PartitionStrategy(9)}); err == nil {
		t.Error("bad partition strategy accepted")
	}
}

// Zero transfer budget answers single-seat rides only.
func TestParetoZeroBudget(t *testing.T) {
	g := paretoNetwork(t)
	res, err := OneToAllPareto(g, 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// D reachable directly (slow line) — 08:00 → 09:00.
	if a := res.Arrival(2, connAt(t, res, 480, 2), 0); a != 540 {
		t.Errorf("0-transfer arrival = %d, want 540", a)
	}
	set, err := res.ParetoSet(2, 480)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || set[0].Transfers != 0 {
		t.Fatalf("zero-budget Pareto set: %+v", set)
	}
}

// connAt finds the connection index departing at dep toward the given
// station.
func connAt(t *testing.T, res *ParetoResult, dep timeutil.Ticks, to timetable.StationID) int {
	t.Helper()
	for i, id := range res.Conns {
		c := res.g.TT.Connections[id]
		if c.Dep == dep && c.To == to {
			return i
		}
	}
	t.Fatalf("no connection departing %d toward %d", dep, to)
	return -1
}
