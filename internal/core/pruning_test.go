package core

// Focused activation tests for the Section 4 prunings: beyond the
// agreement tests (answers never change), these verify each mechanism
// actually fires and saves work in the situation it was designed for.

import (
	"testing"

	"transit/internal/dtable"
	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// railEnv builds a rail fixture with a contraction-selected table.
func railEnv(t *testing.T, scale float64, keepFrac float64) (QueryEnv, *graph.Graph, *dtable.Table) {
	t.Helper()
	cfg, err := gen.FamilyConfig(gen.Germany, scale, 41)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	sg := stationgraph.Build(tt)
	keep := int(float64(tt.NumStations()) * keepFrac)
	if keep < 2 {
		keep = 2
	}
	marked := sg.SelectByContraction(keep)
	pre, err := BuildDistanceTable(g, marked, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return QueryEnv{Graph: g, StationGraph: sg, Table: pre.Table}, g, pre.Table
}

// Target pruning (Theorem 4) must reduce work on queries whose target is a
// transfer station, with unchanged answers.
func TestTargetPruningActivates(t *testing.T) {
	env, g, table := railEnv(t, 0.25, 0.15)
	transfers := table.Stations()
	var withSum, withoutSum int64
	checked := 0
	for _, target := range transfers {
		for src := 0; src < g.TT.NumStations() && checked < 12; src += 17 {
			s := timetable.StationID(src)
			if s == target || table.IsTransfer(s) {
				continue // transfer→transfer answers from the table directly
			}
			with, err := NewWorkspace().StationToStation(env, s, target, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			without, err := NewWorkspace().StationToStation(env, s, target, QueryOptions{DisableTargetPruning: true})
			if err != nil {
				t.Fatal(err)
			}
			pw, err1 := with.Profile()
			po, err2 := without.Profile()
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			for tau := timeutil.Ticks(0); tau < 1440; tau += 97 {
				a, b := pw.EvalArrival(tau), po.EvalArrival(tau)
				if a != b && !(a.IsInf() && b.IsInf()) {
					t.Fatalf("target pruning changed answer %d→%d at τ=%d: %d vs %d", s, target, tau, a, b)
				}
			}
			withSum += with.Run.Total.SettledConns
			withoutSum += without.Run.Total.SettledConns
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no suitable source/target pairs")
	}
	if withSum > withoutSum {
		t.Errorf("target pruning increased work: %d vs %d over %d queries", withSum, withoutSum, checked)
	}
	t.Logf("target pruning: %d vs %d settled over %d queries (%.0f%%)",
		withSum, withoutSum, checked, 100*float64(withSum)/float64(withoutSum))
}

// The distance table must satisfy the triangle inequality through any
// intermediate transfer station *when the change at B pays the transfer
// time T(B)*: D(A,C,τ) ≤ D(B,C, D(A,B,τ) + T(B)). (Without T(B) the
// composition describes an impossible zero-time change and may legally
// beat the direct profile — D excludes transfer times at its endpoints by
// definition, cf. Section 4.)
func TestDistanceTableTriangleInequality(t *testing.T) {
	_, g, table := railEnv(t, 0.15, 0.2)
	ts := table.Stations()
	if len(ts) < 3 {
		t.Skip("too few transfer stations")
	}
	for ai := 0; ai < len(ts); ai += 2 {
		for bi := 0; bi < len(ts); bi += 3 {
			for ci := 0; ci < len(ts); ci += 2 {
				a, b, c := ts[ai], ts[bi], ts[ci]
				if a == b || b == c || a == c {
					continue
				}
				tb := g.TT.Stations[b].Transfer
				for tau := timeutil.Ticks(300); tau < 1440; tau += 420 {
					direct := table.D(a, c, tau)
					viaB := table.D(a, b, tau)
					if !viaB.IsInf() {
						viaB = table.D(b, c, viaB+tb)
					}
					if viaB < direct {
						t.Fatalf("triangle violated: D(%d,%d,%d)=%d but via %d (with T=%d) gives %d",
							a, c, tau, direct, b, tb, viaB)
					}
				}
			}
		}
	}
}

// The stopping criterion's packed atomic state must behave correctly at
// the boundaries.
func TestStopStatePacking(t *testing.T) {
	var s stopState
	if s.shouldPrune(0, 0) {
		t.Fatal("empty state pruned")
	}
	s.observeTargetSettle(5, 700)
	if !s.shouldPrune(5, 700) || !s.shouldPrune(3, 800) {
		t.Fatal("dominated entries not pruned")
	}
	if s.shouldPrune(5, 699) {
		t.Fatal("earlier-arriving entry pruned")
	}
	if s.shouldPrune(6, 900) {
		t.Fatal("higher connection index pruned")
	}
	// Lower index never overwrites.
	s.observeTargetSettle(2, 100)
	if s.shouldPrune(4, 650) {
		t.Fatal("state regressed to lower index")
	}
	// Higher index replaces.
	s.observeTargetSettle(9, 1200)
	if !s.shouldPrune(8, 1300) {
		t.Fatal("updated state not applied")
	}
	// Large arrival values (near Infinity) survive the 32-bit packing.
	var s2 stopState
	s2.observeTargetSettle(1, timeutil.Infinity-1)
	if !s2.shouldPrune(0, timeutil.Infinity) {
		t.Fatal("large arrival broken by packing")
	}
	if s2.shouldPrune(0, 100) {
		t.Fatal("small key pruned against large arrival")
	}
}

// Local queries must skip table pruning entirely but still finish with
// correct answers (covered) and the stopping criterion active.
func TestLocalQueryUsesStoppingOnly(t *testing.T) {
	env, g, table := railEnv(t, 0.2, 0.1)
	isTransfer := make([]bool, g.TT.NumStations())
	for _, s := range table.Stations() {
		isTransfer[s] = true
	}
	sg := env.StationGraph
	for dst := 0; dst < g.TT.NumStations(); dst++ {
		if isTransfer[dst] {
			continue
		}
		v := sg.ComputeVias(timetable.StationID(dst), isTransfer)
		if len(v.Local) == 0 {
			continue
		}
		src := v.Local[0]
		res, err := NewWorkspace().StationToStation(env, src, timetable.StationID(dst), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Local {
			t.Fatalf("%d→%d should be local", src, dst)
		}
		noStop, err := NewWorkspace().StationToStation(env, src, timetable.StationID(dst), QueryOptions{DisableStoppingCriterion: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Run.Total.SettledConns > noStop.Run.Total.SettledConns {
			t.Fatalf("stopping criterion inactive on local query: %d vs %d",
				res.Run.Total.SettledConns, noStop.Run.Total.SettledConns)
		}
		return
	}
	t.Skip("no local pair found")
}

// TestPruneMemoExact checks that the prune memo only saves look-ups: on a
// rail and a bus network with contraction-selected tables, every sampled
// profile and point query answers the same and counts the same work with
// the memo as without it, one workspace reused across the queries each.
func TestPruneMemoExact(t *testing.T) {
	rail, _, _ := railEnv(t, 0.25, 0.15)
	cfg, err := gen.FamilyConfig(gen.LosAngeles, 0.08, 5)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bg, bsg := graph.Build(tt), stationgraph.Build(tt)
	pre, err := BuildDistanceTable(bg, bsg.SelectByContraction(tt.NumStations()/10), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	bus := QueryEnv{Graph: bg, StationGraph: bsg, Table: pre.Table}
	for name, env := range map[string]QueryEnv{"rail": rail, "bus": bus} {
		ws, noMemo := NewWorkspace(), NewWorkspace()
		noMemo.noMemo = true
		ns := env.Graph.NumStations()
		pruned := 0
		for q := 0; q < 40; q++ {
			src, dst := timetable.StationID(q*7%ns), timetable.StationID((q*13+5)%ns)
			for _, depart := range []timeutil.Ticks{wholePeriod, timeutil.Ticks(q * 37 % 1440)} {
				a, err := ws.stationQuery(env, src, dst, depart, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if ws.s2q.table != nil {
					pruned++
				}
				arr, run := append([]timeutil.Ticks(nil), a.ArrT...), a.Run.Total
				b, err := noMemo.stationQuery(env, src, dst, depart, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				sameTicks(t, name+" ArrT", arr, b.ArrT)
				if run != b.Run.Total {
					t.Fatalf("%s %d → %d at %d: %v with the memo, %v without", name, src, dst, depart, run, b.Run.Total)
				}
			}
		}
		if pruned < 20 {
			t.Fatalf("%s: only %d of 80 queries pruned by the table", name, pruned)
		}
	}
}
