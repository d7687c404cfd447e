package core

import (
	"math/rand"
	"testing"

	"transit/internal/dtable"
	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// queryFixture bundles a generated network with its station graph and a
// contraction-selected distance table.
type queryFixture struct {
	g     *graph.Graph
	sg    *stationgraph.Graph
	table *dtable.Table
	env   QueryEnv
}

func buildFixture(t *testing.T, fam gen.Family, scale float64, seed int64, transferFrac float64) *queryFixture {
	t.Helper()
	cfg, err := gen.FamilyConfig(fam, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	sg := stationgraph.Build(tt)
	keep := int(float64(tt.NumStations()) * transferFrac)
	if keep < 2 {
		keep = 2
	}
	marked := sg.SelectByContraction(keep)
	pre, err := BuildDistanceTable(g, marked, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &queryFixture{
		g:     g,
		sg:    sg,
		table: pre.Table,
		env:   QueryEnv{Graph: g, StationGraph: sg, Table: pre.Table},
	}
}

// checkAgainstOneToAll verifies that the s2s profile equals the one-to-all
// station profile at every sampled departure time.
func checkAgainstOneToAll(t *testing.T, fx *queryFixture, src, dst timetable.StationID, opts QueryOptions, label string) *StationQueryResult {
	t.Helper()
	res, err := NewWorkspace().StationToStation(fx.env, src, dst, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref, err := NewWorkspace().OneToAll(fx.g, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.StationProfile(dst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Profile()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for tau := timeutil.Ticks(0); tau < 1440; tau += 53 {
		if got.EvalArrival(tau) != want.EvalArrival(tau) {
			t.Fatalf("%s: %d→%d profile differs at τ=%d: got %d want %d (local=%v tableHit=%v)",
				label, src, dst, tau, got.EvalArrival(tau), want.EvalArrival(tau), res.Local, res.TableHit)
		}
	}
	return res
}

func TestStationToStationAgreesEverywhere(t *testing.T) {
	fx := buildFixture(t, gen.Oahu, 0.05, 17, 0.10)
	ns := fx.g.TT.NumStations()
	rng := rand.New(rand.NewSource(99))
	variants := []struct {
		name string
		opts QueryOptions
	}{
		{"all-prunings", QueryOptions{}},
		{"no-stop", QueryOptions{DisableStoppingCriterion: true}},
		{"no-table", QueryOptions{DisableTablePruning: true}},
		{"no-target-pruning", QueryOptions{DisableTargetPruning: true}},
		{"parallel-4", QueryOptions{Options: Options{Threads: 4}}},
		{"parallel-4-no-stop", QueryOptions{Options: Options{Threads: 4}, DisableStoppingCriterion: true}},
	}
	for trial := 0; trial < 6; trial++ {
		src := timetable.StationID(rng.Intn(ns))
		dst := timetable.StationID(rng.Intn(ns))
		if src == dst {
			continue
		}
		for _, v := range variants {
			checkAgainstOneToAll(t, fx, src, dst, v.opts, v.name)
		}
	}
}

func TestStationToStationTransferEndpoints(t *testing.T) {
	fx := buildFixture(t, gen.Washington, 0.04, 23, 0.15)
	transfers := fx.table.Stations()
	if len(transfers) < 2 {
		t.Fatal("fixture has too few transfer stations")
	}
	// Both endpoints transfer stations → TableHit path.
	res := checkAgainstOneToAll(t, fx, transfers[0], transfers[len(transfers)-1], QueryOptions{}, "table-hit")
	if !res.TableHit {
		t.Error("expected TableHit for transfer→transfer query")
	}
	if res.Run.Total.SettledConns != 0 {
		t.Error("TableHit must not run a search")
	}
	// Target is a transfer station, source is not → target pruning path.
	var src timetable.StationID = -1
	for s := 0; s < fx.g.TT.NumStations(); s++ {
		if !fx.table.IsTransfer(timetable.StationID(s)) {
			src = timetable.StationID(s)
			break
		}
	}
	if src < 0 {
		t.Skip("all stations are transfer stations")
	}
	res = checkAgainstOneToAll(t, fx, src, transfers[0], QueryOptions{}, "target-transfer")
	if res.TableHit {
		t.Error("unexpected TableHit")
	}
}

func TestStationToStationLocalQuery(t *testing.T) {
	fx := buildFixture(t, gen.Germany, 0.06, 31, 0.08)
	// Find a local pair: a non-transfer target with a non-empty local set.
	isTransfer := make([]bool, fx.g.TT.NumStations())
	for _, s := range fx.table.Stations() {
		isTransfer[s] = true
	}
	for dst := 0; dst < fx.g.TT.NumStations(); dst++ {
		if isTransfer[dst] {
			continue
		}
		v := fx.sg.ComputeVias(timetable.StationID(dst), isTransfer)
		if len(v.Local) == 0 {
			continue
		}
		src := v.Local[0]
		res := checkAgainstOneToAll(t, fx, src, timetable.StationID(dst), QueryOptions{}, "local")
		if !res.Local {
			t.Fatalf("query %d→%d should be local", src, dst)
		}
		return
	}
	t.Skip("no local pair found in fixture")
}

// The stopping criterion must reduce work relative to a full one-to-all.
func TestStoppingCriterionReducesWork(t *testing.T) {
	fx := buildFixture(t, gen.Oahu, 0.06, 7, 0.05)
	ns := fx.g.TT.NumStations()
	env := QueryEnv{Graph: fx.g} // no table: isolate the stopping criterion
	rng := rand.New(rand.NewSource(5))
	var with, without int64
	for trial := 0; trial < 5; trial++ {
		src := timetable.StationID(rng.Intn(ns))
		dst := timetable.StationID(rng.Intn(ns))
		if src == dst {
			continue
		}
		a, err := NewWorkspace().StationToStation(env, src, dst, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewWorkspace().StationToStation(env, src, dst, QueryOptions{DisableStoppingCriterion: true})
		if err != nil {
			t.Fatal(err)
		}
		with += a.Run.Total.SettledConns
		without += b.Run.Total.SettledConns
	}
	if with >= without {
		t.Fatalf("stopping criterion did not reduce settled connections: %d vs %d", with, without)
	}
	t.Logf("stopping criterion: %d settled vs %d without (%.0f%%)", with, without, 100*float64(with)/float64(without))
}

// Distance-table pruning must further reduce work on global queries. Rail
// topologies at moderate scale have genuinely separated regions, so via
// stations actually separate sources from targets.
func TestTablePruningReducesWork(t *testing.T) {
	fx := buildFixture(t, gen.Germany, 0.30, 13, 0.08)
	ns := fx.g.TT.NumStations()
	rng := rand.New(rand.NewSource(6))
	var with, without int64
	trials := 0
	for trials < 8 {
		src := timetable.StationID(rng.Intn(ns))
		dst := timetable.StationID(rng.Intn(ns))
		if src == dst {
			continue
		}
		a, err := NewWorkspace().StationToStation(fx.env, src, dst, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Local || a.TableHit {
			continue // only global searched queries are informative
		}
		b, err := NewWorkspace().StationToStation(fx.env, src, dst, QueryOptions{DisableTablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		with += a.Run.Total.SettledConns
		without += b.Run.Total.SettledConns
		trials++
	}
	if with >= without {
		t.Fatalf("table pruning did not reduce settled connections: %d vs %d", with, without)
	}
	t.Logf("table pruning: %d settled vs %d without (%.0f%%)", with, without, 100*float64(with)/float64(without))
}

func TestStationToStationErrors(t *testing.T) {
	fx := buildFixture(t, gen.Oahu, 0.04, 3, 0.1)
	if _, err := NewWorkspace().StationToStation(QueryEnv{}, 0, 1, QueryOptions{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewWorkspace().StationToStation(QueryEnv{Graph: fx.g, Table: fx.table}, 0, 1, QueryOptions{}); err == nil {
		t.Error("table without station graph accepted")
	}
	if _, err := NewWorkspace().StationToStation(fx.env, -1, 1, QueryOptions{}); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := NewWorkspace().StationToStation(fx.env, 0, 99999, QueryOptions{}); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := NewWorkspace().StationToStation(fx.env, 0, 1, QueryOptions{Options: Options{Partition: PartitionStrategy(9)}}); err == nil {
		t.Error("bad partition strategy accepted")
	}
}

func TestEarliestArrivalSelf(t *testing.T) {
	fx := buildFixture(t, gen.Oahu, 0.04, 3, 0.1)
	res, err := NewWorkspace().StationToStation(fx.env, 2, 2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.EarliestArrival(500); got != 500 {
		t.Fatalf("self query EarliestArrival = %d, want 500", got)
	}
}
