// Package bench implements the experiment harness that regenerates the
// paper's evaluation (Section 5): Table 1 (one-to-all profile queries,
// connection-setting vs. label-correcting, 1–8 cores) and Table 2
// (station-to-station queries pruned by distance tables of varying size),
// plus the four ablations (partition strategy, self-pruning, stopping
// criterion, Pareto extension). The harness is shared by cmd/tpbench, the
// testing.B benchmarks, and the shape-assertion tests in
// experiments_test.go. It measures the search kernel in-process only; a
// live tpserver under load is measured by the separate benchmark/ module.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"transit/internal/core"
	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// Network bundles everything the experiments need about one input.
type Network struct {
	Family string
	TT     *timetable.Timetable
	G      *graph.Graph
	SG     *stationgraph.Graph
}

// Load generates and prepares one synthetic network family.
func Load(family string, scale float64, seed int64) (*Network, error) {
	cfg, err := gen.FamilyConfig(gen.Family(family), scale, seed)
	if err != nil {
		return nil, err
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &Network{
		Family: family,
		TT:     tt,
		G:      graph.Build(tt),
		SG:     stationgraph.Build(tt),
	}, nil
}

// Families returns the family names in the paper's table order.
func Families() []string {
	fams := gen.Families()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = string(f)
	}
	return out
}

// randomSources draws n random source stations, reproducibly.
func randomSources(net *Network, n int, seed int64) []timetable.StationID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]timetable.StationID, n)
	for i := range out {
		out[i] = timetable.StationID(rng.Intn(net.TT.NumStations()))
	}
	return out
}

// randomPairs draws n random distinct station pairs, reproducibly.
func randomPairs(net *Network, n int, seed int64) [][2]timetable.StationID {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]timetable.StationID, 0, n)
	for len(out) < n {
		s := timetable.StationID(rng.Intn(net.TT.NumStations()))
		t := timetable.StationID(rng.Intn(net.TT.NumStations()))
		if s != t {
			out = append(out, [2]timetable.StationID{s, t})
		}
	}
	return out
}

// T1Row is one line of Table 1.
type T1Row struct {
	Family string
	Algo   string // "CS" or "LC"
	P      int    // cores (threads); 1 for LC
	// MeanSettled is the average settled connections per query (sum over
	// all cores), the paper's "Settled Conns" column.
	MeanSettled float64
	// MeanTimeMS is the average wall-clock query time.
	MeanTimeMS float64
	// SpeedUp is wall-clock speed-up over the p=1 CS row.
	SpeedUp float64
	// IdealSpeedUp is the machine-independent work speed-up: sequential
	// settled work divided by the mean critical-path (max per-thread) work.
	// On hardware with ≥p cores, wall-clock speed-up approaches this.
	IdealSpeedUp float64
}

// Table1 runs the one-to-all experiment: CS on each thread count in ps,
// plus the label-correcting baseline when includeLC is set.
func Table1(net *Network, ps []int, numQueries int, seed int64, includeLC bool) ([]T1Row, error) {
	sources := randomSources(net, numQueries, seed)
	var rows []T1Row
	var seqAgg *stats.Aggregate
	ws := core.GetWorkspace() // one reused workspace for the whole table
	defer core.PutWorkspace(ws)
	for _, p := range ps {
		agg := &stats.Aggregate{}
		for _, src := range sources {
			res, err := ws.OneToAll(net.G, src, core.Options{Threads: p})
			if err != nil {
				return nil, err
			}
			agg.Observe(&res.Run)
		}
		row := T1Row{
			Family:      net.Family,
			Algo:        "CS",
			P:           p,
			MeanSettled: agg.MeanSettled(),
			MeanTimeMS:  float64(agg.MeanElapsed().Microseconds()) / 1000,
		}
		if seqAgg == nil {
			seqAgg = agg
		}
		row.SpeedUp = safeDiv(float64(seqAgg.MeanElapsed().Microseconds()), float64(agg.MeanElapsed().Microseconds()))
		row.IdealSpeedUp = safeDiv(seqAgg.MeanSettled(), agg.MeanMaxThreadSettled())
		rows = append(rows, row)
	}
	if includeLC {
		agg := &stats.Aggregate{}
		for _, src := range sources {
			res, err := core.LabelCorrecting(net.G, src, core.Options{})
			if err != nil {
				return nil, err
			}
			agg.Observe(&res.Run)
		}
		rows = append(rows, T1Row{
			Family:       net.Family,
			Algo:         "LC",
			P:            1,
			MeanSettled:  agg.MeanSettled(),
			MeanTimeMS:   float64(agg.MeanElapsed().Microseconds()) / 1000,
			SpeedUp:      safeDiv(float64(seqAgg.MeanElapsed().Microseconds()), float64(agg.MeanElapsed().Microseconds())),
			IdealSpeedUp: 1,
		})
	}
	return rows, nil
}

// Selection names one transfer-station selection of Table 2.
type Selection struct {
	Label string
	// Fraction > 0 selects by contraction to that fraction of stations;
	// MinDegree > 0 selects by station-graph degree. Both zero means "no
	// distance table" (the 0.0% row: stopping criterion only).
	Fraction  float64
	MinDegree int
}

// PaperSelections returns the Table 2 selections: 0%, 1%, 2.5%, 5%, 10%,
// 20% and deg > 2. (The paper's 30% row appears only for Oahu; include it
// with full=true.)
func PaperSelections(full bool) []Selection {
	sels := []Selection{
		{Label: "0.0%"},
		{Label: "1.0%", Fraction: 0.01},
		{Label: "2.5%", Fraction: 0.025},
		{Label: "5.0%", Fraction: 0.05},
		{Label: "10.0%", Fraction: 0.10},
		{Label: "20.0%", Fraction: 0.20},
	}
	if full {
		sels = append(sels, Selection{Label: "30.0%", Fraction: 0.30})
	}
	sels = append(sels, Selection{Label: "deg > 2", MinDegree: 2})
	return sels
}

// T2Row is one line of Table 2.
type T2Row struct {
	Family    string
	Selection string
	// Preprocessing cost.
	Transfer   int
	PreproTime time.Duration
	TableMiB   float64
	// Query performance.
	MeanSettled float64
	MeanTimeMS  float64
	// SpeedUp is work speed-up over the 0.0% row (stopping criterion only),
	// the paper's Spd column. Work-based rather than wall-clock so the
	// figure is meaningful on any host.
	SpeedUp float64
	// TimeSpeedUp is the wall-clock variant of SpeedUp.
	TimeSpeedUp float64
	// AllocsPerQuery is the steady-state heap allocations per query when
	// the queries run on a reused workspace — the figure the workspace
	// subsystem exists to drive to zero.
	AllocsPerQuery float64
	// UpdatesPerSec is the dynamic-update throughput of the incremental
	// patch path (Timetable.Patch + Graph.PatchTimes) for a ~100-connection
	// delay batch — the fully dynamic scenario of the paper's conclusion.
	// Selection-independent (updates drop the distance table), so the value
	// repeats on every row of a family.
	UpdatesPerSec float64
}

// updateBatchConns is the delay-batch size MeasureUpdates targets in
// Table 2, matching the batch BenchmarkApplyUpdates times.
const updateBatchConns = 100

// delayBatch builds a ConnUpdate batch of at least want connections (whole
// trains in ID order, so per-train schedules stay consistent), each shifted
// delta ticks.
func delayBatch(tt *timetable.Timetable, want int, delta timeutil.Ticks) ([]timetable.ConnUpdate, []timetable.ConnID) {
	var updates []timetable.ConnUpdate
	var touched []timetable.ConnID
	for z := 0; z < tt.NumTrains() && len(updates) < want; z++ {
		for _, id := range tt.TrainConnections(timetable.TrainID(z)) {
			c := tt.Connections[id]
			dep := tt.Period.Wrap(c.Dep + delta)
			updates = append(updates, timetable.ConnUpdate{ID: id, Dep: dep, Arr: dep + c.Duration()})
			touched = append(touched, id)
		}
	}
	return updates, touched
}

// MeasureUpdates times the incremental patch path applying a delay batch of
// roughly batchConns connections against the network, returning achieved
// updates (snapshot swaps) per second. Each repetition patches the original
// timetable, mirroring a registry that applies independent delay feeds.
func MeasureUpdates(net *Network, batchConns int) (float64, error) {
	updates, touched := delayBatch(net.TT, batchConns, 7)
	if len(updates) == 0 {
		return 0, nil
	}
	reps := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond || reps < 3 {
		ntt, err := net.TT.Patch(updates)
		if err != nil {
			return 0, err
		}
		if _, err := net.G.PatchTimes(ntt, touched); err != nil {
			return 0, err
		}
		reps++
	}
	return float64(reps) / time.Since(start).Seconds(), nil
}

// Table2 runs the station-to-station experiment over the given selections.
func Table2(net *Network, sels []Selection, numQueries, threads int, seed int64) ([]T2Row, error) {
	pairs := randomPairs(net, numQueries, seed)
	updPerSec, err := MeasureUpdates(net, updateBatchConns)
	if err != nil {
		return nil, err
	}
	var rows []T2Row
	var base *T2Row
	for _, sel := range sels {
		env := core.QueryEnv{Graph: net.G}
		row := T2Row{Family: net.Family, Selection: sel.Label, UpdatesPerSec: updPerSec}
		if sel.Fraction > 0 || sel.MinDegree > 0 {
			var marked []bool
			if sel.MinDegree > 0 {
				marked = net.SG.SelectByDegree(sel.MinDegree)
			} else {
				keep := int(float64(net.TT.NumStations()) * sel.Fraction)
				if keep < 1 {
					keep = 1
				}
				marked = net.SG.SelectByContraction(keep)
			}
			pre, err := core.BuildDistanceTable(net.G, marked, core.Options{Threads: threads}, 1)
			if err != nil {
				return nil, err
			}
			env.StationGraph = net.SG
			env.Table = pre.Table
			row.Transfer = pre.Table.NumTransfer()
			row.PreproTime = pre.Elapsed
			row.TableMiB = float64(pre.SizeBytes) / (1 << 20)
		}
		// Queries run on one reused workspace, matching the paper's
		// per-thread data-structure reuse; the warm-up query grows the
		// arrays so the measured loop is the steady state.
		ws := core.GetWorkspace()
		if _, err := ws.StationToStation(env, pairs[0][0], pairs[0][1], core.QueryOptions{Options: core.Options{Threads: threads}}); err != nil {
			core.PutWorkspace(ws)
			return nil, err
		}
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		agg := &stats.Aggregate{}
		for _, pr := range pairs {
			res, err := ws.StationToStation(env, pr[0], pr[1], core.QueryOptions{Options: core.Options{Threads: threads}})
			if err != nil {
				core.PutWorkspace(ws)
				return nil, err
			}
			agg.Observe(&res.Run)
		}
		runtime.ReadMemStats(&msAfter)
		core.PutWorkspace(ws)
		row.AllocsPerQuery = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(len(pairs))
		row.MeanSettled = agg.MeanSettled()
		row.MeanTimeMS = float64(agg.MeanElapsed().Microseconds()) / 1000
		if base == nil {
			b := row
			base = &b
			row.SpeedUp = 1
			row.TimeSpeedUp = 1
		} else {
			row.SpeedUp = safeDiv(base.MeanSettled, row.MeanSettled)
			row.TimeSpeedUp = safeDiv(base.MeanTimeMS, row.MeanTimeMS)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PrintTable1 renders Table 1 rows in the paper's layout.
func PrintTable1(w io.Writer, rows []T1Row) {
	fmt.Fprintf(w, "%-12s %-4s %2s %14s %10s %6s %9s\n",
		"network", "algo", "p", "settled conns", "time [ms]", "spd", "ideal-spd")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-4s %2d %14.0f %10.1f %6.1f %9.1f\n",
			r.Family, r.Algo, r.P, r.MeanSettled, r.MeanTimeMS, r.SpeedUp, r.IdealSpeedUp)
	}
}

// PrintTable2 renders Table 2 rows in the paper's layout, extended with the
// dynamic-update column upd/s (timetable+graph patch only).
func PrintTable2(w io.Writer, rows []T2Row) {
	fmt.Fprintf(w, "%-12s %-8s %6s %10s %9s %14s %10s %6s %8s %10s %8s\n",
		"network", "sel", "|T|", "prepro", "size MiB", "settled conns", "time [ms]", "spd", "t-spd", "allocs/q", "upd/s")
	for _, r := range rows {
		prepro := "—"
		if r.PreproTime > 0 {
			prepro = r.PreproTime.Round(10 * time.Millisecond).String()
		}
		fmt.Fprintf(w, "%-12s %-8s %6d %10s %9.1f %14.0f %10.1f %6.1f %8.1f %10.1f %8.0f\n",
			r.Family, r.Selection, r.Transfer, prepro, r.TableMiB, r.MeanSettled, r.MeanTimeMS, r.SpeedUp, r.TimeSpeedUp, r.AllocsPerQuery, r.UpdatesPerSec)
	}
}
