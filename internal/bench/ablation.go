package bench

import (
	"fmt"
	"io"

	"transit/internal/core"
	"transit/internal/stats"
)

// AblationRow is one configuration of an ablation experiment.
type AblationRow struct {
	Family      string
	Config      string
	MeanSettled float64
	MeanTimeMS  float64
	// Imbalance is max/min chunk work across threads (partition ablation
	// only; 0 elsewhere). Closer to 1 is better.
	Imbalance float64
}

// AblationPartition compares the three partition strategies of Section 3.2
// at the given thread count: per-thread work balance and query performance.
func AblationPartition(net *Network, threads, numQueries int, seed int64) ([]AblationRow, error) {
	sources := randomSources(net, numQueries, seed)
	var rows []AblationRow
	for _, strat := range []core.PartitionStrategy{core.EqualConnections, core.EqualTimeSlots, core.KMeans} {
		agg := &stats.Aggregate{}
		var maxW, minW float64
		for _, src := range sources {
			res, err := core.NewWorkspace().OneToAll(net.G, src, core.Options{Threads: threads, Partition: strat})
			if err != nil {
				return nil, err
			}
			agg.Observe(&res.Run)
			lo, hi := int64(1<<62), int64(0)
			for _, t := range res.Run.PerThread {
				if t.SettledConns < lo {
					lo = t.SettledConns
				}
				if t.SettledConns > hi {
					hi = t.SettledConns
				}
			}
			maxW += float64(hi)
			minW += float64(lo)
		}
		imb := 0.0
		if minW > 0 {
			imb = maxW / minW
		}
		rows = append(rows, AblationRow{
			Family:      net.Family,
			Config:      strat.String(),
			MeanSettled: agg.MeanSettled(),
			MeanTimeMS:  float64(agg.MeanElapsed().Microseconds()) / 1000,
			Imbalance:   imb,
		})
	}
	return rows, nil
}

// AblationSelfPruning quantifies Theorem 1: settled connections with and
// without self-pruning, sequentially.
func AblationSelfPruning(net *Network, numQueries int, seed int64) ([]AblationRow, error) {
	sources := randomSources(net, numQueries, seed)
	var rows []AblationRow
	for _, disable := range []bool{false, true} {
		label := "self-pruning on"
		if disable {
			label = "self-pruning off"
		}
		agg := &stats.Aggregate{}
		for _, src := range sources {
			res, err := core.NewWorkspace().OneToAll(net.G, src, core.Options{DisableSelfPruning: disable})
			if err != nil {
				return nil, err
			}
			agg.Observe(&res.Run)
		}
		rows = append(rows, AblationRow{
			Family:      net.Family,
			Config:      label,
			MeanSettled: agg.MeanSettled(),
			MeanTimeMS:  float64(agg.MeanElapsed().Microseconds()) / 1000,
		})
	}
	return rows, nil
}

// AblationStopping quantifies Theorem 2 on station-to-station queries
// without a distance table.
func AblationStopping(net *Network, numQueries int, seed int64) ([]AblationRow, error) {
	pairs := randomPairs(net, numQueries, seed)
	env := core.QueryEnv{Graph: net.G}
	var rows []AblationRow
	for _, disable := range []bool{false, true} {
		label := "stopping criterion on"
		if disable {
			label = "stopping criterion off"
		}
		agg := &stats.Aggregate{}
		for _, pr := range pairs {
			ws := core.GetWorkspace()
			res, err := ws.StationToStation(env, pr[0], pr[1],
				core.QueryOptions{DisableStoppingCriterion: disable})
			if err != nil {
				core.PutWorkspace(ws)
				return nil, err
			}
			agg.Observe(&res.Run)
			core.PutWorkspace(ws)
		}
		rows = append(rows, AblationRow{
			Family:      net.Family,
			Config:      label,
			MeanSettled: agg.MeanSettled(),
			MeanTimeMS:  float64(agg.MeanElapsed().Microseconds()) / 1000,
		})
	}
	return rows, nil
}

// PrintAblation renders ablation rows.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "%s\n%-12s %-24s %14s %10s %10s\n", title,
		"network", "config", "settled conns", "time [ms]", "imbalance")
	for _, r := range rows {
		imb := "—"
		if r.Imbalance > 0 {
			imb = fmt.Sprintf("%.2f", r.Imbalance)
		}
		fmt.Fprintf(w, "%-12s %-24s %14.0f %10.1f %10s\n",
			r.Family, r.Config, r.MeanSettled, r.MeanTimeMS, imb)
	}
}

// AblationPareto measures the cost of the multi-criteria extension as the
// transfer budget grows, relative to the single-criterion search.
func AblationPareto(net *Network, budgets []int, numQueries int, seed int64) ([]AblationRow, error) {
	sources := randomSources(net, numQueries, seed)
	base := &stats.Aggregate{}
	for _, src := range sources {
		res, err := core.NewWorkspace().OneToAll(net.G, src, core.Options{})
		if err != nil {
			return nil, err
		}
		base.Observe(&res.Run)
	}
	rows := []AblationRow{{
		Family:      net.Family,
		Config:      "single-criterion",
		MeanSettled: base.MeanSettled(),
		MeanTimeMS:  float64(base.MeanElapsed().Microseconds()) / 1000,
	}}
	for _, u := range budgets {
		agg := &stats.Aggregate{}
		for _, src := range sources {
			res, err := core.OneToAllPareto(net.G, src, u, core.Options{})
			if err != nil {
				return nil, err
			}
			agg.Observe(&res.Run)
		}
		rows = append(rows, AblationRow{
			Family:      net.Family,
			Config:      fmt.Sprintf("pareto ≤%d transfers", u),
			MeanSettled: agg.MeanSettled(),
			MeanTimeMS:  float64(agg.MeanElapsed().Microseconds()) / 1000,
		})
	}
	return rows, nil
}
