package core

import (
	"fmt"
	"time"

	"transit/internal/graph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// TimeQueryResult holds dist(S, ·, τ) for one departure time: the earliest
// absolute arrival time at every station. The arrivals are the one-to-all
// search's numStations × 1 store, workspace memory valid until the next
// query on the same workspace.
type TimeQueryResult struct {
	Source timetable.StationID
	Depart timeutil.Ticks
	Run    stats.Run

	arr []timeutil.Ticks
}

// StationArrival returns the earliest arrival at a station (Infinity when
// the search did not reach it — or, after TimeQueryTo, did not need to).
func (r *TimeQueryResult) StationArrival(s timetable.StationID) timeutil.Ticks {
	return r.arr[s]
}

// TimeQuery computes dist(S, ·, τ), the time-query of Section 2: nodes are
// visited in non-decreasing arrival time from the source, and the
// label-setting property guarantees each node is settled at most once.
//
// Initialization matches the profile search convention: the station node of
// S and every route node at S are seeded at τ, so no transfer time is paid
// for boarding the first train.
//
// The steady state allocates nothing. The result borrows workspace memory
// and is valid until the next query on this workspace.
func (ws *Workspace) TimeQuery(g *graph.Graph, source timetable.StationID, depart timeutil.Ticks, opts Options) (*TimeQueryResult, error) {
	return ws.TimeQueryTo(g, source, depart, nil, opts)
}

// TimeQueryTo is TimeQuery with a target set: the search stops when the
// last of the target stations settles, and only their arrivals (and those
// of whatever settled before them) are final. A nil or empty set searches
// the whole graph. Out-of-range targets are the caller's bug and panic.
//
// It is the k = 1 case of the one-to-all search (spcsWorker.run): one
// virtual connection leaving S at τ, searched by one worker whatever
// opts.Threads says.
func (ws *Workspace) TimeQueryTo(g *graph.Graph, source timetable.StationID, depart timeutil.Ticks, targets []timetable.StationID, opts Options) (*TimeQueryResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if int(source) < 0 || int(source) >= g.TT.NumStations() {
		return nil, fmt.Errorf("core: source station %d out of range", source)
	}
	if depart < 0 || depart.IsInf() {
		return nil, fmt.Errorf("core: departure time %d out of range [0, %d)", depart, timeutil.Infinity)
	}
	if cancelled(opts.Done) {
		return nil, ErrCancelled
	}
	start := time.Now()
	gen := ws.begin()
	ws.ensureLabels(g.NumStations(), 0, false)
	ws.deps = append(ws.deps[:0], depart)
	pres := &ws.pres
	*pres = ProfileResult{Source: source, Deps: ws.deps, g: g, arr: ws.arr, gen: gen}
	ws.bounds = append(ws.bounds[:0], 0, 1) // one connection, one worker
	workers := ws.spcsWorkers(spcsWorker{g: g, res: pres, opts: opts, limit: timeutil.Infinity})
	w := &workers[0]
	if len(targets) > 0 {
		ws.nodeSetGen = grow(ws.nodeSetGen, g.NumStations())
		for _, t := range targets {
			if ws.nodeSetGen[t] != gen {
				ws.nodeSetGen[t] = gen
				w.open++
			}
		}
		w.targets = ws.nodeSetGen
	}
	res := &ws.tres
	*res = TimeQueryResult{Source: source, Depart: depart, arr: ws.arr}
	if err := runWorkers(ws, workers, &res.Run); err != nil {
		return nil, err
	}
	res.Run.Elapsed = time.Since(start)
	opts.Effort.Observe(&res.Run)
	return res, nil
}
