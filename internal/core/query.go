package core

import (
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"

	"transit/internal/dtable"
	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
	"transit/internal/ttf"
)

// QueryEnv bundles the static data a station-to-station query runs against.
// Graph is mandatory; StationGraph and Table enable the Section 4 prunings
// when present (both must be set together).
type QueryEnv struct {
	Graph        *graph.Graph
	StationGraph *stationgraph.Graph
	Table        *dtable.Table
}

// QueryOptions extends Options with the Section 4 switches (all prunings
// are on whenever their prerequisites are available; the Disable* fields
// exist for ablations).
type QueryOptions struct {
	Options
	// DisableStoppingCriterion turns off Theorem 2 pruning.
	DisableStoppingCriterion bool
	// DisableTablePruning turns off Theorem 3 pruning even when a distance
	// table is present.
	DisableTablePruning bool
	// DisableTargetPruning turns off Theorem 4 pruning even when the
	// target is a transfer station.
	DisableTargetPruning bool
}

// StationQueryResult is the profile of an S–T station-to-station query:
// arr(T, i) for every outgoing connection i of S.
//
// Results borrow workspace memory (Conns, Deps, ArrT, Run.PerThread) and
// are valid until the next query on that workspace.
type StationQueryResult struct {
	Source timetable.StationID
	Target timetable.StationID
	// Conns and Deps describe conn(S) as in ProfileResult.
	Conns []timetable.ConnID
	Deps  []timeutil.Ticks
	// ArrT[i] is the arrival time at T when starting with connection i
	// (Infinity when pruned as useless or unreachable).
	ArrT []timeutil.Ticks
	// WalkOnly is the pure walking time from S to T over footpaths
	// (Infinity when not walkable).
	WalkOnly timeutil.Ticks
	// Local reports whether S ∈ local(T) (distance-table pruning skipped).
	Local bool
	// TableHit reports that both endpoints were transfer stations and the
	// result was read directly from the distance table without a search.
	TableHit bool
	Run      stats.Run

	period timeutil.Period
}

// Profile reduces ArrT into dist(S, T, ·).
func (r *StationQueryResult) Profile() (*ttf.Function, error) {
	return ttf.FromArrivals(r.period, r.Deps, r.ArrT)
}

// EarliestArrival evaluates the query profile for a departure at the
// absolute time at, walking all the way when that is faster.
func (r *StationQueryResult) EarliestArrival(at timeutil.Ticks) timeutil.Ticks {
	if r.Source == r.Target {
		return at
	}
	best := timeutil.Infinity
	if !r.WalkOnly.IsInf() {
		best = at + r.WalkOnly
	}
	f, err := r.Profile()
	if err != nil {
		return best
	}
	if a := f.EvalArrival(at); a < best {
		best = a
	}
	return best
}

// stopState is the shared stopping-criterion state (Theorem 2), packed for
// a single atomic word: upper 32 bits hold Tm+1 (0 = none yet), lower 32
// the arrival time arr(T, Tm) at which it was settled. Cross-thread use
// additionally compares keys against that arrival, which is what makes the
// sequential argument ("q was settled after q′") carry over to independent
// per-thread queues.
//
// Packing invariant: an arrival fits the lower half exactly because
// timeutil.Ticks is a 32-bit type (compile-time asserted below) and settled
// target arrivals are finite, hence in [0, Infinity] ⊂ [0, 2^31). Should
// Ticks ever widen, the compile-time assertion fails rather than letting
// arrivals silently truncate and corrupt Theorem 2 pruning near the 32-bit
// boundary; observeTargetSettle additionally saturates defensively.
var _ [1]struct{} = [4 - unsafe.Sizeof(timeutil.Ticks(0)) + 1]struct{}{}

type stopState struct {
	v atomic.Uint64
}

func (s *stopState) observeTargetSettle(i int, arr timeutil.Ticks) {
	// Saturate out-of-range arrivals (nothing meaningful ever exceeds
	// Infinity; negative arrivals cannot occur) so the packed word always
	// round-trips exactly.
	arr = max(0, min(arr, timeutil.Infinity))
	for {
		cur := s.v.Load()
		curIdx := int64(cur>>32) - 1
		if int64(i) <= curIdx {
			return
		}
		next := uint64(uint32(i+1))<<32 | uint64(uint32(arr))
		if s.v.CompareAndSwap(cur, next) {
			return
		}
	}
}

// shouldPrune reports whether entry (·, i) popped with the given key is
// dominated per Theorem 2.
func (s *stopState) shouldPrune(i int, key timeutil.Ticks) bool {
	cur := s.v.Load()
	curIdx := int64(cur>>32) - 1
	if curIdx < 0 || int64(i) > curIdx {
		return false
	}
	arr := timeutil.Ticks(int32(uint32(cur)))
	return key >= arr
}

// StationToStation answers an S–T profile query with the accelerations of
// Section 4: the stopping criterion, and — when env carries a station graph
// and distance table — pruning via the distance table for global queries
// plus target pruning when T is a transfer station.
//
// The steady state allocates nothing. The result borrows workspace memory
// and is valid until the next query on this workspace.
func (ws *Workspace) StationToStation(env QueryEnv, source, target timetable.StationID, opts QueryOptions) (*StationQueryResult, error) {
	return ws.stationQuery(env, source, target, wholePeriod, opts)
}

// EarliestArrival answers the S–T query for the single departure time
// depart: dist(S, T, τ), what TimeQuery(S, τ).StationArrival(T) returns,
// computed as the k = 1 case of the station-to-station search. Instead of
// conn(S) there is one virtual connection leaving at τ, seeded like the
// time-query's (spcsWorker.seed); it runs through the same loop and
// prunings as the profile query and returns the moment the target settles
// or target pruning closes the connection. Both endpoints transfer
// stations is one table look-up, as in the profile query.
//
// The result describes that virtual connection: Conns is empty, Deps[0] is
// depart and ArrT[0] the earliest arrival, pure walking included (Infinity
// when T is unreachable). It borrows workspace memory like every workspace
// query result, and the steady state allocates nothing.
func (ws *Workspace) EarliestArrival(env QueryEnv, source, target timetable.StationID, depart timeutil.Ticks, opts QueryOptions) (*StationQueryResult, error) {
	if depart < 0 || depart.IsInf() {
		return nil, fmt.Errorf("core: departure time %d out of range [0, %d)", depart, timeutil.Infinity)
	}
	return ws.stationQuery(env, source, target, depart, opts)
}

// wholePeriod is stationQuery's depart argument for the profile query; any
// value ≥ 0 asks for that one departure instead.
const wholePeriod timeutil.Ticks = -1

// stationQuery is the station-to-station search behind StationToStation
// (depart == wholePeriod: one label per connection of conn(S)) and
// EarliestArrival (depart ≥ 0: one virtual connection leaving at depart).
func (ws *Workspace) stationQuery(env QueryEnv, source, target timetable.StationID, depart timeutil.Ticks, opts QueryOptions) (*StationQueryResult, error) {
	g := env.Graph
	if g == nil {
		return nil, fmt.Errorf("core: QueryEnv.Graph is nil")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ns := g.TT.NumStations()
	if int(source) < 0 || int(source) >= ns || int(target) < 0 || int(target) >= ns {
		return nil, fmt.Errorf("core: invalid station pair (%d, %d)", source, target)
	}
	if (env.Table == nil) != (env.StationGraph == nil) {
		return nil, fmt.Errorf("core: StationGraph and Table must be provided together")
	}
	if cancelled(opts.Done) {
		return nil, ErrCancelled
	}
	start := time.Now()
	point := depart >= 0

	walk := ws.walkDistances(g.TT, source)
	var connIDs []timetable.ConnID
	ws.deps = append(ws.deps[:0], depart)
	deps := ws.deps
	if !point {
		connIDs, deps = ws.extendedConns(g.TT, source, walk)
	}
	res := &ws.sres
	*res = StationQueryResult{
		Source:   source,
		Target:   target,
		Conns:    connIDs,
		Deps:     deps,
		WalkOnly: distOrInf(walk, target),
		period:   g.TT.Period,
		ArrT:     grow(ws.sres.ArrT, len(deps)),
	}
	for i := range res.ArrT {
		res.ArrT[i] = timeutil.Infinity
	}

	useTable := env.Table != nil && !opts.DisableTablePruning
	var vias *stationgraph.Vias
	if env.Table != nil {
		// Both endpoints transfer stations: the table already holds all
		// best connections from S to T (Section 4, Special Cases).
		if env.Table.IsTransfer(source) && env.Table.IsTransfer(target) && !opts.DisableTablePruning {
			for i := range res.ArrT {
				res.ArrT[i] = env.Table.D(source, target, res.Deps[i])
			}
			if point {
				// A profile keeps the walk beside its connection points
				// (WalkOnly); the one arrival of a point query is their
				// minimum. D adds to a finite departure, so clamp.
				res.ArrT[0] = timeutil.Min(res.ArrT[0], timeutil.Infinity)
				if !res.WalkOnly.IsInf() {
					res.ArrT[0] = timeutil.Min(res.ArrT[0], depart+res.WalkOnly)
				}
			}
			res.TableHit = true
			res.Run.Elapsed = time.Since(start)
			res.Run.PerThread = ws.counters(1)
			opts.Effort.Observe(&res.Run)
			return res, nil
		}
		// Determine via(T) on the fly; the DFS also classifies the query.
		// The transfer marks are cached on the workspace keyed by table
		// identity and the DFS runs on the workspace's reusable Vias
		// scratch, so steady-state traffic against one table allocates
		// nothing here.
		vias = env.StationGraph.ComputeViasInto(&ws.vias, target, ws.transferMarks(env.Table, ns))
		res.Local = vias.IsLocalSource(source)
	}

	if point {
		ws.bounds = append(ws.bounds[:0], 0, 1) // one connection, one worker
	} else {
		ws.bounds = partitionInto(ws.bounds, res.Deps, g.TT.Period, opts.threads(), opts.Partition)
	}
	q := &ws.s2q
	*q = s2sQuery{ // a fresh value: the previous query's workers are done
		res:        res,
		target:     target,
		targetNode: g.StationNode(target),
		footpaths:  len(g.TT.Footpaths) > 0,
		stopping:   !opts.DisableStoppingCriterion,
		crossStop:  !opts.DisableStoppingCriterion && len(ws.bounds) > 2, // > 1 worker
	}
	if useTable && !res.Local && len(vias.Via) > 0 {
		q.table = env.Table
		ws.viaRefs = ws.viaRefs[:0]
		for _, v := range vias.Via {
			ws.viaRefs = append(ws.viaRefs, viaRef{idx: env.Table.Index(v), transfer: g.TT.Stations[v].Transfer})
		}
		q.vias = ws.viaRefs
		q.targetIdx = env.Table.Index(target)
		q.targetIsTransfer = q.targetIdx >= 0 && !opts.DisableTargetPruning
		q.noMemo = ws.noMemo
	}

	// The workers read conn(S) from a result shell with no arrival store.
	ws.pres = ProfileResult{Source: source, Conns: connIDs, Deps: deps, g: g}
	workers := ws.spcsWorkers(spcsWorker{g: g, res: &ws.pres, opts: opts.Options, limit: timeutil.Infinity, q: q})
	if err := runWorkers(ws, workers, &res.Run); err != nil {
		return nil, err
	}
	res.Run.Elapsed = time.Since(start)
	opts.Effort.Observe(&res.Run)
	return res, nil
}

// s2sQuery is the per-query state a station-to-station search shares among
// its workers (spcsWorker.run).
type s2sQuery struct {
	res        *StationQueryResult
	target     timetable.StationID
	targetNode graph.NodeID
	// footpaths says the timetable has walking links at all; only then do
	// the table prunings look at a station's footpaths (spcsWorker.run).
	footpaths bool

	// stopping says the stopping criterion (Theorem 2) is on; crossStop,
	// that it also runs across workers, through stop.
	stopping, crossStop bool
	stop                stopState

	// Distance-table pruning state (nil/false when inactive): the via
	// stations and the target by transfer index (dtable.Table.Index), each
	// via with its transfer time, resolved once per query.
	table            *dtable.Table
	vias             []viaRef
	targetIdx        int
	targetIsTransfer bool
	noMemo           bool // Workspace.noMemo
}

// viaRef is a via station of a station-to-station query as the table
// prunings read it: its transfer index and its transfer time.
type viaRef struct {
	idx      int
	transfer timeutil.Ticks
}

// answer records a as connection i's arrival at T and returns the bound of
// the worker's next connection, given the current one: every later
// connection's search, on any worker, keeps no key at or beyond a
// (Theorem 2).
func (q *s2sQuery) answer(i int, a, limit timeutil.Ticks) timeutil.Ticks {
	q.res.ArrT[i] = a
	if !q.stopping {
		return limit
	}
	if q.crossStop {
		q.stop.observeTargetSettle(i, a)
	}
	return timeutil.Min(limit, a)
}
