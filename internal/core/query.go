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

// reset clears the state for a new query.
func (s *stopState) reset() { s.v.Store(0) }

func (s *stopState) observeTargetSettle(i int, arr timeutil.Ticks) {
	// Saturate out-of-range arrivals (nothing meaningful ever exceeds
	// Infinity; negative arrivals cannot occur) so the packed word always
	// round-trips exactly.
	if arr > timeutil.Infinity {
		arr = timeutil.Infinity
	}
	if arr < 0 {
		arr = 0
	}
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
// conn(S) there is one virtual connection leaving at τ, seeded the way the
// time-query seeds (the station node of S and every route node of S at key
// τ, so the first boarding pays no transfer time and walking away from S
// is an ordinary Walk edge); it runs through the same worker, queue and
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
	var deps []timeutil.Ticks
	if point {
		ws.deps = growTicks(ws.deps, 1)
		ws.deps[0] = depart
		deps = ws.deps
	} else {
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
		ArrT:     growTicks(ws.sres.ArrT, len(deps)),
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

	// Field-wise reset (the struct embeds an atomic and must not be copied).
	q := &ws.s2q
	q.g = g
	q.res = res
	q.opts = opts
	q.target = target
	q.targetNode = g.StationNode(target)
	q.depart = depart
	q.footpaths = len(g.TT.Footpaths) > 0
	q.table = nil
	q.vias = nil
	q.targetIsTransfer = false
	q.stop.reset()
	if useTable && !res.Local && len(vias.Via) > 0 {
		q.table = env.Table
		q.vias = vias.Via
		q.targetIsTransfer = env.Table.IsTransfer(target) && !opts.DisableTargetPruning
	}

	if point {
		ws.bounds = append(ws.bounds[:0], 0, 1) // one connection, one worker
	} else {
		ws.bounds = partitionInto(ws.bounds, res.Deps, g.TT.Period, opts.threads(), opts.Partition)
	}
	bounds := ws.bounds
	nw := len(bounds) - 1
	if cap(ws.s2sBuf) < nw {
		ws.s2sBuf = make([]s2sWorker, nw)
	}
	workers := ws.s2sBuf[:nw]
	for t := 0; t < nw; t++ {
		workers[t] = s2sWorker{q: q, lo: bounds[t], hi: bounds[t+1], ws: ws.worker(t)}
	}
	if err := runWorkers(ws, workers, &res.Run); err != nil {
		return nil, err
	}
	res.Run.Elapsed = time.Since(start)
	opts.Effort.Observe(&res.Run)
	return res, nil
}

// s2sQuery is the per-query shared state of all workers.
type s2sQuery struct {
	g          *graph.Graph
	res        *StationQueryResult
	opts       QueryOptions
	target     timetable.StationID
	targetNode graph.NodeID
	// depart ≥ 0 makes this a point query: one virtual connection leaving
	// the source at that time instead of conn(S) (wholePeriod otherwise).
	depart timeutil.Ticks
	// footpaths says the timetable has walking links at all; only then do
	// the table prunings look at a station's footpaths (see run).
	footpaths bool

	// stop is the shared stopping-criterion state.
	stop stopState

	// Distance-table pruning state (nil/false when inactive).
	table            *dtable.Table
	vias             []timetable.StationID
	targetIsTransfer bool
}

// s2sWorker runs the pruned connection-setting search on the connection
// range [lo, hi) the way spcsWorker does: one radix-queue search per
// connection, latest departure first, over the worker's one label row, with
// Theorem 1's self-pruning decided when a label is pushed. Theorems 2–4
// compare connection i with the connections of the worker that leave later,
// and those are finished before i starts, so what the prunings keep is per
// connection and restarted for each: µ (one entry per via station), γ and
// the count of tentative labels without a transfer-station ancestor, plus
// one ancestor flag per node (package comment, "Queue and label layout").
type s2sWorker struct {
	q      *s2sQuery
	lo, hi int
	ws     *workerSpace
	outcome
	// bestT is the earliest arrival at T of the connections this worker has
	// answered, all of which leave no earlier than the one it searches next
	// (Infinity with the stopping criterion off).
	bestT timeutil.Ticks
	// anc[v] says whether the path behind v's row record passed a transfer
	// station; nil unless target pruning (Theorem 4) is on.
	anc []bool
}

// answer records a as connection i's arrival at T, where every later
// connection's search on any worker can see it (Theorem 2).
func (w *s2sWorker) answer(i int, a timeutil.Ticks) {
	w.q.res.ArrT[i] = a
	if !w.q.opts.DisableStoppingCriterion {
		w.q.stop.observeTargetSettle(i, a)
		w.bestT = timeutil.Min(w.bestT, a)
	}
}

// seed starts the current connection (stamp cur) at node v with key, unless
// key reaches the connection's limit or a later connection is at v by then.
// It reports whether v was queued.
func (w *s2sWorker) seed(v graph.NodeID, key, limit timeutil.Ticks, floor, cur uint32) bool {
	if key >= limit {
		w.counters.PrunedConns++ // stopping criterion (Theorem 2)
		return false
	}
	l := &w.ws.row[v]
	if l.stamp >= floor && key >= l.key {
		if l.stamp != cur {
			w.counters.PrunedConns++ // a later connection is at v by then
		}
		return false
	}
	*l = label{key: key, stamp: cur}
	w.ws.radix.Push(int32(v), key)
	w.counters.QueuePushes++
	if w.anc != nil {
		w.anc[v] = false
	}
	return true
}

// run executes the worker: for i = hi-1 down to lo, one search from
// connection c_i's departure node (from the source itself, like a
// time-query, for the one virtual connection of a point query). The row is
// spcsWorker's: stamps count up from floor, one per connection, and a seed or
// push whose key is at least the record of a later connection is refused
// (Theorem 1). On top of that:
//
//   - Theorem 2: connection i keeps no key at or beyond the earliest arrival
//     at T of a later connection of this worker (bestT, its limit), and ends
//     at the first pop at or beyond the arrival another worker published for
//     a later connection (stopState). It also ends when T settles: nothing
//     it settles afterwards can reach T earlier.
//   - Theorem 3: a settled transfer station that cannot improve µ at any via
//     station is not expanded.
//   - Theorem 4: once every tentative label of i has a transfer-station
//     ancestor, γ answers i and ends it.
//
// A connection ended early leaves tentative keys in the row; each is an
// arrival the connection achieves, so as bounds for earlier connections they
// refuse only dominated labels (docs/PREPROCESSING.md).
func (w *s2sWorker) run() {
	q := w.q
	g := q.g
	res := q.res
	if w.hi == w.lo {
		return
	}
	ws := w.ws
	numNodes := g.NumNodes()
	floor := ws.beginRow(numNodes, w.hi-w.lo)
	qfloor := floor
	row, rides := ws.row, ws.rides
	period := g.TT.Period
	heap := &ws.radix
	stations := g.TT.Stations
	done := q.opts.Done
	useStop := !q.opts.DisableStoppingCriterion
	var mu []timeutil.Ticks
	if q.table != nil {
		ws.mu = growTicks(ws.mu, len(q.vias))
		mu = ws.mu
	}
	if q.targetIsTransfer {
		ws.anc = growBool(ws.anc, numNodes)
		w.anc = ws.anc
	}
	anc := w.anc
	point := q.depart >= 0
	w.bestT = timeutil.Infinity

	for i := w.hi - 1; i >= w.lo; i-- {
		ws.rowGen++
		cur := ws.rowGen
		if q.opts.DisableSelfPruning {
			floor = cur // later connections bound nothing
		}
		limit := w.bestT
		heap.Reset()
		for j := range mu {
			mu[j] = timeutil.Infinity
		}
		gamma := timeutil.Infinity
		noAnc := 0 // tentative labels of i whose path passed no transfer station

		// Seeds. Keys are the *real* departure time points; res.Deps holds
		// the effective departures from the source, which differ for
		// walk-seeded connections.
		if point {
			// The virtual connection of a point query starts like a
			// time-query: at the station node (walking off needs no train)
			// and, without the boarding transfer, on every route of the
			// source.
			sn := g.StationNode(res.Source)
			if w.seed(sn, q.depart, limit, floor, cur) {
				noAnc++
			}
			for _, e := range g.OutEdges(sn) {
				if e.Kind == graph.Board && w.seed(e.Head, q.depart, limit, floor, cur) {
					noAnc++
				}
			}
		} else {
			id := res.Conns[i]
			if w.seed(g.ConnDepartureNode(id), g.TT.Connections[id].Dep, limit, floor, cur) {
				noAnc++
			}
		}

		for !heap.Empty() {
			it, key := heap.PopMin()
			if row[it].key != key {
				continue // superseded by a better push of the same node
			}
			w.counters.QueuePops++
			if done != nil && w.counters.QueuePops&cancelMask == 0 {
				w.counters.CancelPolls++
				if cancelled(done) {
					w.cancelled = true
					return
				}
			}
			// Stopping criterion (Theorem 2) across workers.
			if useStop && q.stop.shouldPrune(i, key) {
				w.counters.PrunedConns++
				break
			}
			v := graph.NodeID(it)
			hasAnc := false
			if anc != nil {
				if hasAnc = anc[v]; !hasAnc {
					noAnc--
				}
			}
			w.counters.SettledConns++

			if v == q.targetNode {
				w.answer(i, key)
				break
			}

			// The table prunings read D(st, ·, key) as the earliest arrival of
			// anything that continues from here. A table profile holds the
			// connections leaving st, not the walk that starts at st itself,
			// so that only holds where no footpath leaves: elsewhere st is
			// neither pruned at nor counted as a transfer-station ancestor.
			st := g.Station(v)
			atTransfer := q.table != nil && q.table.IsTransfer(st) &&
				!(q.footpaths && len(g.TT.FootpathsFrom(st)) > 0)
			if atTransfer {
				arrWithTransfer := key + stations[st].Transfer
				// Target pruning (Theorem 4).
				if anc != nil {
					if d := q.table.D(st, q.target, key); d < gamma {
						gamma = d
					}
					// γ is a feasible lower bound only once every tentative
					// label of i has a transfer-station ancestor: then the
					// optimal path's frontier passed a settled transfer
					// station, which has already contributed to γ.
					if noAnc == 0 {
						if d := q.table.D(st, q.target, arrWithTransfer); d == gamma {
							w.answer(i, d)
							break
						}
					}
				}
				// Distance-table pruning (Theorem 3): refresh µ_j, then prune
				// v if it provably cannot improve any via station.
				prune := true
				for j, vj := range q.vias {
					if m := q.table.D(st, vj, arrWithTransfer) + stations[vj].Transfer; m < mu[j] {
						mu[j] = m
					}
					if q.table.D(st, vj, key) <= mu[j] {
						prune = false
					}
				}
				if prune {
					w.counters.PrunedConns++
					w.counters.SettledConns-- // settled but not expanded
					continue
				}
			}

			childAnc := hasAnc || atTransfer
			edges := g.OutEdges(v)
			for e := range edges {
				edge := &edges[e]
				arrTent := key + edge.W // EvalEdge by hand, as in spcsWorker.run
				if edge.Kind == graph.Ride {
					arrTent, _ = rides[v].eval(g.RideConns(edge), period, key, qfloor, cur)
				}
				w.counters.Relaxed++
				if arrTent >= limit {
					if !arrTent.IsInf() {
						w.counters.PrunedConns++ // stopping criterion (Theorem 2)
					}
					continue
				}
				l := &row[edge.Head]
				if l.stamp >= floor && arrTent >= l.key {
					if l.stamp != cur {
						w.counters.PrunedConns++ // self-pruning (Theorem 1)
					}
					continue // connection-setting: (head, i) no better
				}
				if anc != nil {
					// A label of i replaced by a better one leaves the count
					// first (a settled one is never replaced: see above).
					if l.stamp == cur && !anc[edge.Head] {
						noAnc--
					}
					if !childAnc {
						noAnc++
					}
					anc[edge.Head] = childAnc
				}
				*l = label{key: arrTent, stamp: cur}
				heap.Push(int32(edge.Head), arrTent)
				w.counters.QueuePushes++
			}
		}
	}
}
