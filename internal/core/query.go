package core

import (
	"fmt"
	"sync"
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
// Results returned by Workspace.StationToStation borrow workspace memory
// (Conns, Deps, ArrT, Run.PerThread) and are valid until the next query on
// that workspace; StationToStation returns a detached copy.
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

// detach deep-copies the result out of workspace memory so it survives the
// workspace's return to the pool.
func (r *StationQueryResult) detach() *StationQueryResult {
	out := *r
	out.Conns = append([]timetable.ConnID(nil), r.Conns...)
	out.Deps = append([]timeutil.Ticks(nil), r.Deps...)
	out.ArrT = append([]timeutil.Ticks(nil), r.ArrT...)
	out.Run.PerThread = append([]stats.Counters(nil), r.Run.PerThread...)
	return &out
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
// It runs on a pooled workspace and returns a detached (caller-owned)
// result. Steady-state callers that can consume the result immediately
// should use Workspace.StationToStation to also skip the copy.
func StationToStation(env QueryEnv, source, target timetable.StationID, opts QueryOptions) (*StationQueryResult, error) {
	ws := GetWorkspace()
	res, err := ws.StationToStation(env, source, target, opts)
	if err != nil {
		PutWorkspace(ws)
		return nil, err
	}
	out := res.detach()
	PutWorkspace(ws)
	return out, nil
}

// StationToStation is the workspace-reusing form of the package-level
// StationToStation: the steady state allocates nothing. The result borrows
// workspace memory and is valid until the next query on this workspace.
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
	gen := ws.begin()
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
		workers[t].init(q, bounds[t], bounds[t+1], ws.worker(t), gen)
	}
	if nw == 1 {
		workers[0].run()
	} else {
		var wg sync.WaitGroup
		for t := range workers {
			wg.Add(1)
			go func(w *s2sWorker) {
				defer wg.Done()
				w.run()
			}(&workers[t])
		}
		wg.Wait()
	}
	for t := range workers {
		if workers[t].cancelled {
			return nil, ErrCancelled
		}
	}
	res.Run.PerThread = ws.counters(nw)
	for t := range workers {
		res.Run.PerThread[t] = workers[t].counters
		res.Run.Total.Add(workers[t].counters)
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
// range [lo, hi). All per-connection pruning state (µ bounds, γ bounds,
// done flags, ancestor counters) is local to the worker, since connections
// are partitioned across workers. The worker's label memory lives in its
// workerSpace: the fused label records and maxconn are generation-stamped
// (O(1) reset), while the O(k)-sized pruning arrays are refilled eagerly.
// Unlike spcsWorker it keeps one queue over all of its connections, since
// Theorems 2–4 compare connections as they surface (package comment, "Queue
// and label layout").
type s2sWorker struct {
	q        *s2sQuery
	lo, hi   int
	ws       *workerSpace
	gen      uint32
	counters stats.Counters
	// cancelled is set when the worker abandoned its range because
	// Options.Done closed; StationToStation turns it into ErrCancelled.
	cancelled bool

	labels     []label
	maxconn    []int32
	maxconnGen []uint32

	// µ[iLocal*len(vias)+j]: upper bound µ_{i,j} on the useful arrival at
	// via station j (Theorem 3).
	mu []timeutil.Ticks
	// Target pruning (Theorem 4) state.
	gamma      []timeutil.Ticks // γ_i lower bounds
	connDone   []bool           // search for i stopped
	anc        []bool           // label has a transfer-station ancestor
	noAncCount []int            // queued entries of i without transfer ancestor
}

// init prepares a worker for one query, reusing the workerSpace arrays.
func (w *s2sWorker) init(q *s2sQuery, lo, hi int, wsw *workerSpace, gen uint32) {
	*w = s2sWorker{q: q, lo: lo, hi: hi, ws: wsw, gen: gen}
	kLocal := hi - lo
	n := q.g.NumNodes()
	wsw.labels = growLabels(wsw.labels, n*kLocal)
	w.labels = wsw.labels
	wsw.maxconn = growI32(wsw.maxconn, n)
	w.maxconn = wsw.maxconn
	wsw.maxconnGen = growU32(wsw.maxconnGen, n)
	w.maxconnGen = wsw.maxconnGen
	if q.table != nil {
		wsw.mu = growTicks(wsw.mu, kLocal*len(q.vias))
		w.mu = wsw.mu
		for i := range w.mu {
			w.mu[i] = timeutil.Infinity
		}
		if q.targetIsTransfer {
			wsw.gamma = growTicks(wsw.gamma, kLocal)
			w.gamma = wsw.gamma
			for i := range w.gamma {
				w.gamma[i] = timeutil.Infinity
			}
			wsw.connDone = growBool(wsw.connDone, kLocal)
			w.connDone = wsw.connDone
			clear(w.connDone)
			// anc needs no clearing: every slot is written by push before
			// any read of the same query (see push).
			wsw.anc = growBool(wsw.anc, n*kLocal)
			w.anc = wsw.anc
			wsw.noAncCount = growInt(wsw.noAncCount, kLocal)
			w.noAncCount = wsw.noAncCount
			clear(w.noAncCount)
		}
	}
}

// push relaxes queue item it — pair (v, iLocal), see run — to key: a no-op
// when the pair is settled or already queued with a key at least as good,
// otherwise the label record is overwritten and a (possibly second) queue
// entry pushed. childAnc says whether the path behind this key passed a
// transfer station; noAncCount tracks, per connection, the tentative pairs
// whose best path did not — "queued" for Theorem 4 means a tentative label,
// however many stale entries the queue still holds for it.
func (w *s2sWorker) push(it, iLocal int, key timeutil.Ticks, childAnc bool) {
	l := &w.labels[it]
	tentative := w.gen << 1
	if l.stamp == tentative|1 {
		return
	}
	wasIn := l.stamp == tentative
	if wasIn && key >= l.key {
		return
	}
	*l = label{key: key, stamp: tentative}
	w.ws.radix.Push(int32(it), key)
	w.counters.QueuePushes++
	if w.anc != nil {
		if !wasIn {
			if !childAnc {
				w.noAncCount[iLocal]++
			}
			w.anc[it] = childAnc
		} else if w.anc[it] != childAnc {
			if childAnc {
				w.noAncCount[iLocal]--
			} else {
				w.noAncCount[iLocal]++
			}
			w.anc[it] = childAnc
		}
	}
}

func (w *s2sWorker) run() {
	q := w.q
	g := q.g
	res := q.res
	kLocal := w.hi - w.lo
	if kLocal == 0 {
		return
	}
	gen := w.gen
	settled := gen<<1 | 1
	heap := &w.ws.radix
	heap.Reset()
	stations := g.TT.Stations
	// Items encode (node, local connection index) as iLocal*numNodes + node,
	// so one connection's records are one contiguous row in node order:
	// riding a train walks consecutive route nodes, hence consecutive
	// records. 32-bit unsigned division takes them apart: items are
	// non-negative int32.
	numNodes := g.NumNodes()

	point := q.depart >= 0
	if point {
		// The virtual connection of a point query starts like a time-query:
		// at the station node (walking off needs no train) and, without the
		// boarding transfer, on every route of the source.
		sn := g.StationNode(res.Source)
		w.push(int(sn), 0, q.depart, false)
		for _, e := range g.OutEdges(sn) {
			if e.Kind == graph.Board {
				w.push(int(e.Head), 0, q.depart, false)
			}
		}
	} else {
		for i := w.lo; i < w.hi; i++ {
			id := res.Conns[i]
			iLocal := i - w.lo
			w.push(iLocal*numNodes+int(g.ConnDepartureNode(id)), iLocal, g.TT.Connections[id].Dep, false)
		}
	}

	done := q.opts.Done
	un := uint32(numNodes)
	for !heap.Empty() {
		it, key := heap.PopMin()
		if w.labels[it].stamp == settled {
			continue // stale entry of a pair that surfaced with a better key
		}
		w.labels[it].stamp = settled
		w.counters.QueuePops++
		if done != nil && w.counters.QueuePops&cancelMask == 0 {
			w.counters.CancelPolls++
			if cancelled(done) {
				w.cancelled = true
				return
			}
		}
		iLocal := int(uint32(it) / un)
		row := iLocal * numNodes
		v := graph.NodeID(int(it) - row)
		i := w.lo + iLocal
		hasAnc := false
		if w.anc != nil {
			hasAnc = w.anc[it]
			if !hasAnc {
				w.noAncCount[iLocal]--
			}
		}

		// Target pruning already finished this connection.
		if w.connDone != nil && w.connDone[iLocal] {
			w.counters.PrunedConns++
			continue
		}
		// Stopping criterion (Theorem 2).
		if !q.opts.DisableStoppingCriterion && q.stop.shouldPrune(i, key) {
			w.counters.PrunedConns++
			continue
		}
		// Self-pruning (Theorem 1).
		mc := int32(-1)
		if w.maxconnGen[v] == gen {
			mc = w.maxconn[v]
		}
		if !q.opts.DisableSelfPruning && int32(i) <= mc {
			w.counters.PrunedConns++
			continue
		}
		if int32(i) > mc {
			w.maxconn[v] = int32(i)
			w.maxconnGen[v] = gen
		}
		w.counters.SettledConns++

		st := g.Station(v)

		// Target reached for this connection.
		if v == q.targetNode {
			res.ArrT[i] = key
			if !q.opts.DisableStoppingCriterion {
				q.stop.observeTargetSettle(i, key)
			}
			if point {
				return // the only connection is answered
			}
			// Leaving the target and coming back cannot arrive earlier
			// (FIFO), and other stations are irrelevant to this query.
			continue
		}

		// The table prunings read D(st, ·, key) as the earliest arrival of
		// anything that continues from here. A table profile holds the
		// connections leaving st, not the walk that starts at st itself, so
		// that only holds where no footpath leaves: elsewhere st is neither
		// pruned at nor counted as a transfer-station ancestor.
		atTransfer := q.table != nil && q.table.IsTransfer(st) &&
			!(q.footpaths && len(g.TT.FootpathsFrom(st)) > 0)
		if atTransfer {
			arrWithTransfer := key + stations[st].Transfer
			// Target pruning (Theorem 4).
			if w.gamma != nil {
				if d := q.table.D(st, q.target, key); d < w.gamma[iLocal] {
					w.gamma[iLocal] = d
				}
				if w.noAncCount[iLocal] == 0 {
					// γ_i is a feasible lower bound only once every queued
					// entry of i has a transfer-station ancestor: then the
					// optimal path's frontier passed a settled transfer
					// station, which has already contributed to γ_i.
					if d := q.table.D(st, q.target, arrWithTransfer); d == w.gamma[iLocal] {
						res.ArrT[i] = d
						if !q.opts.DisableStoppingCriterion {
							q.stop.observeTargetSettle(i, d)
						}
						if point {
							return
						}
						w.connDone[iLocal] = true
						continue
					}
				}
			}
			// Distance-table pruning (Theorem 3): refresh µ_{i,j}, then
			// prune v if it provably cannot improve any via station.
			prune := true
			base := iLocal * len(q.vias)
			for j, vj := range q.vias {
				mu := q.table.D(st, vj, arrWithTransfer) + stations[vj].Transfer
				if mu < w.mu[base+j] {
					w.mu[base+j] = mu
				}
				if q.table.D(st, vj, key) <= w.mu[base+j] {
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
				arrTent, _ = g.EvalRide(edge, key)
			}
			w.counters.Relaxed++
			if arrTent.IsInf() {
				continue
			}
			w.push(row+int(edge.Head), iLocal, arrTent, childAnc)
		}
	}
}
