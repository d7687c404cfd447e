package core

import (
	"fmt"
	"time"

	"transit/internal/graph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// spcsWorker runs the self-pruning connection-setting search for the
// contiguous global connection range [lo, hi) of conn(S) (Section 3.1). It
// borrows its priority queue and its label row from a per-thread
// workerSpace; the station arrivals (and parent links) of the shared
// ProfileResult are written only at global indexes in [lo, hi), so
// concurrent workers never touch the same label.
//
// The connections are searched one at a time, latest departure first, each
// by its own label-setting search over one numNodes-sized label row; the
// package comment ("Queue and label layout") states why that settles the
// same labels as one queue over all of them.
//
// With q set the worker answers a station-to-station query instead: res then
// only names conn(S) (no arrival store, no parents), and Section 4's
// prunings run on top of the search (run).
type spcsWorker struct {
	g    *graph.Graph
	res  *ProfileResult
	opts Options
	lo   int
	hi   int
	ws   *workerSpace
	// limit is one past the largest key the search keeps: Infinity, or lower
	// when the caller needs nothing that arrives later (oneToAll).
	limit timeutil.Ticks
	// open counts the time-query's target stations, marked res.gen in
	// targets, that have not settled yet; the search returns when the last
	// one settles. 0 from the start never stops it.
	open    int
	targets []uint32
	q       *s2sQuery // nil for one-to-all
	// routePops counts the route nodes popped: the seeds, and under a table
	// every route record (TestScanQueuesStationsOnly reads it).
	routePops int64

	outcome
}

// run executes the worker: for i = hi-1 down to lo, one radix-queue search
// from connection c_i's seeds (seed). The row record of node v holds the
// best key any connection of this query has given v so far, stamped with the
// connection that gave it (stamps count up from floor, one per connection).
// When connection i starts, every record stamped by this query therefore
// holds best(v) = min over j > i of arr(v, j), and a seed or push whose key
// is ≥ best(head) is refused: Theorem 1's self-pruning, decided before the
// label is queued instead of when it surfaces. Within connection i's search
// the record is its tentative label (stamp cur), an entry whose key is no
// longer the record's key is superseded, and because no push ties or
// undercuts a settled key, the record is final when its entry surfaces.
// Only a station node's final key leaves the row: it is arr(T, i). A route
// node's keys are read by self-pruning alone, through the row.
//
// Without a distance table the queue holds stations and seeds only: a board
// or a ride hands its head route node to scan, which writes the records of
// the trip it rides at once (package comment, "Queue and label layout").
// A node's ride edge is evaluated through the worker's ride cursor of that
// node (rideCursor), valid from the query's first stamp on; a key that
// catches the departure the cursor last caught in this query is refused
// without evaluating it (rideCursor.same, refuse).
//
// A station-to-station query (q set) keeps no arrivals but T's, in ArrT,
// and adds Section 4's prunings behind one branch on q per pop, which no
// iteration changes; the table prunings run in prune, out of the loop body:
//
//   - Theorem 2: connection i keeps no key at or beyond the earliest arrival
//     at T of a later connection of this worker (limit, lowered by answer),
//     and ends at the first pop at or beyond the arrival another worker
//     published for a later connection (stopState). It also ends when T
//     settles: nothing it settles afterwards can reach T earlier.
//   - Theorem 3: a settled transfer station that cannot improve µ at any via
//     station is not expanded.
//   - Theorem 4: once every tentative label of i has a transfer-station
//     ancestor, γ answers i and ends it.
//
// The later connections of the worker are finished before i starts, so
// what the prunings keep belongs to connection i and restarts with the next
// (µ and c), beside one ancestor flag per node. A connection ended early
// leaves tentative keys in the row; each is an arrival the connection
// achieves, so as bounds they refuse only dominated labels
// (docs/PREPROCESSING.md).
func (w *spcsWorker) run() {
	g, res, q := w.g, w.res, w.q
	if w.hi == w.lo {
		return
	}
	ws := w.ws
	numNodes := g.NumNodes()
	// Anything stamped below floor is an earlier query's: "no bound".
	floor := ws.beginRow(numNodes, w.hi-w.lo)
	qfloor := floor
	row, rides := ws.row, ws.rides
	period := g.TT.Period
	heap := &ws.radix
	k := len(res.Deps)
	arr, numStations := res.arr, graph.NodeID(g.NumStations())
	done := w.opts.Done
	hasParents := res.hasParents
	limit := w.limit
	// Without a table, a board or a ride hands its head to scan instead of
	// the queue; table queries queue route nodes (Theorems 3 and 4 and the
	// ancestor count read them at pops).
	scan := q == nil || q.table == nil

	// Station-to-station state, none for one-to-all: µ, ancestors and c.
	var anc []bool
	var c s2sConn
	if q != nil {
		ws.mu = grow(ws.mu, len(q.vias))
		if q.targetIsTransfer {
			ws.anc = grow(ws.anc, numNodes)
			anc = ws.anc
		}
	}

	for i := w.hi - 1; i >= w.lo; i-- {
		ws.rowGen++
		cur := ws.rowGen
		if w.opts.DisableSelfPruning {
			floor = cur // later connections bound nothing
		}
		heap.Reset()
		if q != nil {
			c = s2sConn{gamma: timeutil.Infinity}
			for j := range ws.mu {
				ws.mu[j] = timeutil.Infinity
			}
		}
		c.noAnc = w.seed(i, limit, floor, cur)

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
			v := graph.NodeID(it)
			if v >= numStations {
				w.routePops++
			}
			if q == nil {
				w.counters.SettledConns++
				if v < numStations {
					arr[int(v)*k+i] = key
					if w.open > 0 && w.targets[v] == res.gen {
						if w.open--; w.open == 0 {
							return
						}
					}
				}
			} else {
				// Stopping criterion (Theorem 2) across workers. A lone
				// worker skips it: every key it pops is below limit, limit is
				// at most the arrival of the first connection it answered,
				// and that is the connection of the largest index stopState
				// has seen, whose arrival stopState keeps. So no pop would
				// reach it.
				if q.crossStop && q.stop.shouldPrune(i, key) {
					w.counters.PrunedConns++
					break
				}
				if anc != nil {
					if c.childAnc = anc[v]; !c.childAnc {
						c.noAnc--
					}
				}
				w.counters.SettledConns++
				if v == q.targetNode {
					limit = q.answer(i, key, limit)
					break
				}
				if q.table != nil {
					var act int
					if act, limit = w.prune(&c, i, v, key, limit); act == endConn {
						break
					} else if act == skipNode {
						continue
					}
				}
			}

			// Relax all outgoing edges of (v, i) at arrival time key.
			edges := g.OutEdges(v)
			for e := range edges {
				edge := &edges[e]
				w.counters.Relaxed++
				// EvalEdge by hand: the call is too big to inline and most
				// edges are constant-weight.
				arrTent, ride := key+edge.W, timetable.ConnID(-1)
				if edge.Kind == graph.Ride {
					c := &rides[v]
					if c.same(key, floor) {
						w.refuse(c, v, limit, cur)
						continue
					}
					if arrTent, ride = c.eval(g.RideConns(edge), period, key, qfloor, cur); arrTent >= limit {
						c.disarm()
					}
				}
				if arrTent >= limit {
					if q != nil && !arrTent.IsInf() {
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
				if scan && edge.Head >= numStations { // a board or a ride
					w.scan(edge.Head, arrTent, v, ride, i, limit, floor, qfloor, cur)
					continue
				}
				if anc != nil {
					// A label of i replaced by a better one leaves the count
					// first (a settled one is never replaced: see above).
					if l.stamp == cur && !anc[edge.Head] {
						c.noAnc--
					}
					if !c.childAnc {
						c.noAnc++
					}
					anc[edge.Head] = c.childAnc
				}
				*l = label{key: arrTent, stamp: cur}
				heap.Push(int32(edge.Head), arrTent)
				w.counters.QueuePushes++
				if hasParents {
					res.setParent(int(edge.Head)*k+i, v, ride)
				}
			}
		}
	}
}

// scan rides a trip forward from route node u, which connection i (stamp
// cur) reaches at key, a key the bound and u's record have admitted. At each
// route node it writes the record (parent: the node it came from and the
// connection ridden), queues the node's station at the alight key unless
// that station's record refuses it, and evaluates the ride edge through the
// node's cursor; it moves on to the next route node while that node's record
// admits the arrival. Every key it writes is at least the key of the pop
// that started it, so stations stay label-setting, and a record this
// connection rewrites lower later is scanned again from there.
func (w *spcsWorker) scan(u graph.NodeID, key timeutil.Ticks, from graph.NodeID, conn timetable.ConnID, i int, limit timeutil.Ticks, floor, qfloor, cur uint32) {
	g, res, ws := w.g, w.res, w.ws
	row, rides := ws.row, ws.rides
	k := len(res.Deps)
	// A boarded node's alight leads back to the station it was boarded
	// from, settled at or below key: refused, so not relaxed.
	alight := !g.IsStationNode(from)
	for {
		row[u] = label{key: key, stamp: cur}
		w.counters.SettledConns++
		if res.hasParents {
			res.setParent(int(u)*k+i, from, conn)
		}
		if alight {
			w.counters.Relaxed++
			st := g.StationNode(g.Station(u))
			if l := &row[st]; l.stamp < floor || key < l.key {
				*l = label{key: key, stamp: cur}
				ws.radix.Push(int32(st), key)
				w.counters.QueuePushes++
				if res.hasParents {
					res.setParent(int(st)*k+i, u, -1)
				}
			} else if l.stamp != cur {
				w.counters.PrunedConns++ // self-pruning (Theorem 1)
			}
		}
		alight = true
		c := &rides[u]
		if c.same(key, floor) {
			w.counters.Relaxed++
			w.refuse(c, u, limit, cur)
			return
		}
		edge := g.RideEdge(u)
		if edge == nil {
			return // the route ends
		}
		w.counters.Relaxed++
		arr, ride := c.eval(g.RideConns(edge), g.TT.Period, key, qfloor, cur)
		if arr >= limit {
			c.disarm()
			if w.q != nil && !arr.IsInf() {
				w.counters.PrunedConns++ // stopping criterion (Theorem 2)
			}
			return
		}
		if l := &row[u+1]; l.stamp >= floor && arr >= l.key {
			if l.stamp != cur {
				w.counters.PrunedConns++ // self-pruning (Theorem 1)
			}
			return
		}
		from, u, key, conn = u, u+1, arr, ride
	}
}

// refuse counts a ride out of route node u that u's cursor c refused
// unevaluated (rideCursor.same) the way the bound and the record check would
// have: the record of u+1, the ride's head, holds the arrival or better, so
// the record check counts it unless that record is this connection's own,
// and the bound, which may have fallen since, counts it in a
// station-to-station query.
func (w *spcsWorker) refuse(c *rideCursor, u graph.NodeID, limit timeutil.Ticks, cur uint32) {
	if w.ws.row[u+1].stamp != cur || w.q != nil && c.arrival(w.g.RideConns(w.g.RideEdge(u)), w.g.TT.Period) >= limit {
		w.counters.PrunedConns++
	}
}

// s2sConn is the station-to-station state of the connection being searched,
// restarted with each connection: γ, the count of its tentative labels whose
// path passed no transfer station, and whether the node it settled last
// hands a transfer-station ancestor to the labels it pushes.
type s2sConn struct {
	gamma    timeutil.Ticks
	noAnc    int
	childAnc bool
}

// What the loop does with a node prune has seen.
const (
	expandNode = iota
	skipNode   // settled, not expanded (Theorem 3)
	endConn    // γ answered the connection (Theorem 4)
)

// prune applies the table prunings (Theorems 3 and 4) to node v, which
// connection i of a station-to-station query has just settled at key, and
// returns what the loop does with v and the bound of the worker's next
// connection.
func (w *spcsWorker) prune(c *s2sConn, i int, v graph.NodeID, key, limit timeutil.Ticks) (int, timeutil.Ticks) {
	q := w.q
	// The table prunings read D(st, ·, key) as the earliest arrival of
	// anything that continues from here. A table profile holds the
	// connections leaving st, not the walk that starts at st itself, so that
	// only holds where no footpath leaves: elsewhere st is neither pruned at
	// nor counted as a transfer-station ancestor.
	g, table := w.g, q.table
	st := g.Station(v)
	if !table.IsTransfer(st) || q.footpaths && len(g.TT.FootpathsFrom(st)) > 0 {
		return expandNode, limit
	}
	c.childAnc = true
	stations := g.TT.Stations
	arrWithTransfer := key + stations[st].Transfer
	// Target pruning (Theorem 4).
	if q.targetIsTransfer {
		if d := table.D(st, q.target, key); d < c.gamma {
			c.gamma = d
		}
		// γ is a feasible lower bound only once every tentative label of i
		// has a transfer-station ancestor: then the optimal path's frontier
		// passed a settled transfer station, which has already contributed
		// to γ.
		if c.noAnc == 0 {
			if d := table.D(st, q.target, arrWithTransfer); d == c.gamma {
				return endConn, q.answer(i, d, limit)
			}
		}
	}
	// Distance-table pruning (Theorem 3): refresh µ_j, then prune v if it
	// provably cannot improve any via station.
	prune, mu := true, w.ws.mu
	for j, vj := range q.vias {
		if m := table.D(st, vj, arrWithTransfer) + stations[vj].Transfer; m < mu[j] {
			mu[j] = m
		}
		if table.D(st, vj, key) <= mu[j] {
			prune = false
		}
	}
	if !prune {
		return expandNode, limit
	}
	w.counters.PrunedConns++
	w.counters.SettledConns-- // settled but not expanded
	return skipNode, limit
}

// seed queues connection i's seeds and returns how many it queued. A
// connection of conn(S) starts at the route node r where c_i departs, with
// key τ_dep(c_i): keys are the *real* departure time points, and res.Deps
// holds the effective departures from the source, which differ for
// walk-seeded connections. The one virtual connection of a point search (a
// result with no Conns: the time-query, EarliestArrival) starts at
// res.Deps[0] on the station node of S, since walking off needs no train,
// and, without the boarding transfer, on every route node of S.
func (w *spcsWorker) seed(i int, limit timeutil.Ticks, floor, cur uint32) int {
	g, res := w.g, w.res
	if res.Conns != nil {
		id := res.Conns[i]
		return w.seedNode(g.ConnDepartureNode(id), g.TT.Connections[id].Dep, limit, floor, cur)
	}
	dep := res.Deps[i]
	sn := g.StationNode(res.Source)
	n := w.seedNode(sn, dep, limit, floor, cur)
	for _, e := range g.OutEdges(sn) {
		if e.Kind == graph.Board {
			n += w.seedNode(e.Head, dep, limit, floor, cur)
		}
	}
	return n
}

// seedNode queues node v at key for the connection of stamp cur, unless key
// reaches limit or a later connection is at v by then, and reports how many
// labels it queued (0 or 1).
func (w *spcsWorker) seedNode(v graph.NodeID, key, limit timeutil.Ticks, floor, cur uint32) int {
	if key >= limit {
		if w.q != nil {
			w.counters.PrunedConns++ // stopping criterion (Theorem 2)
		}
		return 0
	}
	l := &w.ws.row[v]
	if l.stamp >= floor && key >= l.key {
		if l.stamp != cur {
			w.counters.PrunedConns++ // a later connection is at v by then
		}
		return 0
	}
	*l = label{key: key, stamp: cur}
	w.ws.radix.Push(int32(v), key)
	w.counters.QueuePushes++
	if w.q != nil && w.q.targetIsTransfer {
		w.ws.anc[v] = false
	}
	return 1
}

// spcsWorkers returns one copy of w per range of ws.bounds, in ws.spcsBuf.
func (ws *Workspace) spcsWorkers(w spcsWorker) []spcsWorker {
	ws.spcsBuf = grow(ws.spcsBuf, len(ws.bounds)-1)
	workers := ws.spcsBuf
	for t := range workers {
		w.lo, w.hi, w.ws = ws.bounds[t], ws.bounds[t+1], ws.worker(t)
		workers[t] = w
	}
	return workers
}

// OneToAll runs the (possibly parallel) self-pruning connection-setting
// profile search from the source station and returns the station labels
// arr(T, ·) (Section 3). With opts.Threads > 1, conn(S) is partitioned by
// opts.Partition and the workers run concurrently; labels are merged by
// construction since workers write disjoint connection columns, and the
// per-station connection reduction of ProfileResult restores the FIFO
// property that is not guaranteed across threads.
//
// The result borrows workspace memory and is valid until the next query on
// this workspace.
func (ws *Workspace) OneToAll(g *graph.Graph, source timetable.StationID, opts Options) (*ProfileResult, error) {
	return ws.OneToAllWindow(g, source, 0, timeutil.Infinity, opts)
}

// OneToAllWindow runs the profile search restricted to itineraries leaving
// the source (effectively) within [from, to] — Dean's interval search [5],
// referenced in the paper's related work. The resulting profiles cover
// exactly the departures in the window; with [0, ∞) it is OneToAll.
func (ws *Workspace) OneToAllWindow(g *graph.Graph, source timetable.StationID, from, to timeutil.Ticks, opts Options) (*ProfileResult, error) {
	return ws.oneToAll(g, source, from, to, timeutil.Infinity, opts)
}

// oneToAll is the windowed profile search with an arrival bound: labels
// later than until are never created (arr reads Infinity for them), which
// leaves every label at or before until exactly as the unbounded search
// computes it — keys only grow along a path, and self-pruning of (v, i) by
// a later connection j needs arr(v, j) ≤ arr(v, i), so no label beyond the
// bound ever decides anything about one within it. Infinity is no bound.
func (ws *Workspace) oneToAll(g *graph.Graph, source timetable.StationID, from, to, until timeutil.Ticks, opts Options) (*ProfileResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if int(source) < 0 || int(source) >= g.TT.NumStations() {
		return nil, fmt.Errorf("core: source station %d out of range", source)
	}
	if from > to {
		return nil, fmt.Errorf("core: empty departure window [%d, %d]", from, to)
	}
	if cancelled(opts.Done) {
		return nil, ErrCancelled
	}
	start := time.Now()
	res := ws.newProfileResultWindow(g, source, opts, from, to)
	ws.bounds = partitionInto(ws.bounds, res.Deps, g.TT.Period, opts.threads(), opts.Partition)
	workers := ws.spcsWorkers(spcsWorker{g: g, res: res, opts: opts, limit: timeutil.Min(until, timeutil.Infinity-1) + 1})
	if err := runWorkers(ws, workers, &res.Run); err != nil {
		return nil, err
	}
	res.Run.Elapsed = time.Since(start)
	opts.Effort.Observe(&res.Run)
	return res, nil
}
