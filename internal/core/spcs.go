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
	// routePops counts the route nodes popped, which are seeds only
	// (TestScanQueuesStationsOnly reads it).
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
// The queue holds stations and seeds only: a station relaxes its boards,
// then its footpaths, and a board hands its route node to scan, which
// writes the records of the trip it rides at once, with or without a
// distance table; a popped seed enters the same scan at its alight
// (package comment, "Queue and label layout"). A node's ride is
// evaluated through the worker's ride cursor of that node (rideCursor),
// valid from the query's first stamp on; a key that catches the departure
// the cursor last caught in this query is refused without evaluating it
// (sameRide). A board asks the cursor first, before the bound and the
// record: a refused board writes no record at its route node, settles
// nothing and starts no scan, and in a query the table prunes it runs no
// prune there either, since the station's own check read the table at a
// key no later (docs/PREPROCESSING.md).
//
// A station-to-station query (q set) keeps no arrivals but T's, in ArrT,
// and adds Section 4's prunings behind one branch on q per pop, which no
// iteration changes; the table prunings run in prune, out of the loop body:
//
//   - Theorem 2: connection i keeps no key at or beyond the earliest arrival
//     at T of a later connection of this worker (limit, lowered by answer),
//     and ends at the first pop at or beyond the arrival another worker
//     published for a later connection (stopState); a scan ends its trip at
//     a record that reaches that arrival. It also ends when T settles:
//     nothing it settles afterwards can reach T earlier.
//   - Theorem 3: a settled transfer station that cannot improve µ at any via
//     station is not expanded.
//   - Theorem 4: once every tentative label of i has a transfer-station
//     ancestor, γ answers i and ends it. A popped node without one stays
//     open, counted in c.noAnc, until its edge loop is done: a trip scanned
//     from its first board may pass a transfer station while its other
//     boards are unrelaxed.
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
	row := ws.row
	heap := &ws.radix
	k := len(res.Deps)
	arr, numStations := res.arr, graph.NodeID(g.NumStations())
	done := w.opts.Done
	hasParents := res.hasParents
	limit := w.limit
	// The table prunes at pops here and at each record a scan writes.
	table := q != nil && q.table != nil

	// Station-to-station state, none for one-to-all: µ, ancestors, the
	// prune memo and c.
	var anc []bool
	var c s2sConn
	if q != nil {
		ws.mu = grow(ws.mu, len(q.vias))
		if q.targetIsTransfer {
			ws.anc = grow(ws.anc, numNodes)
			anc = ws.anc
		}
		if table {
			ws.memo = grow(ws.memo, q.table.NumTransfer())
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

	search:
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
					if c.open { // the node popped before has relaxed its edges
						c.noAnc--
						c.open = false
					}
					if c.childAnc = anc[v]; !c.childAnc {
						c.noAnc--
					}
				}
				w.counters.SettledConns++
				if v == q.targetNode {
					limit = q.answer(i, key, limit)
					break
				}
				if table {
					var act int
					if act, limit = w.prune(&c, i, v, key, limit, cur); act == endConn {
						break
					} else if act == skipNode {
						continue
					}
				}
				// A node without a transfer-station ancestor stays open until
				// its edges are relaxed, that is, until the next pop.
				if anc != nil && !c.childAnc {
					c.noAnc++
					c.open = true
				}
			}

			var ended bool
			if v >= numStations { // a seed: its alight and its ride
				if ended, limit = w.scan(&c, v, key, graph.NoNode, i, limit, floor, qfloor, cur); ended {
					break search
				}
				continue
			}

			// A station: its boards, then its footpaths, at arrival time key.
			s := g.Station(v)
			board := key + g.TT.Stations[s].Transfer
			for _, u := range g.Boards(s) {
				w.counters.Relaxed++
				if w.sameRide(u, board, floor, cur) || !w.admits(u, board, limit, floor, cur) {
					continue
				}
				if ended, limit = w.scan(&c, u, board, v, i, limit, floor, qfloor, cur); ended {
					break search
				}
			}
			for _, f := range g.TT.FootpathsFrom(s) {
				w.counters.Relaxed++
				head, arrTent := g.StationNode(f.To), key+f.Walk
				if !w.admits(head, arrTent, limit, floor, cur) {
					continue
				}
				if anc != nil {
					w.pushAnc(&c, head, cur)
				}
				row[head] = label{key: arrTent, stamp: cur}
				heap.Push(int32(head), arrTent)
				w.counters.QueuePushes++
				if hasParents {
					res.setParent(int(head)*k+i, v, -1)
				}
			}
		}
	}
}

// admits reports whether connection cur (stamps from floor on this query)
// may give node v the key arr: arr is below limit and v's record holds no
// key at or below it. A refusal counts as a pruning where the search could
// have kept the label: the stopping criterion (Theorem 2) in a
// station-to-station query, or self-pruning (Theorem 1) by a later
// connection's record.
func (w *spcsWorker) admits(v graph.NodeID, arr, limit timeutil.Ticks, floor, cur uint32) bool {
	if arr >= limit {
		if w.q != nil && !arr.IsInf() {
			w.counters.PrunedConns++
		}
		return false
	}
	if l := &w.ws.row[v]; l.stamp >= floor && arr >= l.key {
		if l.stamp != cur {
			w.counters.PrunedConns++
		}
		return false
	}
	return true
}

// pushAnc does the ancestor bookkeeping of queueing station node v for the
// connection of stamp cur, before v's record is written: a label of the
// connection that the push replaces leaves the count of labels without a
// transfer-station ancestor first (a settled one is never replaced: see
// run), and the new label inherits the flag of the node it comes from.
func (w *spcsWorker) pushAnc(c *s2sConn, v graph.NodeID, cur uint32) {
	anc := w.ws.anc
	if w.ws.row[v].stamp == cur && !anc[v] {
		c.noAnc--
	}
	if !c.childAnc {
		c.noAnc++
	}
	anc[v] = c.childAnc
}

// sameRide reports whether key, which connection cur (stamps from floor on
// this query) brings to route node u by a board, a ride or a seed, catches
// the departure u's ride cursor last caught in this query (rideCursor.same).
// The head of u's ride already holds that arrival or a better one, so the
// key adds no label and is refused unevaluated: a board without a record
// at u, a ride-in or a seed without evaluating u's ride. It counts as a
// pruning when a later connection took that departure (Theorem 1); the
// caller counts the relaxation.
func (w *spcsWorker) sameRide(u graph.NodeID, key timeutil.Ticks, floor, cur uint32) bool {
	c := &w.ws.rides[u]
	if !c.same(key, floor) {
		return false
	}
	if c.stamp != cur {
		w.counters.PrunedConns++
	}
	return true
}

// scan rides a trip forward from route node u, which connection i (stamp
// cur) reaches at key, a key the bound, u's ride cursor and u's record have
// admitted: boarded from station from, or, with from NoNode, a popped seed
// whose record already holds key. At each route node but the seed it writes
// the record (parent: the node it came from and the connection ridden); at
// each but the boarded one it queues the node's station at the alight key
// unless that station's record refuses it, and asks the node's cursor
// whether the key takes the ride it last took (sameRide; run asked it for
// the boarded node); otherwise it evaluates the node's ride through the
// cursor, moving on to the next route node while that node's record admits
// the arrival. Every key it writes is at least the key of the pop that
// started it, so stations stay label-setting, and a record this connection
// rewrites lower later is scanned again from there. It reports whether the
// connection ended and the bound of the worker's next one.
//
// One scan serves every query. With another worker publishing arrivals at
// T (s2sQuery.crossStop) the trip ends, counted as pruned, at a record
// whose key reaches the arrival of a later connection (Theorem 2), as a pop
// would end the connection. In a query the distance table prunes, each
// record it writes gets the table prunings (prune) a pop of that record
// would: a record pruned by Theorem 3 ends the trip there, and an answer by
// Theorem 4 ends the connection. A transfer-station ancestor that prune
// finds holds for the rest of the trip, and c.childAnc is restored for the
// caller's other boards when the trip ends. A station the scan queues gets
// the ancestor bookkeeping of run's pushes (pushAnc); its key, like every
// key the scan writes, is below limit, which only an answer that ends the
// connection lowers.
func (w *spcsWorker) scan(c *s2sConn, u graph.NodeID, key timeutil.Ticks, from graph.NodeID, i int, limit timeutil.Ticks, floor, qfloor, cur uint32) (bool, timeutil.Ticks) {
	g, res, ws, q := w.g, w.res, w.ws, w.q
	row, rides := ws.row, ws.rides
	k, hasParents := len(res.Deps), res.hasParents
	var stop *stopState // nil for one-to-all and a lone worker
	table, anc := false, false
	if q != nil {
		if q.crossStop {
			stop = &q.stop
		}
		table, anc = q.table != nil, q.targetIsTransfer
	}
	childAnc := c.childAnc
	// A boarded node's alight leads back to the station it was boarded
	// from, settled at or below key: refused, so not relaxed.
	alight, conn := from == graph.NoNode, timetable.ConnID(-1)
	for {
		if from != graph.NoNode {
			if stop != nil && stop.shouldPrune(i, key) {
				w.counters.PrunedConns++
				break
			}
			row[u] = label{key: key, stamp: cur}
			w.counters.SettledConns++
			if hasParents {
				res.setParent(int(u)*k+i, from, conn)
			}
			if table {
				act, bound := w.prune(c, i, u, key, limit, cur)
				if act == endConn {
					return true, bound
				}
				if act == skipNode {
					break
				}
			}
		}
		if alight {
			w.counters.Relaxed++
			st := g.StationNode(g.Station(u))
			if l := &row[st]; l.stamp < floor || key < l.key {
				if anc {
					w.pushAnc(c, st, cur)
				}
				*l = label{key: key, stamp: cur}
				ws.radix.Push(int32(st), key)
				w.counters.QueuePushes++
				if hasParents {
					res.setParent(int(st)*k+i, u, -1)
				}
			} else if l.stamp != cur {
				w.counters.PrunedConns++ // self-pruning (Theorem 1)
			}
			if w.sameRide(u, key, floor, cur) {
				w.counters.Relaxed++
				break
			}
		}
		alight = true
		conns, ok := g.Ride(u)
		if !ok {
			break // the route ends
		}
		w.counters.Relaxed++
		arr, ride := rides[u].eval(conns, g.TT.Period, key, qfloor, cur)
		if !w.admits(u+1, arr, limit, floor, cur) {
			break
		}
		from, u, key, conn = u, u+1, arr, ride
	}
	c.childAnc = childAnc
	return false, limit
}

// s2sConn is the station-to-station state of the connection being searched,
// restarted with each connection: γ, the count of its tentative labels whose
// path passed no transfer station, whether the node it settled last hands a
// transfer-station ancestor to the labels it pushes, whether that node still
// counts as open in noAnc (run), and how often µ fell (the prune memo's µ
// version).
type s2sConn struct {
	gamma    timeutil.Ticks
	noAnc    int
	childAnc bool
	open     bool
	muVer    uint32
}

// What the loop does with a node prune has seen.
const (
	expandNode = iota
	skipNode   // settled, not expanded (Theorem 3)
	endConn    // γ answered the connection (Theorem 4)
)

// pruneMemo is the last check prune made at one transfer station for the
// connection of stamp stamp: the key, the µ version after it, whether it
// pruned, and dT = D(st, T, key + T(st)), the value γ's answer test reads.
type pruneMemo struct {
	stamp uint32
	key   timeutil.Ticks
	muVer uint32
	dT    timeutil.Ticks
	skip  bool
}

// prune applies the table prunings (Theorems 3 and 4) to node v, which
// connection i (stamp cur) of a station-to-station query has just settled
// or scanned at key, and returns what the loop does with v and the bound of
// the worker's next connection.
//
// Each check costs one look-up per via station and one for the target, each
// returning D at key and at key + T(st) from one search (dtable.Table.D2).
// The station's memo entry skips the look-ups where they cannot change a
// thing: the connection's last check at st, at the same key with µ
// unchanged since, repeats its decision, and one that pruned at a key k′ ≤
// key prunes again. D is FIFO and µ only falls, so D(st, v_j, key) ≥
// D(st, v_j, k′) > µ_j then ≥ µ_j now, and neither µ nor γ can fall from a
// check at key (docs/PREPROCESSING.md). γ's answer test still runs, from the
// memo's dT at the same key.
func (w *spcsWorker) prune(c *s2sConn, i int, v graph.NodeID, key, limit timeutil.Ticks, cur uint32) (int, timeutil.Ticks) {
	q := w.q
	// The table prunings read D(st, ·, key) as the earliest arrival of
	// anything that continues from here. A table profile holds the
	// connections leaving st, not the walk that starts at st itself, so that
	// only holds where no footpath leaves: elsewhere st is neither pruned at
	// nor counted as a transfer-station ancestor.
	g, table := w.g, q.table
	st := g.Station(v)
	si := table.Index(st)
	if si < 0 || q.footpaths && len(g.TT.FootpathsFrom(st)) > 0 {
		return expandNode, limit
	}
	c.childAnc = true
	m := &w.ws.memo[si]
	var prune bool
	if m.stamp == cur && !q.noMemo && (m.skip && m.key <= key || m.key == key && m.muVer == c.muVer) {
		if q.targetIsTransfer && c.noAnc == 0 && m.dT == c.gamma {
			dT := m.dT
			if key != m.key {
				_, dT = table.D2(si, q.targetIdx, key, g.TT.Stations[st].Transfer)
			}
			if dT == c.gamma {
				return endConn, q.answer(i, dT, limit)
			}
		}
		prune = m.skip
	} else {
		// Target pruning (Theorem 4).
		transfer := g.TT.Stations[st].Transfer
		var dT timeutil.Ticks
		if q.targetIsTransfer {
			var d timeutil.Ticks
			if d, dT = table.D2(si, q.targetIdx, key, transfer); d < c.gamma {
				c.gamma = d
			}
			// γ is a feasible lower bound only once every tentative label
			// of i has a transfer-station ancestor: then the optimal path's
			// frontier passed a settled transfer station, which has already
			// contributed to γ.
			if c.noAnc == 0 && dT == c.gamma {
				return endConn, q.answer(i, dT, limit)
			}
		}
		// Distance-table pruning (Theorem 3): refresh µ_j, then prune v if
		// it provably cannot improve any via station.
		prune = true
		mu := w.ws.mu
		for j, vj := range q.vias {
			d, dj := table.D2(si, vj.idx, key, transfer)
			if dj += vj.transfer; dj < mu[j] {
				mu[j] = dj
				c.muVer++
			}
			if d <= mu[j] {
				prune = false
			}
		}
		*m = pruneMemo{stamp: cur, key: key, muVer: c.muVer, dT: dT, skip: prune}
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
	for _, u := range g.Boards(res.Source) {
		n += w.seedNode(u, dep, limit, floor, cur)
	}
	return n
}

// seedNode queues node v at key for the connection of stamp cur, unless key
// reaches limit or a later connection is at v by then, and reports how many
// labels it queued (0 or 1).
func (w *spcsWorker) seedNode(v graph.NodeID, key, limit timeutil.Ticks, floor, cur uint32) int {
	if !w.admits(v, key, limit, floor, cur) {
		return 0
	}
	w.ws.row[v] = label{key: key, stamp: cur}
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
