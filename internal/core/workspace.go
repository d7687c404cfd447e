package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"transit/internal/dtable"
	"transit/internal/graph"
	"transit/internal/pq"
	"transit/internal/stationgraph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// Workspace owns every array, map and priority queue a query needs, so the
// steady state allocates nothing: the paper's C++ implementation keeps its
// search data structures alive across queries per thread, and Workspace is
// the Go equivalent. A search checks the workspace out, bumps its
// generation, and runs; parent links and marks are valid only when their
// stamp equals the current generation, and label records and ride
// cursors only when theirs is at least the query's first row stamp, so
// "reset to Infinity / untouched" is a single counter increment instead of
// an O(numNodes·k) sweep. The one-to-all station arrivals (the time-query's
// too) are the exception: numStations × k unstamped values, filled with
// Infinity when a search starts.
//
// A Workspace is NOT safe for concurrent use: one query at a time. Use the
// package free list (GetWorkspace / PutWorkspace) or one workspace per
// worker goroutine for concurrency. Results returned by the workspace query
// methods (OneToAll, StationToStation, TimeQuery, …) borrow workspace
// memory and are valid only until the next query on the same workspace —
// copy out what must survive (ProfileResult.Detach), or run the query on a
// workspace of its own (NewWorkspace), which lives as long as the result.
type Workspace struct {
	// gen is the query generation: it stamps the one-to-all parent links,
	// the time-query's target marks and the connection scan's arrivals and
	// trips aboard.
	gen uint32

	// One-to-all arrival store arr(T, i) at station nodes, numStations × k
	// row-major, plus numNodes × k generation-stamped parent links for
	// journey extraction. Written by all SPCS workers (at disjoint indexes),
	// read through the result types.
	arr        []timeutil.Ticks
	parentNode []graph.NodeID
	parentConn []timetable.ConnID
	parentGen  []uint32

	// Seed scratch for conn(S) construction (walk.go).
	conns []timetable.ConnID
	deps  []timeutil.Ticks
	seeds []connSeed
	walk  map[timetable.StationID]timeutil.Ticks
	wseen map[timetable.StationID]bool

	// Station-indexed scratch: the CSA baseline's arrivals, and the
	// time-query's target marks (spcsWorker.targets).
	nodeArr    []timeutil.Ticks
	nodeArrGen []uint32
	nodeSetGen []uint32

	// CSA scratch.
	aboardGen []uint32
	dayIdx    []int
	walkQueue []timetable.StationID

	// Distance-table pruning scratch: isTransfer is rebuilt only when the
	// query runs against a different table than the previous one. vias is
	// the reusable via-station DFS state (marks + result slices), so the
	// distance-table query path computes via(T) without allocating.
	isTransfer []bool
	lastTable  *dtable.Table
	vias       stationgraph.Vias
	viaRefs    []viaRef

	// Partition boundary buffer.
	bounds []int

	// noMemo makes every table check of a station-to-station query look its
	// values up (spcsWorker.prune), which the tests compare the memo with.
	noMemo bool

	// Per-thread search scratch, one entry per worker.
	workers   []*workerSpace
	spcsBuf   []spcsWorker
	perThread []stats.Counters
	s2q       s2sQuery

	// Reusable result shells (returned by the workspace query methods).
	pres ProfileResult
	sres StationQueryResult
	tres TimeQueryResult
	cres ConnectionScanResult
	pt1  [1]stats.Counters
}

// connSeed pairs a seed connection with its effective departure (walk.go).
type connSeed struct {
	id  timetable.ConnID
	dep timeutil.Ticks
}

// label is one record of the settle loop's row: the best key pushed for a
// node so far and the stamp of the connection that set it (package comment,
// "Queue and label layout"; the time-query and the point query are the
// loop's one-connection form). A stamp below the query's floor belongs to an earlier query and
// reads as "untouched". One 8-byte load therefore answers "queued?" and "is
// this key better?", which the addressable heap needed three arrays
// (settled stamps, heap positions, position stamps) for.
type label struct {
	key   timeutil.Ticks
	stamp uint32
}

// maxGen is where the stamp counters wrap: Workspace.gen, and the row
// counter workerSpace.rowGen, which a query advances once per connection.
const maxGen = 1 << 31

// workerSpace is the per-thread portion of a workspace: the priority queue
// and the label arrays a single search worker owns exclusively.
type workerSpace struct {
	// radix is the monotone queue of every search a Plan runs: the settle
	// loop (spcsWorker: one-to-all, station-to-station and their k = 1
	// forms) and the Pareto search (paretoWorker).
	radix pq.RadixHeap

	// row is the label row of those searches, one record per node
	// (spcsWorker) or per (node, layer) pair (paretoWorker), and rides holds
	// one ride cursor per record. A pooled workspace keeps the largest size
	// it was grown to: after a Pareto query that is about numNodes ×
	// (maxTransfers+1) × 24 B (an 8-byte record and a 16-byte cursor each).
	// Both are stamped per connection from rowGen, a counter of its own: it
	// advances k times per query, so it wraps 2^31/k times sooner than the
	// workspace generation. A search over fewer records reads the longer
	// row's stamps as an earlier query's.
	row    []label
	rides  []rideCursor
	rowGen uint32

	// Station-to-station pruning state of the connection being searched
	// (spcsWorker.run with q set): µ per via station, refilled per
	// connection, and one ancestor flag per node, written with every row
	// record the connection sets before it can be read.
	mu  []timeutil.Ticks
	anc []bool
	// memo holds, per transfer station of the table, the last Section 4
	// check of a connection (spcsWorker.prune), stamped from rowGen like
	// the row.
	memo []pruneMemo
}

// beginRow readies the row and the ride cursors for one query of k
// connections over n nodes and returns the first stamp it will draw. The
// stamps of one query are that floor, floor+1, …, one per connection;
// anything below it is an earlier query's. Room for the whole query is made
// before the first stamp is drawn: a query that would cross the limit sweeps
// the row, the cursors and the prune memo and starts the counter over, so no
// record or cursor stamped just below the limit can read as this query's,
// and no memo entry of a query before the wrap can match a stamp drawn
// after it.
func (w *workerSpace) beginRow(n, k int) uint32 {
	w.row = grow(w.row, n)
	w.rides = grow(w.rides, n)
	if w.rowGen > maxGen-uint32(k) {
		clear(w.row[:cap(w.row)])
		clear(w.rides[:cap(w.rides)])
		clear(w.memo[:cap(w.memo)])
		w.rowGen = 0
	}
	return w.rowGen + 1
}

// NewWorkspace returns an empty workspace; arrays grow on first use and are
// then reused forever.
func NewWorkspace() *Workspace {
	return &Workspace{
		gen:   0,
		walk:  make(map[timetable.StationID]timeutil.Ticks),
		wseen: make(map[timetable.StationID]bool),
	}
}

// wsFree is the package free list of workspaces. It is a plain stack, not
// a runtime-managed pool, because a grown workspace is tens of megabytes of
// search arrays that the garbage collector must not reclaim between two
// queries: a purged workspace is re-grown (and re-zeroed) by the next
// one-to-all query, which costs more than the search itself. The list is
// bounded at GOMAXPROCS entries — more workspaces than that cannot be
// running searches at once — and anything returned beyond the bound is left
// to the collector. LIFO order hands the most recently used (cache-warm,
// already grown) workspace to the next query.
var wsFree struct {
	mu         sync.Mutex
	free       []*Workspace
	gets, puts atomic.Uint64
}

// GetWorkspace checks a workspace out of the package free list, creating one
// when the list is empty. Pair with PutWorkspace once every result borrowed
// from it is dead.
func GetWorkspace() *Workspace {
	wsFree.gets.Add(1)
	wsFree.mu.Lock()
	if n := len(wsFree.free); n > 0 {
		ws := wsFree.free[n-1]
		wsFree.free[n-1] = nil
		wsFree.free = wsFree.free[:n-1]
		wsFree.mu.Unlock()
		return ws
	}
	wsFree.mu.Unlock()
	return NewWorkspace()
}

// PutWorkspace returns a workspace to the package free list. The caller must
// not touch the workspace — or any result obtained from it — afterwards.
func PutWorkspace(ws *Workspace) {
	wsFree.puts.Add(1)
	limit := runtime.GOMAXPROCS(0)
	wsFree.mu.Lock()
	if len(wsFree.free) < limit {
		wsFree.free = append(wsFree.free, ws)
	}
	wsFree.mu.Unlock()
}

// PoolStats reports cumulative workspace checkouts and returns. A widening
// gets−puts gap means callers are leaking workspaces (every leak is a
// future allocation the free list cannot serve).
func PoolStats() (gets, puts uint64) { return wsFree.gets.Load(), wsFree.puts.Load() }

// begin starts a new query generation. On the (once per 2^31 queries)
// stamp wrap-around every stamp array is wiped, so a stale slot can never
// collide with a live generation.
func (ws *Workspace) begin() uint32 {
	ws.gen++
	if ws.gen == maxGen {
		wipe(ws.parentGen)
		wipe(ws.nodeArrGen)
		wipe(ws.nodeSetGen)
		wipe(ws.aboardGen)
		ws.gen = 1
	}
	return ws.gen
}

// wipe zeroes the full capacity of a stamp slice.
func wipe(s []uint32) { clear(s[:cap(s)]) }

// grow returns s with length n, reusing the backing array when it is large
// enough. Contents are unspecified: callers overwrite eagerly or gate reads
// with stamps. A stamp slice re-exposes zeros (a fresh array) or stamps of
// past generations, and both read as "unset" because generations only grow
// between wipes.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ensureLabels dimensions the arrival store for ns station labels, all
// Infinity, and, when parents are tracked, the parent links for n labels.
func (ws *Workspace) ensureLabels(ns, n int, parents bool) {
	ws.arr = grow(ws.arr, ns)
	for li := range ws.arr {
		ws.arr[li] = timeutil.Infinity
	}
	if parents {
		ws.parentNode = grow(ws.parentNode, n)
		ws.parentConn = grow(ws.parentConn, n)
		ws.parentGen = grow(ws.parentGen, n)
	}
}

// worker returns the t-th per-thread scratch space, creating it on demand.
func (ws *Workspace) worker(t int) *workerSpace {
	for len(ws.workers) <= t {
		ws.workers = append(ws.workers, &workerSpace{})
	}
	return ws.workers[t]
}

// counters returns a zeroed per-thread counter slice of length nw.
func (ws *Workspace) counters(nw int) []stats.Counters {
	ws.perThread = grow(ws.perThread, nw)
	clear(ws.perThread)
	return ws.perThread
}

// transferMarks returns the isTransfer array for a distance table, rebuilt
// only when the table changed since the last query on this workspace.
func (ws *Workspace) transferMarks(table *dtable.Table, ns int) []bool {
	if ws.lastTable == table && len(ws.isTransfer) == ns {
		return ws.isTransfer
	}
	ws.isTransfer = grow(ws.isTransfer, ns)
	clear(ws.isTransfer)
	for _, s := range table.Stations() {
		ws.isTransfer[s] = true
	}
	ws.lastTable = table
	return ws.isTransfer
}
