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
// generation, and runs; label, settled and parent slots are valid only when
// their stamp equals the current generation, so "reset to Infinity /
// unsettled" is a single counter increment instead of an O(numNodes·k)
// sweep.
//
// A Workspace is NOT safe for concurrent use: one query at a time. Use the
// package free list (GetWorkspace / PutWorkspace) or one workspace per
// worker goroutine for concurrency. Results returned by the workspace query
// methods (OneToAll, StationToStation, TimeQuery, …) borrow workspace
// memory and are valid only until the next query on the same workspace —
// copy out what must survive (ProfileResult.Detach), or use the
// package-level functions, which return self-contained results.
type Workspace struct {
	// gen stays below maxGen so that the fused label stamps (gen<<1 | settled
	// bit) fit a uint32.
	gen uint32

	// Shared profile label store arr(v, i), numNodes × k row-major, plus
	// parent links for journey extraction. Written by all SPCS workers (at
	// disjoint indexes), read through the result types.
	arr        []timeutil.Ticks
	arrGen     []uint32
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
	// time-query's target marks.
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

	// Partition boundary buffer.
	bounds []int

	// Per-thread search scratch, one entry per worker.
	workers   []*workerSpace
	spcsBuf   []spcsWorker
	s2sBuf    []s2sWorker
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

// label is the fused search state of one (node, connection) pair in the
// connection-setting profile loops: the best key pushed for it so far and a
// stamp that says what that key means. stamp == gen<<1 is "tentative, queued
// with this key", gen<<1|1 is "settled"; any other value belongs to an
// earlier query and reads as "untouched". One 8-byte load therefore answers
// "settled?", "queued?" and "is this key better?", which the addressable
// heap needed three arrays (settled stamps, heap positions, position
// stamps) for.
type label struct {
	key   timeutil.Ticks
	stamp uint32
}

// maxGen bounds Workspace.gen so gen<<1|1 cannot overflow a label stamp.
const maxGen = 1 << 31

// workerSpace is the per-thread portion of a workspace: the priority queues
// and the label arrays a single search worker owns exclusively.
type workerSpace struct {
	// radix is the monotone queue of the two profile loops (spcsWorker,
	// s2sWorker) and of the time-query; binary serves the searches that need
	// decrease-key or non-monotone pushes (Pareto layers, label-correcting).
	radix  pq.RadixHeap
	binary *pq.Heap

	labels     []label // kLocal × numNodes, row per connection (time-query: one row)
	maxconn    []int32 // numNodes; valid when maxconnGen matches
	maxconnGen []uint32

	// Station-to-station pruning state. anc needs no stamps: every entry is
	// written on its first push of a query before it can be read (see
	// s2sWorker.push). The k-sized arrays are refilled eagerly — they are
	// O(k·|via|), not O(n·k), so a sweep is cheap.
	anc        []bool // kLocal × numNodes, indexed like labels
	mu         []timeutil.Ticks
	gamma      []timeutil.Ticks
	connDone   []bool
	noAncCount []int
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
		wipe(ws.arrGen)
		wipe(ws.parentGen)
		wipe(ws.nodeArrGen)
		wipe(ws.nodeSetGen)
		wipe(ws.aboardGen)
		for _, w := range ws.workers {
			clear(w.labels[:cap(w.labels)])
			wipe(w.maxconnGen)
		}
		ws.gen = 1
	}
	return ws.gen
}

// wipe zeroes the full capacity of a stamp slice.
func wipe(s []uint32) { clear(s[:cap(s)]) }

// growTicks returns s with length n, reusing the backing array when it is
// large enough. Contents are unspecified — callers gate reads with stamps
// or overwrite eagerly.
func growTicks(s []timeutil.Ticks, n int) []timeutil.Ticks {
	if cap(s) < n {
		return make([]timeutil.Ticks, n)
	}
	return s[:n]
}

// growU32 returns a stamp slice of length n. Newly exposed entries are
// either zero (fresh array) or stamps of past generations; both read as
// "unset" because generations only grow between wipes.
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// growLabels returns a label slice of length n; like growU32, entries from
// earlier generations read as untouched.
func growLabels(s []label, n int) []label {
	if cap(s) < n {
		return make([]label, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// ensureLabels dimensions the shared label store for n labels.
func (ws *Workspace) ensureLabels(n int, parents bool) {
	ws.arr = growTicks(ws.arr, n)
	ws.arrGen = growU32(ws.arrGen, n)
	if parents {
		if cap(ws.parentNode) < n {
			ws.parentNode = make([]graph.NodeID, n)
			ws.parentConn = make([]timetable.ConnID, n)
		} else {
			ws.parentNode = ws.parentNode[:n]
			ws.parentConn = ws.parentConn[:n]
		}
		ws.parentGen = growU32(ws.parentGen, n)
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
	if cap(ws.perThread) < nw {
		ws.perThread = make([]stats.Counters, nw)
	}
	ws.perThread = ws.perThread[:nw]
	clear(ws.perThread)
	return ws.perThread
}

// transferMarks returns the isTransfer array for a distance table, rebuilt
// only when the table changed since the last query on this workspace.
func (ws *Workspace) transferMarks(table *dtable.Table, ns int) []bool {
	if ws.lastTable == table && len(ws.isTransfer) == ns {
		return ws.isTransfer
	}
	ws.isTransfer = growBool(ws.isTransfer, ns)
	clear(ws.isTransfer)
	for _, s := range table.Stations() {
		ws.isTransfer[s] = true
	}
	ws.lastTable = table
	return ws.isTransfer
}

// heap returns the worker's addressable binary heap, reset for maxItems
// items. The pos index reuse inside pq.Heap.Reset is what makes this O(1)
// instead of O(maxItems).
func (w *workerSpace) heap(maxItems int) *pq.Heap {
	if w.binary == nil {
		w.binary = pq.New(maxItems)
	} else {
		w.binary.Reset(maxItems)
	}
	return w.binary
}
