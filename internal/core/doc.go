// Package core implements the paper's algorithms: the time-query
// (time-dependent Dijkstra), the label-correcting profile-search baseline,
// the self-pruning connection-setting (SPCS) one-to-all profile search of
// Section 3, its parallelization, and the station-to-station query of
// Section 4 with stopping criterion, distance-table pruning and target
// pruning.
//
// A query that names a target and a departure is served by the same two
// searches, not by loops of its own. Workspace.EarliestArrival is the k = 1
// case of the station-to-station search: one virtual connection leaving at
// the requested time, seeded like a time-query, pruned by the table like a
// profile query, returning when the target settles. Workspace.JourneySearch
// puts a windowed one-to-all search with parents behind that point query —
// only the connections that leave between the request and the earliest
// arrival, and no label later than it — and returns a result that contains
// the itinerary a whole-period search would show first (journey.go has the
// argument). Workspace.TimeQuery remains the one-to-all point search: matrix
// rows (TimeQueryTo stops at the last of a target set), oracles, baselines.
//
// # Workspaces and generation-stamped labels
//
// The paper reports per-query times in the low milliseconds because its
// C++ implementation keeps every search data structure alive between
// queries, once per thread. This package reproduces that discipline with
// the Workspace type: a bundle owning the label arrays (arr, the fused
// search labels, maxconn, parents), the pruning state (µ, γ, ancestor
// flags), the seed scratch (conn(S) and walk distances) and the priority
// queues of internal/pq, with one workerSpace per search thread.
//
// Resetting a workspace between queries is O(1), not O(numNodes·k): each
// resettable slot carries a uint32 generation stamp, and a query begins by
// incrementing the workspace generation. A label is "Infinity", a pair
// "untouched" and maxconn "-1" unless its stamp belongs to the current
// generation, so the previous query's data simply becomes invisible instead
// of being swept. Generations wrap around once every 2^31 queries, at which
// point (and only then) one real sweep runs.
//
// # Queue and label layout
//
// The two connection-setting profile loops (spcsWorker.run for one-to-all,
// journeys and distance-table rows; s2sWorker.run for station-to-station
// profiles and earliest arrivals) share one design, and the time-query is
// its one-connection form with a label per node. The queue is
// pq.RadixHeap, a monotone bucket queue without a position index or
// decrease-key. Each (node, connection) pair
// has one 8-byte record {best key pushed, stamp}, stamp = gen<<1 while
// tentative and gen<<1|1 once settled, stored connection-major (row i holds
// connection i's records in node order, so a train ride walks consecutive
// records). Relaxing an edge compares against the record; an improvement
// overwrites it and pushes a second queue entry, and the superseded entry
// stays queued until it surfaces and is dropped (lazy deletion).
//
// The monotonicity invariant that makes this exact: keys are arrival times,
// every edge weight is ≥ 0 (board T(S) ≥ 0, alight 0, walk ≥ 0, ride = wait
// + duration ≥ 0), and all seeds are pushed before the first pop — so no
// push is ever below the last popped key, and entries surface in
// non-decreasing key order (pq.RadixHeap panics under `go test` if a caller
// breaks this). Hence the first entry of a pair to surface carries the
// pair's smallest key, which is the record's key and final by the
// label-setting property; it flips the stamp to settled, and every later
// entry of the pair is recognised by that stamp and discarded before any
// pruning rule or work counter sees it. Parent links are written exactly
// when a record improves, so the last link written belongs to the final
// key. Only the order among equal keys differs from an addressable heap:
// self-pruning may then keep a different one of two tied labels, and the
// reduced profiles are identical either way. That order is nevertheless
// fixed: two entries with equal keys surface in the reverse of the order
// they were pushed in, whatever else the queue holds — which is why a search
// over fewer connections (JourneySearch) settles the labels it shares with
// the whole-period search in the same order and records the same parents.
//
// The Pareto search and the label-correcting baseline keep the addressable
// binary pq.Heap (the last one re-inserts nodes below the last popped key).
//
// # Lifecycle
//
// A Workspace serves one query at a time and is not safe for concurrent
// use. There are two ways to run a query:
//
//   - Workspace methods (Workspace.OneToAll, Workspace.StationToStation,
//     Workspace.EarliestArrival, Workspace.JourneySearch,
//     Workspace.TimeQuery, CSASchedule.QueryWS): zero steady-state
//     allocations; the result borrows workspace memory and is valid only
//     until the next query on the same workspace. Check workspaces out of
//     the package free list with GetWorkspace/PutWorkspace — this is what
//     Plan does per request — or keep one per worker. The free list holds
//     up to GOMAXPROCS grown workspaces and, unlike a runtime-managed pool,
//     keeps them across garbage collections; ProfileResult.Detach copies
//     the station rows out of a one-to-all result before the workspace
//     goes back.
//
//   - Package-level functions (OneToAll, StationToStation, TimeQuery,
//     LabelCorrecting, CSASchedule.Query): self-contained results. Big
//     results (profile searches) bind a private workspace that lives and
//     dies with the result; small results (station-to-station) run on a
//     pooled workspace and are detached by a copy of their O(k) vectors.
//
// The stopping criterion's cross-thread state (stopState) packs a
// connection index and an arrival into one atomic word; the arrival half
// relies on timeutil.Ticks being 32-bit, which is asserted at compile time
// in query.go.
package core
