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
// the Workspace type: a bundle owning the label arrays (the station
// arrivals and parents of one-to-all results, the profile loops' label row
// and ride cursors, the time-query's labels), the station-to-station
// pruning state (µ per via station, one ancestor flag per node), the seed
// scratch (conn(S) and walk distances) and the priority queues of
// internal/pq, with one workerSpace per search thread.
//
// Resetting a workspace between queries is O(1), not O(numNodes·k): each
// resettable slot carries a uint32 stamp, and a query begins by moving a
// counter on. A slot stamped by an earlier query reads as "Infinity" or
// "untouched", so the previous query's data simply becomes invisible
// instead of being swept. The workspace generation stamps the one-to-all
// parent links and the time-query's labels; it wraps around once every 2^31
// queries, at which point (and only then) one real sweep runs.
//
// The one-to-all arrivals carry no stamp. They are kept at station nodes
// only, numStations × k in the layout a detached result uses, and a search
// fills them with Infinity before it starts, a sweep the size of the copy
// Detach makes.
//
// The label row and the ride cursors of the two profile loops (see below)
// are stamped per connection, not per query, from a counter of its own in
// each workerSpace. It advances k times per query, so it reaches the same
// 2^31 limit after 2^31/k queries (about 3.2 M at k = 672); a query that
// would cross it sweeps the row and the cursors first and starts the counter
// over, before it draws its first stamp.
//
// # Queue and label layout
//
// All searches run on pq.RadixHeap, a monotone bucket queue without a
// position index or decrease-key, over 8-byte label records {best key
// pushed, stamp}. Relaxing an edge compares against the head's record; an
// improvement overwrites it and pushes a second queue entry, and the
// superseded entry stays queued until it surfaces and is dropped (lazy
// deletion). Parent links are written exactly when a record improves, so
// the last link written belongs to the final key.
//
// Both profile loops — one-to-all (spcsWorker.run: one-to-all profiles,
// journeys' window search and distance-table rows) and station-to-station
// (s2sWorker.run: profiles and earliest arrivals) — search a worker's
// connections one at a time, latest departure first, each with its own
// queue over one numNodes-sized row of records. Before connection i starts,
// the row holds, at every node v the worker has reached, best(v) = min over
// j > i of the key connection j left at v: the search of connection j
// leaves its keys in the row, and a later search only ever lowers them.
// Connection i refuses a seed or a push whose key is at least best(head) —
// Theorem 1's self-pruning, with the later connection's label complete
// before the earlier one asks, so a dominated label never enters the queue.
// What the global-queue formulation of Section 3 prunes when a pair
// surfaces is exactly that: it settles (v, j) before (v, i) whenever
// arr(v, j) < arr(v, i). Only ties differ (a tie is now always refused),
// and a tied label is dominated, so the reduced profiles are identical. The
// record of a node stamped by connection i itself is i's tentative label;
// an entry whose key is no longer the record's is superseded, and since no
// push ties or undercuts a settled key, the entry that carries the record's
// key surfaces once and settles it. The search keeps numNodes records per
// worker, whatever k is, where one queue over all connections needed
// numNodes × k. Of the keys a connection settles, one-to-all copies out only
// those of station nodes, into arr(T, i): Section 3.1 reads a station's
// profile off its station node's labels, and a route node's key is read by
// self-pruning alone, through the row. A distance-table row reduces every
// target's arr(T, ·), read in place, into its build worker's reused point
// buffer (ProfileResult.AppendStationProfile) and keeps one exact-size copy:
// the table is one point arena per row with CSR offsets, so a look-up
// D(S, T, τ) is a binary search over a sub-slice (internal/dtable).
//
// Station-to-station adds Section 4's prunings on the same schedule.
// Theorems 2–4 compare connection i with connections that leave later, and
// on this schedule the worker's later connections are finished before i
// starts. The earliest arrival at T among them bounds every key i keeps
// (Theorem 2; the bound another worker published through stopState is read
// at each pop), and i ends when T settles. µ, γ and the count of tentative
// labels without a transfer-station ancestor belong to the one connection
// being searched, beside one ancestor flag per node (Theorems 3–4). A
// connection cut short leaves tentative keys in the row; each is an arrival
// it achieves, so as bounds they refuse only dominated labels
// (docs/PREPROCESSING.md has that argument and the one for γ). The
// time-query is the one-connection form, with one record per node stamped
// from the workspace generation: gen<<1 while tentative, gen<<1|1 once
// settled.
//
// A connection settles node v only below every key a later connection left
// at v, so within one query each worker settles every node at strictly
// falling keys, and evaluates the node's ride edge at falling keys too. The
// next departure then only ever moves back through the edge's sorted
// departures: the worker keeps one ride cursor per node (rideCursor: the
// day base, time point and departure index of the last evaluation, and a
// row stamp) and walks back from it instead of bisecting, which visits each
// departure at most once per day the keys pass through. It bisects when the
// cursor is from an earlier query, the key lies on another day, or the key
// rose, which only DisableSelfPruning allows. A node has at most one ride
// edge (a graph invariant the graph tests check), which is what lets the
// cursor be indexed by node; every evaluation returns what graph.EvalRide
// returns, so the cursor changes no label.
//
// The monotonicity invariant that makes this exact: keys are arrival times,
// every edge weight is ≥ 0 (board T(S) ≥ 0, alight 0, walk ≥ 0, ride = wait
// + duration ≥ 0), and every seed is pushed before the first pop of its
// queue — so no push is ever below the last popped key, and entries surface
// in non-decreasing key order (pq.RadixHeap panics under `go test` if a
// caller breaks this). Hence the first entry of a pair to surface carries
// the pair's smallest key, which is the record's key and final by the
// label-setting property, and every later entry of the pair is recognised
// and discarded before any pruning rule or work counter sees it. Two
// entries with equal keys surface in the reverse of the order they were
// pushed in, whatever else the queue holds — which is why a search over
// fewer connections (JourneySearch) settles the labels it shares with the
// whole-period search in the same order and records the same parents.
//
// The Pareto search and the label-correcting baseline keep the addressable
// binary pq.Heap (the last one re-inserts nodes below the last popped key).
// Label-correcting keeps every node's function in a numNodes × k array of
// its own and returns the station rows of it.
//
// # Lifecycle
//
// A Workspace serves one query at a time and is not safe for concurrent
// use. Every search runs as a Workspace method (Workspace.OneToAll,
// Workspace.StationToStation, Workspace.EarliestArrival,
// Workspace.JourneySearch, Workspace.TimeQuery, CSASchedule.QueryWS): zero
// steady-state allocations; the result borrows workspace memory and is
// valid only until the next query on the same workspace. Check workspaces
// out of the package free list with GetWorkspace/PutWorkspace — this is
// what Plan does per request — or keep one per worker. The free list holds
// up to GOMAXPROCS grown workspaces and, unlike a runtime-managed pool,
// keeps them across garbage collections; ProfileResult.Detach copies the
// station rows out of a one-to-all result before the workspace goes back.
//
// The stopping criterion's cross-thread state (stopState) packs a
// connection index and an arrival into one atomic word; the arrival half
// relies on timeutil.Ticks being 32-bit, which is asserted at compile time
// in query.go.
package core
