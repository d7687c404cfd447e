// Package core implements the paper's algorithms: the self-pruning
// connection-setting (SPCS) one-to-all profile search of Section 3 and its
// parallelization, the time-query of Section 2 as its one-connection case,
// the station-to-station query of Section 4 with stopping criterion,
// distance-table pruning and target pruning, the multi-criteria search of
// its Section 6 (arrival time and transfers) as layered connection-setting
// on the one-to-all schedule, and the label-correcting profile-search
// baseline.
//
// Every one of them but the multi-criteria search and the baseline runs one
// settle loop, spcsWorker.run; station-to-station is that loop with Section
// 4's prunings switched on. A query that names a departure is its k = 1
// case, not a loop of its own. Workspace.TimeQuery is one virtual
// connection leaving S at τ, seeded at the station node and every route
// node of S, whose arrivals land in the numStations × 1 store; TimeQueryTo
// returns when the last of a target set settles, which is a matrix row.
// Workspace.EarliestArrival is the same virtual connection, seeded the same
// way, pruned by the table like a profile query, returning when the target
// settles. Workspace.JourneySearch puts a windowed one-to-all search with
// parents behind that point query — only the connections that leave
// between the request and the earliest arrival, and no label later than it
// — and returns a result that contains the itinerary a whole-period search
// would show first (journey.go has the argument). The tests check the
// arrivals of every search against the connection scan (CSASchedule,
// Dibbelt et al.), and the package transit tests check the Pareto profiles
// against a round-based scan (RAPTOR, Delling, Pajor, Werneck), round r for
// r transfers; neither shares code with the graph searches.
//
// # Workspaces and generation-stamped labels
//
// The paper reports per-query times in the low milliseconds because its
// C++ implementation keeps every search data structure alive between
// queries, once per thread. This package reproduces that discipline with
// the Workspace type: a bundle owning the label arrays (the station
// arrivals and parents of one-to-all results, the label row and ride
// cursors of the settle loop and the Pareto search), the
// station-to-station pruning state (µ per via station, one ancestor flag
// per node), the seed scratch (conn(S) and walk distances) and the
// priority queue of internal/pq, with one workerSpace per search thread.
//
// Resetting a workspace between queries is O(1), not O(numNodes·k): each
// resettable slot carries a uint32 stamp, and a query begins by moving a
// counter on. A slot stamped by an earlier query reads as "Infinity" or
// "untouched", so the previous query's data simply becomes invisible
// instead of being swept. The workspace generation stamps the one-to-all
// parent links, the time-query's target marks and the connection scan's
// arrivals and trips aboard; it wraps around once every 2^31 queries, at
// which point (and only then) one real sweep runs.
//
// The one-to-all arrivals carry no stamp. They are kept at station nodes
// only, numStations × k in the layout a detached result uses, and a search
// fills them with Infinity before it starts, a sweep the size of the copy
// Detach makes.
//
// The label row and the ride cursors of the settle loop and of the Pareto
// search (see below) are stamped per connection, not per query, from
// a counter of its own in each workerSpace. It advances k times per query,
// so it reaches the same 2^31 limit after 2^31/k queries (about 3.2 M at
// k = 672); a query that would cross it sweeps the whole row and all the
// cursors first, as long as any search made them, and starts the counter
// over, before it draws its first stamp.
//
// # Queue and label layout
//
// Every search a Plan runs uses pq.RadixHeap, a monotone bucket queue
// without a position index or decrease-key, over 8-byte label records {best key
// pushed, stamp}. Relaxing an edge compares against the head's record; an
// improvement overwrites it and, for a queued node, pushes a second queue
// entry, and the superseded entry stays queued until it surfaces and is
// dropped (lazy deletion). Parent links are written exactly when a record improves, so
// the last link written belongs to the final key.
//
// The settle loop (spcsWorker.run) searches a worker's connections one at a
// time, latest departure first, each with its own queue over one
// numNodes-sized row of records. Before connection i starts, the row holds, at every node
// v the worker has reached, best(v) = min over j > i of the key connection
// j left at v: the search of connection j leaves its keys in the row, and a
// later search only ever lowers them. Connection i refuses a seed or a push whose key is at least best(head) —
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
// Stations are queued, trips are scanned. A route node has two out-edges,
// its Alight edge of weight 0 and at most one Ride edge to the next route
// node, so every key it hands on is at least its own, and it can be
// expanded the moment its record is written. Without a distance table the
// loop queues no route node but the seeds: when a station settles at key,
// each of its Board edges hands key + T(S) to spcsWorker.scan, which rides
// the trip forward at once. At each route node the scan writes the record,
// queues the node's station at the alight key unless that station's record
// refuses it, and evaluates the ride edge; it moves on while the next
// node's record admits the arrival, and stops at limit, at the end of the
// route, or at a record that refuses the key, either because a later
// connection is there no later (Theorem 1) or because this connection
// already reached the node no later and scanned on from there. A record the
// connection later rewrites lower is scanned again from that node. Every
// key a scan writes is at least the key of the pop that started it, so no
// push undercuts a pop and stations stay label-setting: a station pops at
// its final key. Route records only fall, within a connection (a write
// needs a lower key) and across the connections of a query (self-pruning).
// A boarded node's own alight leads back to the station that just settled
// and is refused, so it is not relaxed. This is RAPTOR's route scan
// (Delling, Pajor, Werneck, ALENEX 2012) on the paper's schedule, with the
// trip-following step of CSA's trip bits (Dibbelt, Pajor, Strasser,
// Wagner, SEA 2013). The counters keep Table 1's meaning: SettledConns is
// station settles plus route-record writes, and the queue counters count
// stations, seeds and, under a table, route records. A table query queues
// every route record as before, because Theorems 3 and 4 and the ancestor
// count read route nodes at pops: one predicate at the two hand-over sites,
// the board and the ride head, chooses the scan or the queue.
//
// Station-to-station (spcsWorker.q set) adds Section 4's prunings to the
// same loop behind one branch per pop that no iteration changes (no policy
// interface or type parameter: Go would call either indirectly), with the
// table prunings in spcsWorker.prune, out of the loop body. Theorems 2–4
// compare connection i with connections that leave later, and those of the
// worker are finished before i starts. Their earliest arrival at T bounds
// every key i keeps (Theorem 2; what other workers publish through
// stopState is read at each pop when there are any), and i ends when T
// settles. µ, γ and the count of tentative labels without a
// transfer-station ancestor belong to the one connection being searched,
// beside one ancestor flag per node (Theorems 3–4). A connection cut short
// leaves tentative keys in the row; each is an arrival it achieves, so as
// bounds they refuse only dominated labels (docs/PREPROCESSING.md has that
// argument and the one for γ).
//
// The time-query and the point query are the loop's one-connection form,
// with one seed helper (spcsWorker.seed) for both. With no later connection
// to prune against, the row record is the node's label: a station's is
// tentative while its key is queued and final once the entry that carries
// it surfaces, so each station settles at most once, and a route record
// falls until the last scan that lowers it.
//
// A connection settles or writes node v only below every key a later
// connection left at v, and rewrites it only lower, so within one query each
// worker evaluates the node's ride edge at strictly falling keys. The next
// departure then only ever moves back through the edge's sorted
// departures: the worker keeps one ride cursor per node (rideCursor: the
// departure index of the last evaluation, the window (lo, hi] of keys that
// catch that departure on the same day, and a row stamp) and walks back
// from it instead of bisecting, which visits each departure at most once
// per day the keys pass through. It bisects when the cursor is from an
// earlier query, the key lies on another day, or the key rose, which only
// DisableSelfPruning allows. A node has at most one ride edge (a graph
// invariant the graph tests check), which is what lets the cursor be
// indexed by node; every evaluation returns what graph.EvalRide returns, so
// the cursor changes no label.
//
// Same ride: a key in (lo, hi] catches the departure the cursor's last
// evaluation caught, and arrives when it arrived. If that evaluation ran
// with a stamp at or after the row's floor, the head's record then took
// that arrival or held a better one; an arrival at or beyond limit recorded
// nothing and disarms the window instead. Records only fall within a query
// and limit never rises, so the record check would refuse the key now. The
// loop refuses it unevaluated (rideCursor.same) wherever it evaluates a
// ride, without loading the edge's departures or moving the cursor, and
// counts it in PrunedConns as the record check would have; answers and
// parents cannot change. Once trips are scanned, most ride evaluations are
// of freshly boarded nodes whose ride an earlier board of the same trip
// already took, and those are what the refusal saves.
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
// whole-period search in the same order, starts its scans from them in
// that order, and records the same parents (journey.go).
//
// The Pareto search (paretoWorker.run) is the one-to-all loop over a row of
// numNodes × (maxTransfers+1) records, one per (node, layer) pair, each
// with a ride cursor of its own; a Board edge moves a label one layer up,
// and none leaves the last. Its self-pruning is one rule, applied at push:
// (v, u) at key a is refused when a record (v, u′ ≤ u) stamped by this
// query holds a key ≤ a — the connection's own label with no more
// transfers, or a later connection's, which also leaves no earlier
// (Theorem 1, per layer). A record therefore settles at strictly falling
// keys across the connections of a query, as a node does in the one-to-all
// loop, and the station keys leave the row into numStations × k × layers
// arrivals the result owns. It keeps a loop of its own: at layers = 1 it
// takes no Board edge (a board would leave the last layer), which one-to-all
// takes, so a fold would branch per edge on the caller and add a division by
// the layer count to every one-to-all settle.
//
// Only the label-correcting baseline keeps the addressable binary pq.Heap:
// it re-inserts nodes below the last popped key. It keeps every node's
// function in a numNodes × k array of its own and returns the station rows
// of it.
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
// OneToAllPareto does both itself: it checks a workspace out, runs the
// search on it, and returns a result that owns its arrivals and its copies
// of the seed list and the walk distances. LabelCorrecting, the baseline,
// allocates its arrays per call.
//
// The stopping criterion's cross-thread state (stopState) packs a
// connection index and an arrival into one atomic word; the arrival half
// relies on timeutil.Ticks being 32-bit, which is asserted at compile time
// in query.go.
package core
