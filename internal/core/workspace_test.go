package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// workspaceNet generates a small benchmark-family network for workspace
// tests.
func workspaceNet(t testing.TB) *graph.Graph {
	t.Helper()
	cfg, err := gen.FamilyConfig("oahu", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return graph.Build(tt)
}

// Reusing one workspace across many different queries must give exactly the
// answers of fresh searches: a single stale stamp surviving a generation
// bump would show up here as a wrong label.
func TestWorkspaceReuseMatchesFreshSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ws := NewWorkspace()
	for trial := 0; trial < 30; trial++ {
		tt := randomTimetable(t, rng)
		g := graph.Build(tt)
		src := timetable.StationID(rng.Intn(tt.NumStations()))

		reused, err := ws.OneToAll(g, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewWorkspace().OneToAll(g, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if reused.K() != fresh.K() {
			t.Fatalf("trial %d: k mismatch %d vs %d", trial, reused.K(), fresh.K())
		}
		for s := 0; s < tt.NumStations(); s++ {
			st := timetable.StationID(s)
			for i := 0; i < fresh.K(); i++ {
				if got, want := reused.StationArrival(st, i), fresh.StationArrival(st, i); got != want {
					t.Fatalf("trial %d: arr(%d,%d) = %d, fresh search says %d", trial, s, i, got, want)
				}
			}
		}

		dst := timetable.StationID(rng.Intn(tt.NumStations()))
		if dst == src {
			continue
		}
		env := QueryEnv{Graph: g}
		got, err := ws.StationToStation(env, src, dst, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewWorkspace().StationToStation(env, src, dst, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.ArrT {
			if got.ArrT[i] != want.ArrT[i] {
				t.Fatalf("trial %d: ArrT[%d] = %d, fresh query says %d", trial, i, got.ArrT[i], want.ArrT[i])
			}
		}
	}
}

// Journey extraction must also survive workspace reuse (parent links are
// generation-stamped too).
func TestWorkspaceReuseParents(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	ws := NewWorkspace()
	for trial := 0; trial < 10; trial++ {
		tt := randomTimetable(t, rng)
		g := graph.Build(tt)
		src := timetable.StationID(rng.Intn(tt.NumStations()))
		res, err := ws.OneToAll(g, src, Options{TrackParents: true})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tt.NumStations(); s++ {
			st := timetable.StationID(s)
			for i := 0; i < res.K(); i++ {
				if res.StationArrival(st, i).IsInf() {
					continue
				}
				rides, err := res.JourneyConnections(st, i)
				if err != nil {
					t.Fatalf("trial %d: journey (%d,%d): %v", trial, s, i, err)
				}
				for _, c := range rides {
					if int(c) < 0 || int(c) >= len(tt.Connections) {
						t.Fatalf("trial %d: bogus ride %d", trial, c)
					}
				}
			}
		}
	}
}

// Steady-state station-to-station queries through a reused workspace must
// not allocate: everything lives in the workspace after warm-up. This is
// the allocation-regression guard for the whole workspace subsystem.
func TestStationQuerySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := workspaceNet(t)
	env := QueryEnv{Graph: g}
	ws := NewWorkspace()
	ns := g.TT.NumStations()
	pair := func(i int) (timetable.StationID, timetable.StationID) {
		src := timetable.StationID((i * 31) % ns)
		dst := timetable.StationID((i*17 + 5) % ns)
		if src == dst {
			dst = timetable.StationID((int(dst) + 1) % ns)
		}
		return src, dst
	}
	// Warm up: grow every workspace array to its steady-state size.
	for i := 0; i < 8; i++ {
		src, dst := pair(i)
		if _, err := ws.StationToStation(env, src, dst, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(64, func() {
		src, dst := pair(i)
		i++
		if _, err := ws.StationToStation(env, src, dst, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	// A small constant tolerates incidental runtime allocations; the
	// pre-workspace implementation allocated tens of objects (hundreds of
	// KiB) per query here.
	if allocs > 2 {
		t.Fatalf("steady-state station query allocates %.1f objects/op, want ≤ 2", allocs)
	}

	// The time-query path must be allocation-free too, whole-graph and
	// stopped at a target set.
	i = 0
	targets := make([]timetable.StationID, 3)
	allocs = testing.AllocsPerRun(64, func() {
		src, dst := pair(i)
		i++
		res, err := ws.TimeQuery(g, src, 480, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_ = res.StationArrival(dst)
		targets[0], targets[1], targets[2] = dst, src, timetable.StationID(i%ns)
		if res, err = ws.TimeQueryTo(g, src, 480, targets, Options{}); err != nil {
			t.Fatal(err)
		}
		_ = res.StationArrival(dst)
	})
	if allocs > 2 {
		t.Fatalf("steady-state time query allocates %.1f objects/op, want ≤ 2", allocs)
	}
}

// TestStationQueryTablePathAllocs pins the distance-table query path to
// the same steady-state budget: the via-station DFS (ComputeViasInto runs
// on the workspace's reusable marks), the transfer-mark cache and the
// µ/γ pruning arrays must all reuse workspace memory.
func TestStationQueryTablePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := workspaceNet(t)
	sg := stationgraph.Build(g.TT)
	// A quarter of the stations: none of workspaceNet's has degree > 2, and
	// an empty table would leave the table path unused.
	marked := sg.SelectByContraction(g.NumStations() / 4)
	pre, err := BuildDistanceTable(g, marked, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	env := QueryEnv{Graph: g, StationGraph: sg, Table: pre.Table}
	ws := NewWorkspace()
	ns := g.TT.NumStations()
	pair := func(i int) (timetable.StationID, timetable.StationID) {
		src := timetable.StationID((i * 31) % ns)
		dst := timetable.StationID((i*17 + 5) % ns)
		if src == dst {
			dst = timetable.StationID((int(dst) + 1) % ns)
		}
		return src, dst
	}
	for i := 0; i < 8; i++ {
		src, dst := pair(i)
		if _, err := ws.StationToStation(env, src, dst, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(64, func() {
		src, dst := pair(i)
		i++
		if _, err := ws.StationToStation(env, src, dst, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	// Before ComputeVias moved onto the workspace this path allocated a
	// fresh Vias (two maps, stack, result slices) per query.
	if allocs > 2 {
		t.Fatalf("table-path station query allocates %.1f objects/op, want ≤ 2", allocs)
	}
}

// Concurrent workspace checkout: many goroutines hammer the pool with
// mixed queries and verify answers against a precomputed reference. Run
// with -race this doubles as the data-race test for the pool and the
// stamped arrays.
func TestWorkspacePoolConcurrent(t *testing.T) {
	g := workspaceNet(t)
	env := QueryEnv{Graph: g}
	ns := g.TT.NumStations()

	type key struct{ src, dst timetable.StationID }
	ref := map[key][]timeutil.Ticks{}
	var pairs []key
	for i := 0; i < 12; i++ {
		src := timetable.StationID((i * 13) % ns)
		dst := timetable.StationID((i*29 + 3) % ns)
		if src == dst {
			continue
		}
		res, err := NewWorkspace().StationToStation(env, src, dst, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		k := key{src, dst}
		ref[k] = res.ArrT
		pairs = append(pairs, k)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				k := pairs[(w*7+rep)%len(pairs)]
				ws := GetWorkspace()
				res, err := ws.StationToStation(env, k.src, k.dst, QueryOptions{})
				if err != nil {
					t.Error(err)
					PutWorkspace(ws)
					return
				}
				for i, want := range ref[k] {
					if res.ArrT[i] != want {
						t.Errorf("worker %d: ArrT[%d] = %d, want %d (src %d dst %d)",
							w, i, res.ArrT[i], want, k.src, k.dst)
						break
					}
				}
				PutWorkspace(ws)
			}
		}(w)
	}
	wg.Wait()
}

// drainFreeList empties the package free list so a test sees only the
// workspaces it puts there; later checkouts simply create new ones.
func drainFreeList() {
	wsFree.mu.Lock()
	clear(wsFree.free)
	wsFree.free = wsFree.free[:0]
	wsFree.mu.Unlock()
}

// A checked-in workspace must survive garbage collection: the grown search
// arrays are the whole point of keeping it, and a runtime-managed pool drops
// its contents every second GC cycle.
func TestFreeListSurvivesGC(t *testing.T) {
	drainFreeList()
	g := workspaceNet(t)
	ws := GetWorkspace()
	if _, err := ws.OneToAll(g, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	grown := cap(ws.arr)
	PutWorkspace(ws)
	runtime.GC()
	runtime.GC()
	got := GetWorkspace()
	defer PutWorkspace(got)
	if got != ws {
		t.Fatalf("workspace %p checked in, %p checked out after two GC cycles", ws, got)
	}
	if cap(got.arr) != grown || grown == 0 {
		t.Fatalf("label store shrank from %d to %d entries across GC", grown, cap(got.arr))
	}
}

// The free list keeps at most GOMAXPROCS workspaces — no more can be
// searching at once — and leaves the rest to the collector.
func TestFreeListBounded(t *testing.T) {
	drainFreeList()
	limit := runtime.GOMAXPROCS(0)
	out := make([]*Workspace, 3*limit+2)
	for i := range out {
		out[i] = GetWorkspace()
	}
	for _, ws := range out {
		PutWorkspace(ws)
	}
	wsFree.mu.Lock()
	held := len(wsFree.free)
	wsFree.mu.Unlock()
	if held != limit {
		t.Fatalf("free list holds %d workspaces after %d returns, want GOMAXPROCS = %d", held, len(out), limit)
	}
	// Most recently returned first, and nothing handed out twice.
	seen := map[*Workspace]bool{}
	for i := 0; i < limit; i++ {
		ws := GetWorkspace()
		if ws != out[limit-1-i] {
			t.Fatalf("checkout %d is not the workspace returned %d-th", i, limit-i)
		}
		if seen[ws] {
			t.Fatal("workspace handed out twice")
		}
		seen[ws] = true
	}
}

// thinnedCopy returns g's network with every other train cancelled: the same
// nodes, boards and footpaths, half the departures on the rides.
func thinnedCopy(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	var ups []timetable.ConnUpdate
	for _, c := range g.TT.Connections {
		if c.Train%2 == 1 {
			ups = append(ups, timetable.ConnUpdate{ID: c.ID, Cancel: true})
		}
	}
	ntt, err := g.TT.Patch(ups)
	if err != nil {
		t.Fatal(err)
	}
	return graph.Build(ntt)
}

// sameTicks fails the test unless got and want agree entry for entry.
func sameTicks(t *testing.T, what string, got, want []timeutil.Ticks) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, a fresh workspace gives %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: answer %d is %d, a fresh workspace says %d", what, i, got[i], want[i])
		}
	}
}

// stationArrivals flattens a one-to-all result into one answer vector.
func stationArrivals(res *ProfileResult) []timeutil.Ticks {
	var out []timeutil.Ticks
	for s := 0; s < res.g.NumStations(); s++ {
		for i := 0; i < res.K(); i++ {
			out = append(out, res.StationArrival(timetable.StationID(s), i))
		}
	}
	return out
}

// Both stamp counters wrap, and each wrap must wipe what it stamps.
//
// The workspace generation stamps, among others, the time-query's target
// marks. When it reaches the limit, begin wipes them: generation 1 comes
// round again, and a station marked by the first generation 1 would read as
// a target, whose settling stops the search before the real target settles.
//
// The row counter stamps the label row and the ride cursors of the settle
// loop, once per connection, so it reaches the same limit k times sooner. A
// query that would cross it wipes both and starts over at 1, before it draws
// its first stamp. The query just before ran right up to the limit: without
// the row sweep its records would read as bounds of later connections and
// prune labels a fresh workspace keeps, and without the cursor sweep its
// cursors would read as the next query's. A cursor only misleads a query on
// another graph that evaluates the node at an earlier key the same day, so
// the cursor round searches a late window of a thinned network up to the
// limit, then an earlier window of the full one.
func TestGenerationWrapWipesLabels(t *testing.T) {
	g := workspaceNet(t)
	src, dst := timetable.StationID(2), timetable.StationID(9)

	t.Run("generation", func(t *testing.T) {
		const depart = 600
		targets := []timetable.StationID{dst}
		want, err := NewWorkspace().TimeQueryTo(g, src, depart, targets, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want.StationArrival(dst).IsInf() {
			t.Fatalf("%d does not reach %d", src, dst)
		}
		ws := NewWorkspace()
		// Generation 1 marks every other station as a target.
		var others []timetable.StationID
		for s := 0; s < g.NumStations(); s++ {
			if st := timetable.StationID(s); st != dst {
				others = append(others, st)
			}
		}
		if _, err := ws.TimeQueryTo(g, src, depart, others, Options{}); err != nil {
			t.Fatal(err)
		}
		if ws.gen != 1 {
			t.Fatalf("first query ran under generation %d", ws.gen)
		}
		stale := 0
		for _, m := range ws.nodeSetGen {
			if m == 1 {
				stale++
			}
		}
		if stale != len(others) {
			t.Fatalf("generation 1 marked %d targets, want %d", stale, len(others))
		}

		ws.gen = maxGen - 1 // the next begin() wraps
		got, err := ws.TimeQueryTo(g, src, depart, targets, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ws.gen != 1 {
			t.Fatalf("generation after the wrap is %d, want 1", ws.gen)
		}
		if a, b := got.StationArrival(dst), want.StationArrival(dst); a != b {
			t.Fatalf("after the wrap arr(%d) = %d, fresh workspace says %d", dst, a, b)
		}
	})

	// toLimit runs q once to learn its partition, then sets every worker's
	// counter so that the next run of q draws its last stamp slack past the
	// limit, and returns the partition.
	toLimit := func(t *testing.T, ws *Workspace, threads int, slack uint32, q func() []timeutil.Ticks) []int {
		t.Helper()
		q()
		bounds := append([]int(nil), ws.bounds...)
		if len(bounds) != threads+1 {
			t.Fatalf("partition %v for %d threads", bounds, threads)
		}
		for w := 0; w < threads; w++ {
			ws.workers[w].rowGen = maxGen - uint32(bounds[w+1]-bounds[w]) + slack
		}
		return bounds
	}
	// wrapped checks that the last query wiped and drew one stamp per
	// connection from 1.
	wrapped := func(t *testing.T, ws *Workspace, bounds []int) {
		t.Helper()
		for w := 0; w+1 < len(bounds); w++ {
			if k, gen := bounds[w+1]-bounds[w], ws.workers[w].rowGen; gen != uint32(k) {
				t.Fatalf("worker %d: row counter %d after the wrap, want %d (one per connection)", w, gen, k)
			}
		}
	}

	kinds := []struct {
		name string
		run  func(t *testing.T, ws *Workspace, threads int) []timeutil.Ticks
	}{
		{"row", func(t *testing.T, ws *Workspace, threads int) []timeutil.Ticks {
			res, err := ws.OneToAll(g, src, Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			return stationArrivals(res)
		}},
		{"row/station-to-station", func(t *testing.T, ws *Workspace, threads int) []timeutil.Ticks {
			res, err := ws.StationToStation(QueryEnv{Graph: g}, src, dst, QueryOptions{Options: Options{Threads: threads}})
			if err != nil {
				t.Fatal(err)
			}
			return append([]timeutil.Ticks(nil), res.ArrT...)
		}},
		{"row/pareto", func(t *testing.T, ws *Workspace, threads int) []timeutil.Ticks {
			res, err := ws.pareto(g, src, 3, Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			return res.arr
		}},
	}
	for _, kind := range kinds {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/threads=%d", kind.name, threads), func(t *testing.T) {
				want := kind.run(t, NewWorkspace(), threads)
				ws := NewWorkspace()
				q := func() []timeutil.Ticks { return kind.run(t, ws, threads) }

				// The last query that fits: its stamps end exactly at the limit.
				toLimit(t, ws, threads, 0, q)
				sameTicks(t, "up to the limit", q(), want)
				// The next one wraps, over records stamped up to the limit.
				sameTicks(t, "after the wrap", q(), want)
				wrapped(t, ws, ws.bounds)
				// One that would end one past the limit wraps before it starts.
				bounds := toLimit(t, ws, threads, 1, q)
				sameTicks(t, "one past the limit", q(), want)
				wrapped(t, ws, bounds)
			})
		}
	}

	// The row is numNodes records wide for one-to-all and numNodes × layers
	// for Pareto: a one-to-all that wraps after a Pareto query stamped the
	// long row up to the limit, and a Pareto query after that, must still
	// answer as on fresh workspaces.
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("row/pareto-then-one-to-all/threads=%d", threads), func(t *testing.T) {
			pareto, oneToAll := kinds[2].run, kinds[0].run
			wantPareto := pareto(t, NewWorkspace(), threads)
			wantRow := oneToAll(t, NewWorkspace(), threads)
			ws := NewWorkspace()
			toLimit(t, ws, threads, 0, func() []timeutil.Ticks { return pareto(t, ws, threads) })
			sameTicks(t, "pareto up to the limit", pareto(t, ws, threads), wantPareto)
			sameTicks(t, "one-to-all after it", oneToAll(t, ws, threads), wantRow)
			wrapped(t, ws, ws.bounds)
			sameTicks(t, "pareto after the wrap", pareto(t, ws, threads), wantPareto)
		})
	}

	thinned := thinnedCopy(t, g)
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("row/cursors/threads=%d", threads), func(t *testing.T) {
			window := func(ws *Workspace, g *graph.Graph, from timeutil.Ticks) []timeutil.Ticks {
				res, err := ws.OneToAllWindow(g, src, from, from+90, Options{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				return stationArrivals(res)
			}
			const late, early = 1140, 1020
			want := window(NewWorkspace(), g, early)
			ws := NewWorkspace()
			toLimit(t, ws, threads, 0, func() []timeutil.Ticks { return window(ws, thinned, late) })
			window(ws, thinned, late)
			sameTicks(t, "after the wrap from the thinned network", window(ws, g, early), want)
		})
	}

	// The prune memo is stamped like the row, but matched by equality, so a
	// stale entry misleads only a query that draws its stamp again after a
	// wrap: the first query of a workspace stamps entries 1, 2, …, and the
	// query that wraps draws those stamps once more. Query a is the first,
	// b the one that wraps; b must answer and count as on a fresh
	// workspace, and the wrap must leave no memo stamp set.
	t.Run("row/memo", func(t *testing.T) {
		sg := stationgraph.Build(g.TT)
		pre, err := BuildDistanceTable(g, sg.SelectByContraction(g.NumStations()/5), Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		env := QueryEnv{Graph: g, StationGraph: sg, Table: pre.Table}
		type pair struct{ src, dst timetable.StationID }
		var pairs []pair
		probe := NewWorkspace()
		for s := 0; s < g.NumStations() && len(pairs) < 2; s++ {
			p := pair{timetable.StationID(s), timetable.StationID((s*7 + 3) % g.NumStations())}
			res, err := probe.StationToStation(env, p.src, p.dst, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if probe.s2q.table != nil && len(res.Conns) > 1 {
				pairs = append(pairs, p)
			}
		}
		if len(pairs) < 2 {
			t.Fatal("fewer than two station pairs the table prunes")
		}
		a, b := pairs[0], pairs[1]
		query := func(ws *Workspace, p pair) ([]timeutil.Ticks, stats.Counters) {
			res, err := ws.StationToStation(env, p.src, p.dst, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return append([]timeutil.Ticks(nil), res.ArrT...), res.Run.Total
		}
		want, wantRun := query(NewWorkspace(), b)
		ws := NewWorkspace()
		query(ws, a)
		w := ws.workers[0]
		stamped := 0
		for _, m := range w.memo {
			if m.stamp != 0 {
				stamped++
			}
		}
		if stamped == 0 {
			t.Fatal("the first query left no memo entry")
		}
		w.rowGen = maxGen - 1 // b has more than one connection: it wraps
		got, run := query(ws, b)
		sameTicks(t, "after the wrap", got, want)
		if run != wantRun {
			t.Fatalf("after the wrap: %v, a fresh workspace counts %v", run, wantRun)
		}
		w.rowGen = maxGen
		w.beginRow(g.NumNodes(), 1)
		for si, m := range w.memo[:cap(w.memo)] {
			if m.stamp != 0 {
				t.Fatalf("memo entry %d keeps stamp %d across the wrap", si, m.stamp)
			}
		}
	})
}

// busiestSource returns the station with the most outgoing connections and
// their number, failing the test when the network is too thin for a label
// store of k rows to stand out.
func busiestSource(t *testing.T, g *graph.Graph) (timetable.StationID, int) {
	t.Helper()
	busiest, k := timetable.StationID(0), 0
	for s := 0; s < g.NumStations(); s++ {
		if n := len(g.TT.Outgoing(timetable.StationID(s))); n > k {
			busiest, k = timetable.StationID(s), n
		}
	}
	if k < 16 {
		t.Fatalf("busiest source has %d connections: network too thin", k)
	}
	return busiest, k
}

// A one-to-all search keeps one label row per worker, not one per
// connection: whatever k, the search labels it leaves behind are at most
// numNodes records per worker.
func TestOneToAllLabelStoreIsOneRow(t *testing.T) {
	g := workspaceNet(t)
	busiest, k := busiestSource(t, g)
	for _, threads := range []int{1, 2} {
		ws := NewWorkspace()
		res, err := ws.OneToAll(g, busiest, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if res.Run.Total.SettledConns == 0 {
			t.Fatal("the search settled nothing")
		}
		for w, wsw := range ws.workers {
			if n := cap(wsw.row); n > g.NumNodes() {
				t.Fatalf("threads=%d worker %d: %d label records after a one-to-all with k = %d; one row is %d",
					threads, w, n, k, g.NumNodes())
			}
		}
	}
}

// A one-to-all search stores arrivals at station nodes only, numStations × k
// of them; route-node keys stay in the workers' rows. Parent links, which
// journeys chain through route nodes, stay numNodes × k.
func TestOneToAllStoreIsStationRows(t *testing.T) {
	g := workspaceNet(t)
	busiest, _ := busiestSource(t, g)
	ns := g.NumStations()
	check := func(t *testing.T, ws *Workspace, res *ProfileResult) {
		t.Helper()
		reached := 0
		for s := 0; s < ns; s++ {
			if res.reaches(timetable.StationID(s)) {
				reached++
			}
		}
		if reached < 2 {
			t.Fatalf("k = %d: the search reached %d stations", res.K(), reached)
		}
		if n := cap(ws.arr); n > ns*res.K() {
			t.Fatalf("k = %d: %d arrivals stored; numStations × k is %d", res.K(), n, ns*res.K())
		}
	}
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			ws := NewWorkspace()
			res, err := ws.OneToAll(g, busiest, Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			check(t, ws, res)
		})
	}
	t.Run("window/parents", func(t *testing.T) {
		ws := NewWorkspace()
		res, err := ws.OneToAllWindow(g, busiest, 420, 600, Options{TrackParents: true})
		if err != nil {
			t.Fatal(err)
		}
		check(t, ws, res)
		if n := len(ws.parentNode); n != g.NumNodes()*res.K() {
			t.Fatalf("k = %d: %d parent links; numNodes × k is %d", res.K(), n, g.NumNodes()*res.K())
		}
		journeys := 0
		for s := 0; s < ns; s++ {
			for i := 0; i < res.K(); i++ {
				if st := timetable.StationID(s); st != busiest && !res.StationArrival(st, i).IsInf() {
					if err := validateJourney(g, res, st, i); err != nil {
						t.Fatalf("journey to %d via connection %d: %v", s, i, err)
					}
					journeys++
				}
			}
		}
		if journeys == 0 {
			t.Fatal("no journey to replay")
		}
	})
}

// A station-to-station search keeps one label row per worker as well, with
// and without a table: whatever k, at most numNodes label records and
// numNodes ancestor flags per worker. The source is the busiest station that
// is not a transfer station (both endpoints transfer stations is one table
// look-up) and, with the table, the target a transfer station the query is
// global for, so that target pruning keeps its ancestor flags.
func TestStationQueryLabelStoreIsOneRow(t *testing.T) {
	g := workspaceNet(t)
	sg := stationgraph.Build(g.TT)
	// A quarter of the stations: none of workspaceNet's has degree > 2.
	pre, err := BuildDistanceTable(g, sg.SelectByContraction(g.NumStations()/4), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	table := pre.Table
	busiest, k := timetable.StationID(-1), 0
	for s := 0; s < g.NumStations(); s++ {
		st := timetable.StationID(s)
		if n := len(g.TT.Outgoing(st)); n > k && !table.IsTransfer(st) {
			busiest, k = st, n
		}
	}
	if k < 16 {
		t.Fatalf("busiest source has %d connections: network too thin", k)
	}
	withTable := QueryEnv{Graph: g, StationGraph: sg, Table: table}
	target := timetable.StationID(-1)
	for _, s := range table.Stations() {
		res, err := NewWorkspace().StationToStation(withTable, busiest, s, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if s != busiest && !res.Local && !res.TableHit {
			target = s
			break
		}
	}
	if target < 0 {
		t.Fatal("no transfer station the busiest source queries globally")
	}
	for _, env := range []QueryEnv{{Graph: g}, withTable} {
		for _, threads := range []int{1, 2} {
			ws := NewWorkspace()
			res, err := ws.StationToStation(env, busiest, target, QueryOptions{Options: Options{Threads: threads}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Run.Total.SettledConns == 0 {
				t.Fatal("the search settled nothing")
			}
			for w, wsw := range ws.workers {
				if n := cap(wsw.row); n > g.NumNodes() {
					t.Fatalf("table=%v threads=%d worker %d: %d label records after a station query with k = %d; one row is %d",
						env.Table != nil, threads, w, n, k, g.NumNodes())
				}
				if n := cap(wsw.anc); n > g.NumNodes() {
					t.Fatalf("table=%v threads=%d worker %d: %d ancestor flags; one per node is %d",
						env.Table != nil, threads, w, n, g.NumNodes())
				}
				if env.Table != nil && len(wsw.anc) == 0 {
					t.Fatalf("threads=%d worker %d: target pruning kept no ancestor flags", threads, w)
				}
			}
		}
	}
}

// The stopping criterion's packed word must round-trip arrivals at the
// extremes of the Ticks range (satellite: stopState packing invariant).
func TestStopStatePackingBoundaries(t *testing.T) {
	var s stopState
	cases := []timeutil.Ticks{0, 1, timeutil.Infinity - 1, timeutil.Infinity}
	for i, arr := range cases {
		s = stopState{}
		s.observeTargetSettle(i, arr)
		if arr < timeutil.Infinity {
			if !s.shouldPrune(i, arr) {
				t.Errorf("arr=%d: key equal to settled arrival must prune", arr)
			}
		}
		if arr > 0 && s.shouldPrune(i, arr-1) {
			t.Errorf("arr=%d: strictly earlier key must not prune", arr)
		}
	}
	// Values beyond Infinity saturate rather than truncate.
	s = stopState{}
	s.observeTargetSettle(0, timeutil.Infinity+12345)
	if s.shouldPrune(0, timeutil.Infinity-1) {
		t.Error("saturated arrival must not prune finite keys below Infinity")
	}
	if !s.shouldPrune(0, timeutil.Infinity) {
		t.Error("saturated arrival must prune keys at Infinity")
	}
}
