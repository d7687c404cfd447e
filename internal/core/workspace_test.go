package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/stationgraph"
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
		fresh, err := OneToAll(g, src, Options{})
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
		want, err := StationToStation(env, src, dst, QueryOptions{})
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

	// The time-query path must be allocation-free too.
	i = 0
	allocs = testing.AllocsPerRun(64, func() {
		src, dst := pair(i)
		i++
		res, err := ws.TimeQuery(g, src, 480, Options{})
		if err != nil {
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
	marked := sg.SelectByDegree(2)
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
		res, err := StationToStation(env, src, dst, QueryOptions{})
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

// When the generation counter reaches the fused stamps' limit, begin must
// wipe the label records (and every other stamp array): generation 1 comes
// round again, and a record left over from the first generation 1 would
// read as settled.
func TestGenerationWrapWipesLabels(t *testing.T) {
	g := workspaceNet(t)
	env := QueryEnv{Graph: g}
	src, dst := timetable.StationID(2), timetable.StationID(9)
	want, err := OneToAll(g, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantS2S, err := StationToStation(env, src, dst, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ws := NewWorkspace()
	// Generation 1: leave settled records behind, in an array big enough for
	// the query below to reuse (same source, same k).
	if _, err := ws.OneToAll(g, src, Options{}); err != nil {
		t.Fatal(err)
	}
	if ws.gen != 1 {
		t.Fatalf("first query ran under generation %d", ws.gen)
	}
	stale := 0
	for _, l := range ws.workers[0].labels {
		if l.stamp == 1<<1|1 {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("generation 1 left no settled label records")
	}

	ws.gen = maxGen - 1 // the next begin() wraps
	got, err := ws.OneToAll(g, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ws.gen != 1 {
		t.Fatalf("generation after the wrap is %d, want 1", ws.gen)
	}
	for s := 0; s < g.TT.NumStations(); s++ {
		st := timetable.StationID(s)
		for i := 0; i < want.K(); i++ {
			if a, b := got.StationArrival(st, i), want.StationArrival(st, i); a != b {
				t.Fatalf("after the wrap arr(%d, %d) = %d, fresh workspace says %d", s, i, a, b)
			}
		}
	}
	// Generation 2 on the wiped arrays, through the other profile loop.
	gotS2S, err := ws.StationToStation(env, src, dst, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range wantS2S.ArrT {
		if gotS2S.ArrT[i] != a {
			t.Fatalf("after the wrap ArrT[%d] = %d, fresh workspace says %d", i, gotS2S.ArrT[i], a)
		}
	}
}

// The stopping criterion's packed word must round-trip arrivals at the
// extremes of the Ticks range (satellite: stopState packing invariant).
func TestStopStatePackingBoundaries(t *testing.T) {
	var s stopState
	cases := []timeutil.Ticks{0, 1, timeutil.Infinity - 1, timeutil.Infinity}
	for i, arr := range cases {
		s.reset()
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
	s.reset()
	s.observeTargetSettle(0, timeutil.Infinity+12345)
	if s.shouldPrune(0, timeutil.Infinity-1) {
		t.Error("saturated arrival must not prune finite keys below Infinity")
	}
	if !s.shouldPrune(0, timeutil.Infinity) {
		t.Error("saturated arrival must prune keys at Infinity")
	}
}
