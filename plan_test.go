package transit

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"transit/internal/core"
)

// cancelNetwork returns a network big enough that profile and pareto
// searches run long enough (hundreds of microseconds to milliseconds) for
// a mid-flight cancellation to land inside the settle loops. Cached across
// tests; queries never mutate a Network.
var cancelNetwork = sync.OnceValues(func() (*Network, error) {
	return Generate("oahu", 0.35, 7)
})

// planPairs yields deterministic station pairs spread over the network.
func planPairs(n *Network, count int) [][2]StationID {
	ns := n.NumStations()
	out := make([][2]StationID, 0, count)
	for i := 0; i < count; i++ {
		src := StationID((i * 31) % ns)
		dst := StationID((i*17 + 5) % ns)
		if src == dst {
			dst = StationID((int(dst) + 1) % ns)
		}
		out = append(out, [2]StationID{src, dst})
	}
	return out
}

// plan answers req on n with a background context and fails the test on an
// error.
func plan(t testing.TB, n *Network, req Request) *Result {
	t.Helper()
	res, err := n.Plan(context.Background(), req)
	if err != nil {
		t.Fatalf("%s %d→%d: %v", req.Kind, req.From, req.To, err)
	}
	return res
}

// TestPlanEarliestArrivalEquivalence pins Plan's earliest-arrival path to
// the connection scan, which shares no code with the graph searches.
func TestPlanEarliestArrivalEquivalence(t *testing.T) {
	n := testNetwork(t)
	sched := core.NewConnectionScan(n.tt)
	for _, pair := range planPairs(n, 24) {
		for _, dep := range []Ticks{0, 445, 480, 1100} {
			res, err := n.Plan(context.Background(), Request{
				Kind: KindEarliestArrival, From: pair[0], To: pair[1], Depart: dep,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Arrival()
			if err != nil {
				t.Fatal(err)
			}
			cs, err := sched.Query(pair[0], dep, 8)
			if err != nil {
				t.Fatal(err)
			}
			if want := cs.StationArrival(pair[1]); got != want {
				t.Fatalf("%d→%d@%d: Plan %d, connection scan %d", pair[0], pair[1], dep, got, want)
			}
		}
	}
}

// TestPlanProfileEquivalence pins Plan's station-to-station path to the
// direct core query, on the plain and the preprocessed network.
func TestPlanProfileEquivalence(t *testing.T) {
	plain := testNetwork(t)
	pre, _, err := plain.Preprocess(TransferSelection{Fraction: 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Network{"plain": plain, "preprocessed": pre} {
		env := core.QueryEnv{Graph: n.g}
		if n.table != nil {
			env.StationGraph = n.sg
			env.Table = n.table
		}
		for _, pair := range planPairs(n, 16) {
			res, err := n.Plan(context.Background(), Request{Kind: KindProfile, From: pair[0], To: pair[1]})
			if err != nil {
				t.Fatal(err)
			}
			p, err := res.Profile()
			if err != nil {
				t.Fatal(err)
			}
			ws := core.GetWorkspace()
			sres, err := ws.StationToStation(env, pair[0], pair[1], core.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fn, err := sres.Profile()
			if err != nil {
				t.Fatal(err)
			}
			want := fn.Points()
			got := p.Connections()
			if len(got) != len(want) {
				t.Fatalf("%s %d→%d: %d connections, core says %d", name, pair[0], pair[1], len(got), len(want))
			}
			for i := range got {
				if got[i].Departure != want[i].Dep || got[i].Arrival != want[i].Arr() {
					t.Fatalf("%s %d→%d: point %d = %+v, core says (%d,%d)",
						name, pair[0], pair[1], i, got[i], want[i].Dep, want[i].Arr())
				}
			}
			if p.WalkOnly() != sres.WalkOnly {
				t.Fatalf("%s %d→%d: walk %d vs %d", name, pair[0], pair[1], p.WalkOnly(), sres.WalkOnly)
			}
			core.PutWorkspace(ws)
		}
	}
}

// TestPlanOneToAllEquivalence pins Plan's one-to-all path (full period and
// windowed) to the direct core searches.
func TestPlanOneToAllEquivalence(t *testing.T) {
	n := testNetwork(t)
	src := StationID(3)
	windows := []*Window{nil, {From: 420, To: 600}}
	for _, w := range windows {
		res, err := n.Plan(context.Background(), Request{Kind: KindOneToAll, From: src, Window: w})
		if err != nil {
			t.Fatal(err)
		}
		all, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		var want *core.ProfileResult
		if w == nil {
			want, err = core.NewWorkspace().OneToAll(n.g, src, core.Options{})
		} else {
			want, err = core.NewWorkspace().OneToAllWindow(n.g, src, w.From, w.To, core.Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n.NumStations(); s++ {
			st := StationID(s)
			for _, dep := range []Ticks{430, 500, 590} {
				if got, wantArr := all.EarliestArrival(st, dep), want.EarliestArrival(st, dep); got != wantArr {
					t.Fatalf("window %v, station %d @%d: %d vs core %d", w, s, dep, got, wantArr)
				}
			}
		}
	}
}

// TestPlanJourneyEquivalence pins Plan's journey path to the legacy
// construction (one-to-all with parent tracking, then extraction).
func TestPlanJourneyEquivalence(t *testing.T) {
	n := testNetwork(t)
	found := 0
	for _, pair := range planPairs(n, 12) {
		res, err := n.Plan(context.Background(), Request{
			Kind: KindJourney, From: pair[0], To: pair[1], Depart: 480,
		})
		if err != nil {
			if ErrorCodeOf(err) == CodeUnreachable {
				continue
			}
			t.Fatal(err)
		}
		j, err := res.Journey()
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.NewWorkspace().OneToAll(n.g, pair[0], core.Options{TrackParents: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&AllProfiles{n: n, res: pr}).Journey(pair[1], 480)
		if err != nil {
			t.Fatal(err)
		}
		if j.String() != want.String() || j.Transfers() != want.Transfers() {
			t.Fatalf("%d→%d: Plan journey %q, legacy path %q", pair[0], pair[1], j, want)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no reachable journey pair in the sample")
	}
}

// TestPlanParetoEquivalence pins Plan's pareto path to the direct core
// multi-criteria search.
func TestPlanParetoEquivalence(t *testing.T) {
	n := testNetwork(t)
	src := StationID(2)
	res, err := n.Plan(context.Background(), Request{Kind: KindPareto, From: src, MaxTransfers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := res.Pareto()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.OneToAllPareto(n.g, src, 4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n.NumStations(); s++ {
		st := StationID(s)
		got, err := pp.Choices(st, 480)
		if err != nil {
			t.Fatal(err)
		}
		wantSet, err := want.ParetoSet(st, 480)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantSet) {
			t.Fatalf("station %d: %d choices vs core %d", s, len(got), len(wantSet))
		}
		for i := range got {
			if got[i].Transfers != wantSet[i].Transfers || got[i].Arrival != wantSet[i].Arrival {
				t.Fatalf("station %d choice %d: %+v vs core %+v", s, i, got[i], wantSet[i])
			}
		}
	}
}

// TestPlanMatrix checks the batch kind cell-by-cell against the scalar
// earliest-arrival query, sequentially and with row parallelism.
func TestPlanMatrix(t *testing.T) {
	n := testNetwork(t)
	ns := n.NumStations()
	sources := []StationID{0, 3, 7, StationID(11 % ns), StationID(ns - 1)}
	targets := []StationID{1, 5, 7, StationID(13 % ns)}
	for _, threads := range []int{1, 3} {
		res, err := n.Plan(context.Background(), Request{
			Kind: KindMatrix, Sources: sources, Targets: targets, Depart: 495,
			Options: Options{Threads: threads},
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := res.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != len(sources) {
			t.Fatalf("threads=%d: %d rows, want %d", threads, len(m), len(sources))
		}
		for i, src := range sources {
			if len(m[i]) != len(targets) {
				t.Fatalf("threads=%d: row %d has %d cells, want %d", threads, i, len(m[i]), len(targets))
			}
			for j, dst := range targets {
				want := plan(t, n, Request{Kind: KindEarliestArrival, From: src, To: dst, Depart: 495}).arrival
				if m[i][j] != want {
					t.Fatalf("threads=%d: cell (%d,%d) = %d, scalar query says %d", threads, i, j, m[i][j], want)
				}
			}
		}
	}
}

// TestPlanValidationCodes walks the request-validation catalogue: every
// malformed request must fail with its documented machine-readable code.
func TestPlanValidationCodes(t *testing.T) {
	n := testNetwork(t)
	ns := StationID(n.NumStations())
	cases := []struct {
		name string
		req  Request
		code ErrorCode
	}{
		{"unknown kind", Request{Kind: "teleport", From: 0, To: 1}, CodeUnknownKind},
		{"empty kind", Request{From: 0, To: 1}, CodeUnknownKind},
		{"from out of range", Request{Kind: KindEarliestArrival, From: ns, To: 1}, CodeStationRange},
		{"to out of range", Request{Kind: KindProfile, From: 0, To: -1}, CodeStationRange},
		{"matrix no sources", Request{Kind: KindMatrix, Targets: []StationID{1}}, CodeInvalidRequest},
		{"matrix no targets", Request{Kind: KindMatrix, Sources: []StationID{1}}, CodeInvalidRequest},
		{"matrix bad source", Request{Kind: KindMatrix, Sources: []StationID{ns}, Targets: []StationID{0}}, CodeStationRange},
		{"window on profile", Request{Kind: KindProfile, From: 0, To: 1, Window: &Window{0, 600}}, CodeBadWindow},
		{"empty window", Request{Kind: KindOneToAll, From: 0, Window: &Window{From: 600, To: 400}}, CodeBadWindow},
		{"transfers on profile", Request{Kind: KindProfile, From: 0, To: 1, MaxTransfers: 3}, CodeBadTransfers},
		{"transfers out of range", Request{Kind: KindPareto, From: 0, MaxTransfers: 99}, CodeBadTransfers},
		{"negative transfers", Request{Kind: KindPareto, From: 0, MaxTransfers: -1}, CodeBadTransfers},
		{"sources on journey", Request{Kind: KindJourney, From: 0, To: 1, Sources: []StationID{2}}, CodeInvalidRequest},
		{"negative depart", Request{Kind: KindEarliestArrival, From: 0, To: 1, Depart: -5}, CodeBadTime},
		// Arrival keys are 32-bit: a departure at or past Infinity used to
		// wrap (arrival -2147483579 from MaxInt32) instead of failing.
		{"arrival depart MaxInt32", Request{Kind: KindEarliestArrival, From: 0, To: 9, Depart: math.MaxInt32}, CodeBadTime},
		{"arrival depart Infinity", Request{Kind: KindEarliestArrival, From: 0, To: 9, Depart: Infinity}, CodeBadTime},
		{"journey depart Infinity", Request{Kind: KindJourney, From: 0, To: 9, Depart: Infinity}, CodeBadTime},
		{"journey depart MaxInt32", Request{Kind: KindJourney, From: 0, To: 9, Depart: math.MaxInt32}, CodeBadTime},
		{"matrix depart Infinity", Request{Kind: KindMatrix, Sources: []StationID{0}, Targets: []StationID{9}, Depart: Infinity + 7}, CodeBadTime},
	}
	for _, tc := range cases {
		_, err := n.Plan(context.Background(), tc.req)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if got := ErrorCodeOf(err); got != tc.code {
			t.Fatalf("%s: code %q, want %q (err: %v)", tc.name, got, tc.code, err)
		}
		var te *Error
		if !errors.As(err, &te) {
			t.Fatalf("%s: error %T is not *transit.Error", tc.name, err)
		}
	}
}

// TestResultKindMismatch pins the accessor guards.
func TestResultKindMismatch(t *testing.T) {
	n := testNetwork(t)
	res, err := n.Plan(context.Background(), Request{Kind: KindEarliestArrival, From: 0, To: 1, Depart: 480})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Journey(); ErrorCodeOf(err) != CodeKindMismatch {
		t.Fatalf("Journey() on earliest-arrival result: %v", err)
	}
	if _, err := res.Matrix(); ErrorCodeOf(err) != CodeKindMismatch {
		t.Fatalf("Matrix() on earliest-arrival result: %v", err)
	}
	if _, err := res.Arrival(); err != nil {
		t.Fatalf("Arrival() on earliest-arrival result: %v", err)
	}
}

// TestPlanContextCancellation covers the three context failure shapes: a
// context cancelled before the call, a deadline that already passed, and a
// cancellation racing a running profile/pareto search.
func TestPlanContextCancellation(t *testing.T) {
	n, err2 := cancelNetwork()
	if err2 != nil {
		t.Fatal(err2)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := n.Plan(pre, Request{Kind: KindProfile, From: 0, To: 1})
	if ErrorCodeOf(err) != CodeCancelled || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: %v (code %q)", err, ErrorCodeOf(err))
	}

	dl, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	_, err = n.Plan(dl, Request{Kind: KindPareto, From: 0, MaxTransfers: 2})
	if ErrorCodeOf(err) != CodeDeadlineExceeded || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v (code %q)", err, ErrorCodeOf(err))
	}

	// Mid-flight: cancel while profile and pareto searches run. Outcomes
	// race (a search may finish first), so loop until one observes the
	// cancellation; every error must be the typed cancellation error.
	for _, kind := range []Kind{KindProfile, KindPareto} {
		sawCancel := false
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; !sawCancel && time.Now().Before(deadline); i++ {
			ctx, cancelMid := context.WithCancel(context.Background())
			// Cycle the cancel delay from "immediately" upward so some
			// cancellation lands inside (or just before) the search no
			// matter how fast the network answers.
			go func(d time.Duration) {
				if d > 0 {
					time.Sleep(d)
				}
				cancelMid()
			}(time.Duration(i%64) * 5 * time.Microsecond)
			req := Request{Kind: kind, From: StationID(i % n.NumStations()), To: 1, MaxTransfers: 0}
			if kind == KindPareto {
				req.MaxTransfers = 6
			}
			_, err := n.Plan(ctx, req)
			switch {
			case err == nil:
			case ErrorCodeOf(err) == CodeCancelled:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: cancellation does not wrap context.Canceled: %v", kind, err)
				}
				sawCancel = true
			default:
				t.Fatalf("%s: unexpected error %v", kind, err)
			}
			cancelMid()
		}
		if !sawCancel {
			t.Fatalf("%s: no query observed the mid-flight cancellation", kind)
		}
	}
}

// TestPlanEarliestArrivalAllocs is the allocation-regression guard of the
// unified API: the scalar path through Plan, with a reused Result, must
// stay at zero allocations per query.
func TestPlanEarliestArrivalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := testNetwork(t)
	pairs := planPairs(n, 16)
	ctx := context.Background()
	var reuse Result
	// Warm up the workspace pool to steady-state sizes.
	for i := 0; i < 8; i++ {
		if _, err := n.Plan(ctx, Request{
			Kind: KindEarliestArrival, From: pairs[i][0], To: pairs[i][1], Depart: 480, Reuse: &reuse,
		}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(64, func() {
		p := pairs[i%len(pairs)]
		i++
		res, err := n.Plan(ctx, Request{
			Kind: KindEarliestArrival, From: p[0], To: p[1], Depart: 480, Reuse: &reuse,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res != &reuse {
			t.Fatal("Plan did not return the reused result")
		}
	})
	if allocs != 0 {
		t.Fatalf("Plan earliest-arrival with Reuse allocates %.1f objects per query, want 0", allocs)
	}
	// With a distance table the query adds the via-station DFS, the µ and γ
	// bounds and the table look-ups, all on workspace scratch.
	pre, _, err := n.Preprocess(TransferSelection{Fraction: 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tableQuery := func() {
		p := pairs[i%len(pairs)]
		i++
		if _, err := pre.Plan(ctx, Request{
			Kind: KindEarliestArrival, From: p[0], To: p[1], Depart: 480, Reuse: &reuse,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for range pairs {
		tableQuery()
	}
	if withTable := testing.AllocsPerRun(64, tableQuery); withTable != 0 {
		t.Fatalf("Plan earliest-arrival with a distance table allocates %.1f objects per query, want 0", withTable)
	}
}

// TestPlanJourneySteadyStateAllocs guards the pooled journey path: the
// one-to-all search with parent tracking runs on a free-list workspace and
// the itinerary is extracted before the workspace goes back, so a query
// allocates a handful of small objects (the target's reduced profile, the
// ride list, the legs) and nothing that scales with numNodes × k. The
// pre-pooling implementation built a private workspace per query: ~40
// allocations, megabytes each on a real network.
func TestPlanJourneySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := testNetwork(t)
	pairs := planPairs(n, 16)
	ctx := context.Background()
	var reuse Result
	journey := func(i int) {
		p := pairs[i%len(pairs)]
		_, err := n.Plan(ctx, Request{Kind: KindJourney, From: p[0], To: p[1], Depart: 480, Reuse: &reuse})
		if err != nil && ErrorCodeOf(err) != CodeUnreachable {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*len(pairs); i++ { // grow the workspace to every source's size
		journey(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	i := 0
	allocs := testing.AllocsPerRun(64, func() { journey(i); i++ })
	runtime.ReadMemStats(&after)
	if allocs > 24 {
		t.Fatalf("Plan journey allocates %.1f objects per query, want ≤ 24", allocs)
	}
	// 65 runs (AllocsPerRun warms up once). Labels alone are 16 B × numNodes
	// × k per query when the workspace is not reused; the extraction needs a
	// few hundred bytes.
	if perQuery := (after.TotalAlloc - before.TotalAlloc) / 65; perQuery > 8<<10 {
		t.Fatalf("Plan journey allocates %d B per query, want ≤ 8 KiB", perQuery)
	}
}

// TestPlanOneToAllSteadyStateBytes guards the compact one-to-all result: a
// query keeps a copy of the numStations × k station arrivals (4 B each) plus
// the seed list, and returns the workspace — its own arrival store, the
// label rows and the ride cursors — to the free list.
func TestPlanOneToAllSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := testNetwork(t)
	ctx := context.Background()
	ns := n.NumStations()
	sumK := 0
	for s := 0; s < ns; s++ { // also grows the workspace to every source's size
		res, err := n.Plan(ctx, Request{Kind: KindOneToAll, From: StationID(s)})
		if err != nil {
			t.Fatal(err)
		}
		all, _ := res.All()
		sumK += all.res.K()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := 0; s < ns; s++ {
		if _, err := n.Plan(ctx, Request{Kind: KindOneToAll, From: StationID(s)}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Per query: the arrivals, 8 B per seed connection (Conns and Deps), and
	// a constant for the result shells, the walk map, the counters and the
	// allocator's size-class rounding of the three slices.
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(4*ns*sumK + 8*sumK + 2048*ns)
	t.Logf("%d one-to-all queries: %d B in %d allocs, limit %d B", ns, got, after.Mallocs-before.Mallocs, limit)
	if got > limit {
		t.Fatalf("Plan one-to-all allocated %d B over %d queries, want ≤ %d (4·numStations·k + 8·k + 2 KiB each)", got, ns, limit)
	}
	if allocs := (after.Mallocs - before.Mallocs) / uint64(ns); allocs > 16 {
		t.Fatalf("Plan one-to-all allocates %d objects per query, want ≤ 16", allocs)
	}
}

// TestPlanParetoAllocs bounds the objects a Pareto query allocates by a
// constant, on two networks four times apart in size: the search runs on a
// free-list workspace, so what is left is the result's own memory (the
// layered station arrivals, its copies of the seed list, the walk map and
// the counters) and its shells.
func TestPlanParetoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	for _, scale := range []float64{0.01, 0.1} {
		n, err := Generate("losangeles", scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		pairs := planPairs(n, 8)
		var reuse Result
		query := func(i int) {
			if _, err := n.Plan(ctx, Request{Kind: KindPareto, From: pairs[i%len(pairs)][0], MaxTransfers: 3, Reuse: &reuse}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range pairs { // grow the pooled workspace
			query(i)
		}
		i := 0
		allocs := testing.AllocsPerRun(16, func() { query(i); i++ })
		t.Logf("losangeles %g (%d stations): %.1f allocs per Pareto query", scale, n.NumStations(), allocs)
		if allocs > 10 {
			t.Fatalf("losangeles %g: a Pareto query allocates %.1f objects, want ≤ 10", scale, allocs)
		}
	}
}

// TestPlanReuseAcrossKinds makes sure a reused Result carries nothing over
// from its previous life.
func TestPlanReuseAcrossKinds(t *testing.T) {
	n := testNetwork(t)
	var r Result
	if _, err := n.Plan(context.Background(), Request{Kind: KindJourney, From: 0, To: 7, Depart: 480, Reuse: &r}); err != nil {
		if ErrorCodeOf(err) != CodeUnreachable {
			t.Fatal(err)
		}
	}
	res, err := n.Plan(context.Background(), Request{Kind: KindEarliestArrival, From: 0, To: 7, Depart: 480, Reuse: &r})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind() != KindEarliestArrival {
		t.Fatalf("kind = %q after reuse", res.Kind())
	}
	if _, err := res.Journey(); ErrorCodeOf(err) != CodeKindMismatch {
		t.Fatalf("stale journey accessor survived reuse: %v", err)
	}
}

// TestPlanMatrixCancellation cancels a matrix batch mid-flight.
func TestPlanMatrixCancellation(t *testing.T) {
	n, err2 := cancelNetwork()
	if err2 != nil {
		t.Fatal(err2)
	}
	sources := make([]StationID, n.NumStations())
	for i := range sources {
		sources[i] = StationID(i)
	}
	targets := []StationID{0, 1, 2}
	sawCancel := false
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; !sawCancel && time.Now().Before(deadline); i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			if d > 0 {
				time.Sleep(d)
			}
			cancel()
		}(time.Duration(i%64) * 5 * time.Microsecond)
		_, err := n.Plan(ctx, Request{Kind: KindMatrix, Sources: sources, Targets: targets, Depart: 480})
		switch {
		case err == nil:
		case ErrorCodeOf(err) == CodeCancelled:
			sawCancel = true
		default:
			t.Fatalf("unexpected error: %v", err)
		}
		cancel()
	}
	if !sawCancel {
		t.Fatal("no matrix batch observed the cancellation")
	}
}

// TestPlanDepartLimit pins the last accepted departure: one tick below
// Infinity every point kind answers without wrapping a 32-bit key.
func TestPlanDepartLimit(t *testing.T) {
	n := testNetwork(t)
	ctx := context.Background()
	res, err := n.Plan(ctx, Request{Kind: KindEarliestArrival, From: 0, To: 9, Depart: Infinity - 1})
	if err != nil {
		t.Fatal(err)
	}
	if a := res.arrival; a < Infinity-1 || a > Infinity {
		t.Fatalf("arrival %d departing one tick below Infinity", a)
	}
	res, err = n.Plan(ctx, Request{Kind: KindMatrix, Sources: []StationID{0, 3}, Targets: []StationID{9, 0}, Depart: Infinity - 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.matrix {
		for _, a := range row {
			if a < Infinity-1 || a > Infinity {
				t.Fatalf("matrix cell %d departing one tick below Infinity", a)
			}
		}
	}
	// A journey only depends on the time point of its departure.
	late, err := n.Plan(ctx, Request{Kind: KindJourney, From: 0, To: 9, Depart: Infinity - 1})
	if err != nil {
		t.Fatal(err)
	}
	early, err := n.Plan(ctx, Request{Kind: KindJourney, From: 0, To: 9, Depart: (Infinity - 1) % n.Period()})
	if err != nil {
		t.Fatal(err)
	}
	if late.journey.String() != early.journey.String() {
		t.Fatalf("journey %q at the limit, %q at the same time of day", late.journey, early.journey)
	}
}

// TestPlanPointKindsReturnWorkspaces checks the free-list accounting of the
// two rewritten kinds: whatever way a request ends — answered, unreachable,
// rejected, cancelled before it starts, or cancelled between a journey's
// point query and its window search — every workspace checked out has been
// put back.
func TestPlanPointKindsReturnWorkspaces(t *testing.T) {
	n, err := cancelNetwork()
	if err != nil {
		t.Fatal(err)
	}
	pre, _, err := n.Preprocess(TransferSelection{Fraction: 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unreach := oneWayLine(t)
	gets0, puts0 := core.PoolStats()
	balanced := func(when string) {
		t.Helper()
		if gets, puts := core.PoolStats(); gets-gets0 != puts-puts0 {
			t.Fatalf("%s: %d workspaces checked out, %d returned", when, gets-gets0, puts-puts0)
		}
	}
	ctx := context.Background()
	cancelledCtx, cancel := context.WithCancel(ctx)
	cancel()
	for _, kind := range []Kind{KindEarliestArrival, KindJourney} {
		for _, net := range []*Network{n, pre} {
			if _, err := net.Plan(ctx, Request{Kind: kind, From: 0, To: 9, Depart: 480}); err != nil {
				t.Fatal(err)
			}
			balanced(string(kind) + " answered")
			if _, err := net.Plan(ctx, Request{Kind: kind, From: 0, To: 9, Depart: -1}); ErrorCodeOf(err) != CodeBadTime {
				t.Fatalf("%s: negative departure: %v", kind, err)
			}
			balanced(string(kind) + " rejected")
			if _, err := net.Plan(cancelledCtx, Request{Kind: kind, From: 0, To: 9, Depart: 480}); ErrorCodeOf(err) != CodeCancelled {
				t.Fatalf("%s: cancelled context: %v", kind, err)
			}
			balanced(string(kind) + " cancelled")
		}
	}
	if _, err := unreach.Plan(ctx, Request{Kind: KindJourney, From: 1, To: 0, Depart: 480}); ErrorCodeOf(err) != CodeUnreachable {
		t.Fatalf("journey against the line: %v", err)
	}
	if res, err := unreach.Plan(ctx, Request{Kind: KindEarliestArrival, From: 1, To: 0, Depart: 480}); err != nil || !res.arrival.IsInf() {
		t.Fatalf("arrival against the line: %v, %v", res, err)
	}
	balanced("unreachable")

	// Between the phases: the context is cancelled as soon as the attached
	// effort block shows a finished search, so some journeys are abandoned
	// after their point query and before (or inside) their window search.
	// Outcomes race; every failure must be the typed cancellation.
	between := false
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; !between && time.Now().Before(deadline); i++ {
		var effort SearchEffort
		ctx, cancel := context.WithCancel(context.Background())
		stop := make(chan struct{})
		watched := make(chan struct{})
		go func() {
			defer close(watched)
			for effort.Rounds.Load() == 0 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			cancel()
		}()
		_, err := n.Plan(ctx, Request{
			Kind: KindJourney, From: StationID(i % n.NumStations()), To: StationID((i*7 + 3) % n.NumStations()),
			Depart: 480, Options: Options{Effort: &effort},
		})
		close(stop)
		<-watched
		cancel()
		switch {
		case err == nil, ErrorCodeOf(err) == CodeUnreachable:
		case ErrorCodeOf(err) == CodeCancelled:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancellation does not wrap context.Canceled: %v", err)
			}
			between = between || effort.Rounds.Load() >= 1
		default:
			t.Fatalf("unexpected error %v", err)
		}
		balanced("journey cancelled between phases")
	}
	if !between {
		t.Fatal("no journey was cancelled after its point query")
	}
}

// oneWayLine is the network A→B: nothing leads from B back to A.
func oneWayLine(t *testing.T) *Network {
	t.Helper()
	tb := NewTimetableBuilder(0)
	a, b := tb.AddStation("A", 1), tb.AddStation("B", 1)
	if err := tb.AddTrain("t", []StationID{a, b}, 480, []Ticks{10}, 0); err != nil {
		t.Fatal(err)
	}
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}
