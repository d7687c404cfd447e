package core

import (
	"testing"

	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

var day = timeutil.NewPeriod(1440)

// diamond builds a network where the fastest route to D depends on the
// departure time: A→B→D is fast in the morning, A→C→D in the evening.
func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	b := timetable.NewBuilder(day)
	a := b.AddStation("A", 2)
	bb := b.AddStation("B", 2)
	c := b.AddStation("C", 2)
	d := b.AddStation("D", 2)
	// Morning: via B, 30 min total.
	b.AddTrainRun("m1", []timetable.StationID{a, bb, d}, 480, []timeutil.Ticks{15, 15}, 0)
	b.AddTrainRun("m2", []timetable.StationID{a, bb, d}, 510, []timeutil.Ticks{15, 15}, 0)
	// Evening: via C, 20 min total.
	b.AddTrainRun("e1", []timetable.StationID{a, c, d}, 1000, []timeutil.Ticks{10, 10}, 0)
	b.AddTrainRun("e2", []timetable.StationID{a, c, d}, 1030, []timeutil.Ticks{10, 10}, 0)
	// A slow all-day line A→D directly, 90 min, hourly 6:00–22:00.
	for h := 6; h <= 22; h++ {
		b.AddTrainRun("slow", []timetable.StationID{a, d}, timeutil.Ticks(h*60), []timeutil.Ticks{90}, 0)
	}
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return graph.Build(tt)
}

func TestOneToAllDiamond(t *testing.T) {
	g := diamond(t)
	res, err := NewWorkspace().OneToAll(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 4+17 {
		t.Fatalf("conn(A) = %d, want 21", res.K())
	}
	prof, err := res.StationProfile(3) // D
	if err != nil {
		t.Fatal(err)
	}
	// Morning train at 480 arrives 510; evening at 1000 arrives 1020.
	if got := prof.EvalArrival(480); got != 510 {
		t.Errorf("depart 480 arrives %d, want 510", got)
	}
	if got := prof.EvalArrival(1000); got != 1020 {
		t.Errorf("depart 1000 arrives %d, want 1020", got)
	}
	// At 530 the next useful options are the slow 540 train (arr 630)
	// — the 510 morning train already left.
	if got := prof.EvalArrival(530); got != 630 {
		t.Errorf("depart 530 arrives %d, want 630", got)
	}
	// Unreached station: the profile to A itself contains the trivial
	// zero-wait arrival; just check sanity of the source profile.
	if got := res.EarliestArrival(0, 700); got != 700 {
		t.Errorf("self arrival = %d, want 700 (already there)", got)
	}
}

func TestSelfPruningReducesWork(t *testing.T) {
	g := diamond(t)
	with, err := NewWorkspace().OneToAll(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewWorkspace().OneToAll(g, 0, Options{DisableSelfPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Run.Total.SettledConns >= without.Run.Total.SettledConns {
		t.Fatalf("self-pruning did not reduce settled connections: %d vs %d",
			with.Run.Total.SettledConns, without.Run.Total.SettledConns)
	}
	// Both must produce identical profiles.
	for s := timetable.StationID(0); int(s) < g.TT.NumStations(); s++ {
		pw, err1 := with.StationProfile(s)
		po, err2 := without.StationProfile(s)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for tau := timeutil.Ticks(0); tau < 1440; tau += 31 {
			if pw.EvalArrival(tau) != po.EvalArrival(tau) {
				t.Fatalf("station %d: profiles differ at %d", s, tau)
			}
		}
	}
}

// The cornerstone equivalence: for every departure time, evaluating the
// profile must give exactly the earliest arrival, as the connection scan
// finds it.
func TestProfileMatchesTimeQuery(t *testing.T) {
	for _, fam := range []gen.Family{gen.Oahu, gen.Germany} {
		cfg, err := gen.FamilyConfig(fam, 0.05, 11)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.Build(tt)
		sched := NewConnectionScan(tt)
		sources := []timetable.StationID{0, timetable.StationID(tt.NumStations() / 2)}
		for _, src := range sources {
			res, err := NewWorkspace().OneToAll(g, src, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for tau := timeutil.Ticks(0); tau < 1440; tau += 177 {
				cs, err := sched.Query(src, tau, oracleDays)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < tt.NumStations(); s += 7 {
					st := timetable.StationID(s)
					want := cs.StationArrival(st)
					got := res.EarliestArrival(st, tau)
					if got != want {
						t.Fatalf("%s: src %d → %d at τ=%d: profile says %d, connection scan says %d",
							fam, src, st, tau, got, want)
					}
				}
			}
		}
	}
}

// Label-correcting and connection-setting must agree on every station
// profile, while CS settles far fewer connections.
func TestLCAgreesWithCS(t *testing.T) {
	cfg, err := gen.FamilyConfig(gen.Oahu, 0.04, 5)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	src := timetable.StationID(1)
	cs, err := NewWorkspace().OneToAll(g, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := LabelCorrecting(g, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < tt.NumStations(); s += 3 {
		st := timetable.StationID(s)
		pc, err1 := cs.StationProfile(st)
		pl, err2 := lc.StationProfile(st)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for tau := timeutil.Ticks(0); tau < 1440; tau += 97 {
			if pc.EvalArrival(tau) != pl.EvalArrival(tau) {
				t.Fatalf("station %d at τ=%d: CS %d vs LC %d", s, tau,
					pc.EvalArrival(tau), pl.EvalArrival(tau))
			}
		}
	}
	if cs.Run.Total.SettledConns >= lc.Run.Total.SettledConns {
		t.Errorf("CS settled %d ≥ LC settled %d; the paper's Table 1 gap is missing",
			cs.Run.Total.SettledConns, lc.Run.Total.SettledConns)
	}
	t.Logf("CS settled %d, LC settled %d (ratio %.1f)",
		cs.Run.Total.SettledConns, lc.Run.Total.SettledConns,
		float64(lc.Run.Total.SettledConns)/float64(cs.Run.Total.SettledConns))
}

// Parallel execution must produce exactly the same profiles as sequential
// for every partition strategy and thread count.
func TestParallelEquivalence(t *testing.T) {
	cfg, err := gen.FamilyConfig(gen.Washington, 0.04, 9)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	src := timetable.StationID(2)
	seq, err := NewWorkspace().OneToAll(g, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 4, 8} {
		for _, strat := range []PartitionStrategy{EqualConnections, EqualTimeSlots, KMeans} {
			par, err := NewWorkspace().OneToAll(g, src, Options{Threads: p, Partition: strat})
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Run.PerThread) < 1 {
				t.Fatalf("p=%d %v: no per-thread counters", p, strat)
			}
			for s := 0; s < tt.NumStations(); s += 5 {
				st := timetable.StationID(s)
				ps, err1 := seq.StationProfile(st)
				pp, err2 := par.StationProfile(st)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				for tau := timeutil.Ticks(0); tau < 1440; tau += 113 {
					if ps.EvalArrival(tau) != pp.EvalArrival(tau) {
						t.Fatalf("p=%d %v station %d τ=%d: %d vs %d", p, strat, s, tau,
							ps.EvalArrival(tau), pp.EvalArrival(tau))
					}
				}
			}
		}
	}
}

// Across-thread self-pruning is lost, so total settled work may grow with
// p — but only moderately (the paper reports ≈10–20% up to 8 cores).
func TestParallelWorkGrowth(t *testing.T) {
	cfg, err := gen.FamilyConfig(gen.Oahu, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	seq, err := NewWorkspace().OneToAll(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewWorkspace().OneToAll(g, 0, Options{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	growth := float64(par.Run.Total.SettledConns) / float64(seq.Run.Total.SettledConns)
	if growth < 1.0 {
		t.Fatalf("parallel settled fewer connections than sequential: growth %.2f", growth)
	}
	if growth > 2.0 {
		t.Fatalf("work grew %.2f× on 8 threads; expected moderate growth", growth)
	}
	t.Logf("work growth at p=8: %.3f; ideal speed-up %.2f", growth, par.Run.IdealSpeedup(&seq.Run))
}

func TestOneToAllErrors(t *testing.T) {
	g := diamond(t)
	if _, err := NewWorkspace().OneToAll(g, -1, Options{}); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := NewWorkspace().OneToAll(g, 99, Options{}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := NewWorkspace().OneToAll(g, 0, Options{Partition: PartitionStrategy(9)}); err == nil {
		t.Error("bad partition strategy accepted")
	}
	if _, err := NewWorkspace().TimeQuery(g, 0, -5, Options{}); err == nil {
		t.Error("negative departure accepted")
	}
	if _, err := NewWorkspace().TimeQuery(g, 77, 0, Options{}); err == nil {
		t.Error("bad source accepted by TimeQuery")
	}
	if _, err := LabelCorrecting(g, 44, Options{}); err == nil {
		t.Error("bad source accepted by LabelCorrecting")
	}
	if _, err := LabelCorrecting(g, 0, Options{TrackParents: true}); err == nil {
		t.Error("LC parent tracking accepted")
	}
}

func TestJourneyExtraction(t *testing.T) {
	g := diamond(t)
	res, err := NewWorkspace().OneToAll(g, 0, Options{TrackParents: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find the connection index of the 480 morning departure.
	idx := -1
	for i, d := range res.Deps {
		if d == 480 && g.TT.Connections[res.Conns[i]].To == 1 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("morning departure not found in conn(A)")
	}
	rides, err := res.JourneyConnections(3, idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rides) != 2 {
		t.Fatalf("journey has %d rides, want 2 (A→B, B→D): %v", len(rides), rides)
	}
	c0, c1 := g.TT.Connections[rides[0]], g.TT.Connections[rides[1]]
	if c0.From != 0 || c0.To != 1 || c1.From != 1 || c1.To != 3 {
		t.Fatalf("journey path wrong: %+v %+v", c0, c1)
	}
	if c0.Dep != 480 || c1.Arr != 510 {
		t.Fatalf("journey times wrong: dep %d arr %d", c0.Dep, c1.Arr)
	}
	// Errors.
	if _, err := res.JourneyConnections(3, 9999); err == nil {
		t.Error("out-of-range connection accepted")
	}
	noparents, _ := NewWorkspace().OneToAll(g, 0, Options{})
	if _, err := noparents.JourneyConnections(3, idx); err == nil {
		t.Error("journey without parent tracking accepted")
	}
}

// Interval search (Dean [5]): the window-restricted profile must equal the
// full profile on window departures, contain no points outside the window,
// and do less work.
func TestOneToAllWindow(t *testing.T) {
	cfg, err := gen.FamilyConfig(gen.Oahu, 0.05, 19)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	full, err := NewWorkspace().OneToAll(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	from, to := timeutil.Ticks(420), timeutil.Ticks(600) // 07:00–10:00
	win, err := NewWorkspace().OneToAllWindow(g, 0, from, to, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if win.Run.Total.SettledConns >= full.Run.Total.SettledConns {
		t.Fatalf("window search did not save work: %d vs %d",
			win.Run.Total.SettledConns, full.Run.Total.SettledConns)
	}
	for _, d := range win.Deps {
		if d < from || d > to {
			t.Fatalf("seed departure %d outside window", d)
		}
	}
	for s := 1; s < tt.NumStations(); s += 4 {
		st := timetable.StationID(s)
		fw, err1 := win.StationProfile(st)
		ff, err2 := full.StationProfile(st)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		// Every window profile point must match the full profile value.
		for _, pt := range fw.Points() {
			if got, want := fw.EvalArrival(pt.Dep), ff.EvalArrival(pt.Dep); got < want {
				t.Fatalf("window better than full at station %d dep %d: %d vs %d", s, pt.Dep, got, want)
			}
		}
		// Departing inside the window, both agree wherever the full
		// optimum also departs inside the window.
		for tau := from; tau <= to; tau += 37 {
			wa, fa := fw.EvalArrival(tau), ff.EvalArrival(tau)
			if wa < fa {
				t.Fatalf("window profile beats full profile at %d", tau)
			}
		}
	}
	if _, err := NewWorkspace().OneToAllWindow(g, 0, 600, 420, Options{}); err == nil {
		t.Fatal("inverted window accepted")
	}
}

// A ride whose every departure is cancelled is still a ride: relaxing it
// counts once and reaches nothing, where a route's last stop has no ride to
// relax. The graph comes from PatchTimes cancelling the only train of route
// B→C, whose first stop keeps an empty ride.
func TestEmptyRideCountsRelaxed(t *testing.T) {
	b := timetable.NewBuilder(day)
	a, bb, c := b.AddStation("A", 2), b.AddStation("B", 3), b.AddStation("C", 2)
	b.AddTrainRun("ab", []timetable.StationID{a, bb}, 480, []timeutil.Ticks{10}, 0)
	b.AddTrainRun("bc", []timetable.StationID{bb, c}, 500, []timeutil.Ticks{10}, 0)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ptt, err := tt.Patch([]timetable.ConnUpdate{{ID: 1, Cancel: true}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(tt).PatchTimes(ptt, []timetable.ConnID{1})
	if err != nil {
		t.Fatal(err)
	}
	if conns, ok := g.Ride(g.ConnDepartureNode(1)); !ok || len(conns) != 0 {
		t.Fatalf("B's route node on B→C: ride (%v, %v), want one without departures", conns, ok)
	}
	res, err := NewWorkspace().OneToAll(g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The seed at A's route node relaxes its alight and its ride to B's
	// route node, which relaxes its alight (the route ends there); station
	// A relaxes its board, and station B its two boards, the second of
	// which scans B→C's first stop and relaxes its empty ride: 7.
	want := stats.Counters{SettledConns: 5, QueuePushes: 3, QueuePops: 3, Relaxed: 7}
	if got := res.Run.Total; got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
	if arr := res.StationArrival(c, 0); !arr.IsInf() {
		t.Fatalf("C reached at %d over a cancelled ride", arr)
	}
}

// A board whose key catches the departure a later connection already took
// from the route node is refused by the node's ride cursor before the
// record check: the earlier connection writes no record there, counts no
// settled label and scans nothing. Two trains A→B (08:00 and 08:20, ten
// minutes) feed one train B→C at 10:00, and T(B) = 2. The 08:20 connection
// boards B→C at 08:32 and evaluates its ride; the 08:00 connection boards
// it at 08:12, inside the window (−1, 08:32] that catches the same
// departure, and is refused with one relaxation and one pruning.
func TestBoardRefusedByCursor(t *testing.T) {
	b := timetable.NewBuilder(day)
	a, bb, c := b.AddStation("A", 2), b.AddStation("B", 2), b.AddStation("C", 2)
	b.AddTrainRun("ab1", []timetable.StationID{a, bb}, 480, []timeutil.Ticks{10}, 0)
	b.AddTrainRun("ab2", []timetable.StationID{a, bb}, 500, []timeutil.Ticks{10}, 0)
	b.AddTrainRun("bc", []timetable.StationID{bb, c}, 600, []timeutil.Ticks{10}, 0)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	u := graph.NoNode // B's route node on B→C
	for _, n := range g.Boards(bb) {
		if _, ok := g.Ride(n); ok {
			u = n
		}
	}
	ws := NewWorkspace()
	res, err := ws.OneToAll(g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deps) != 2 || res.Deps[0] != 480 || res.Deps[1] != 500 {
		t.Fatalf("conn(A) departs at %v, want [480 500]", res.Deps)
	}
	// The 08:20 connection is searched first, with the query's first stamp.
	w := ws.worker(0)
	first := w.rowGen - 1
	if l := w.row[u]; l.key != 512 || l.stamp != first {
		t.Fatalf("B→C's first stop keeps %+v, want the 08:20 connection's board {512 %d}", l, first)
	}
	if rc := w.rides[u]; rc.stamp != first || rc.hi != 512 {
		t.Fatalf("B→C's ride cursor %+v, want the 08:20 connection's evaluation at 512", rc)
	}
	// The 08:20 connection pops its seed, A, B and C (4 settles), writes
	// the records of B's route node on A→B and of both stops of B→C (3),
	// and relaxes the seed's alight and ride, A's board, B's two boards,
	// B→C's ride, C's alight and C's board (9 relaxations, no pruning). The
	// 08:00 connection pops its seed, A and B (3), writes B's record on A→B
	// (1) and relaxes the seed's alight and ride, the alight at B, A's
	// board and B's two boards (6): the board of B→C is the cursor's
	// refusal, one relaxation and one pruning, with no settle.
	want := stats.Counters{SettledConns: 11, QueuePushes: 7, QueuePops: 7, Relaxed: 15, PrunedConns: 1}
	if got := res.Run.Total; got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
	sched := NewConnectionScan(tt)
	for tau := timeutil.Ticks(0); tau < day.Len(); tau++ {
		cs, err := sched.Query(a, tau, oracleDays)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []timetable.StationID{bb, c} {
			if got, want := res.EarliestArrival(s, tau), cs.StationArrival(s); got != want {
				t.Fatalf("station %d from A at %d: profile %d, connection scan %d", s, tau, got, want)
			}
		}
	}
}

// A scan honours the cross-worker stop (Theorem 2): with another worker's
// later connection published at T by 08:15, connection 0 of a station-to-
// station search from A to C ends its trip at the first record at or
// beyond that arrival, counted as a pruning, where a pop would only have
// ended the connection once the record's station surfaced. One train runs
// A→B→C at 08:00 (ten minutes a hop). The worker is driven directly, with
// the arrival published before it starts, so the counts do not depend on
// how two workers interleave.
func TestScanHonoursCrossStop(t *testing.T) {
	b := timetable.NewBuilder(day)
	a, bb, c := b.AddStation("A", 2), b.AddStation("B", 2), b.AddStation("C", 2)
	b.AddTrainRun("abc", []timetable.StationID{a, bb, c}, 480, []timeutil.Ticks{10, 10}, 0)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	ws := NewWorkspace()
	res := &StationQueryResult{ArrT: []timeutil.Ticks{timeutil.Infinity}}
	q := &s2sQuery{res: res, target: c, targetNode: g.StationNode(c), stopping: true, crossStop: true}
	q.stop.observeTargetSettle(1, 495)
	pres := &ProfileResult{Source: a, Conns: []timetable.ConnID{0}, Deps: []timeutil.Ticks{480}, g: g}
	w := spcsWorker{g: g, res: pres, limit: timeutil.Infinity, q: q, lo: 0, hi: 1, ws: ws.worker(0)}
	w.run()
	// The seed's scan writes B's record at 08:10 and queues B, then stops
	// at C's record at 08:20 (the pruning); A and B pop and their boards
	// are refused by their own records. Without the check the scan would
	// write C's record and queue C, whose pop the cross-worker check ends:
	// {5, 4, 4, 7, 1}.
	want := stats.Counters{SettledConns: 4, QueuePushes: 3, QueuePops: 3, Relaxed: 6, PrunedConns: 1}
	if w.counters != want {
		t.Fatalf("counters %+v, want %+v", w.counters, want)
	}
	if !res.ArrT[0].IsInf() {
		t.Fatalf("connection 0 answered %d, want no answer under the published 495", res.ArrT[0])
	}
}
