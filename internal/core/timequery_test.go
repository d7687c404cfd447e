package core

import (
	"testing"

	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

func TestTimeQueryBasics(t *testing.T) {
	g := diamond(t)
	// Depart A at 07:00: morning train at 08:00 via B arrives 08:30.
	res, err := NewWorkspace().TimeQuery(g, 0, 420, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.StationArrival(3); got != 510 {
		t.Errorf("arrival at D = %d, want 510", got)
	}
	// The source is reached at departure time.
	if got := res.StationArrival(0); got != 420 {
		t.Errorf("arrival at source = %d, want 420", got)
	}
	if res.Source != 0 || res.Depart != 420 {
		t.Error("metadata wrong")
	}
	if res.Run.Total.SettledConns == 0 || res.Run.Total.QueuePops == 0 {
		t.Error("no work recorded")
	}
}

func TestTimeQueryNoSourceTransferPenalty(t *testing.T) {
	// The first boarding must not pay the transfer time T(S): the diamond's
	// A has T=2, and the 08:00 train must be catchable when departing at
	// exactly 08:00.
	g := diamond(t)
	res, err := NewWorkspace().TimeQuery(g, 0, 480, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.StationArrival(1); got != 495 {
		t.Errorf("arrival at B = %d, want 495 (board the 480 train)", got)
	}
}

func TestTimeQueryAbsoluteTimesBeyondPeriod(t *testing.T) {
	g := diamond(t)
	// Departing on day 1 at 08:00 (1920) gives day-1 arrivals.
	res, err := NewWorkspace().TimeQuery(g, 0, 1920, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.StationArrival(3); got != 1950 {
		t.Errorf("day-1 arrival at D = %d, want 1950", got)
	}
}

func TestTimeQueryUnreachable(t *testing.T) {
	// One-way line: from the last station nothing is reachable.
	b := timetable.NewBuilder(day)
	a := b.AddStation("A", 1)
	c := b.AddStation("B", 1)
	b.AddTrainRun("t", []timetable.StationID{a, c}, 480, []timeutil.Ticks{10}, 0)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	res, err := NewWorkspace().TimeQuery(g, 1, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StationArrival(0).IsInf() {
		t.Error("unreachable station has finite arrival")
	}
	if got := res.StationArrival(1); got != 100 {
		t.Errorf("source arrival = %d, want 100", got)
	}
}

// Waiting never hurts: the time-query arrival is monotone non-decreasing in
// the departure time (FIFO property of the whole network).
func TestTimeQueryFIFO(t *testing.T) {
	g := diamond(t)
	prev := make(map[timetable.StationID]timeutil.Ticks)
	for tau := timeutil.Ticks(0); tau < 1440; tau += 60 {
		res, err := NewWorkspace().TimeQuery(g, 0, tau, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for s := timetable.StationID(1); s < 4; s++ {
			arr := res.StationArrival(s)
			if p, ok := prev[s]; ok && arr < p {
				t.Fatalf("FIFO violated at station %d: departing %d arrives %d, departing earlier arrived %d",
					s, tau, arr, p)
			}
			prev[s] = arr
		}
	}
}

// The time-query's work is pinned: settled labels, queue pushes and pops and
// relaxed edges of TimeQuery and TimeQueryTo. The counts are the settle
// loop's at k = 1: each station queued per improvement and settled once,
// each route record written by a trip scan and counted as settled per
// write (a record lowered later counts again; a board whose departure the
// node's ride cursor already caught writes none), the seeds queued. A target
// set stops the search at its last station; duplicates and the source
// itself count once.
func TestTimeQueryWork(t *testing.T) {
	nets := workNets(t)
	type work struct{ settled, pushes, pops, relaxed int64 }
	for _, c := range []struct {
		net     string
		src     timetable.StationID
		depart  timeutil.Ticks
		targets []timetable.StationID
		want    work
	}{
		{"oahu", 0, 480, nil, work{57, 20, 20, 93}},
		{"oahu", 8, 1000, nil, work{57, 20, 18, 93}},
		{"oahu", 15, 1439, nil, work{57, 19, 18, 92}},
		{"oahu", 0, 480, []timetable.StationID{5, 4}, work{18, 13, 8, 30}},
		{"oahu", 8, 1000, []timetable.StationID{1, 2, 3, 2}, work{48, 18, 15, 75}},
		{"oahu", 15, 1439, []timetable.StationID{15}, work{7, 7, 3, 10}},
		{"germany", 0, 480, nil, work{185, 45, 31, 366}},
		{"germany", 12, 1000, nil, work{189, 39, 27, 361}},
		{"germany", 24, 1439, nil, work{185, 49, 33, 368}},
		{"germany", 0, 480, []timetable.StationID{8, 6}, work{71, 32, 14, 137}},
		{"germany", 12, 1000, []timetable.StationID{1, 2, 3, 2}, work{165, 39, 23, 315}},
		{"germany", 24, 1439, []timetable.StationID{24}, work{29, 20, 9, 48}},
	} {
		ws := NewWorkspace()
		var res *TimeQueryResult
		var err error
		if c.targets == nil {
			res, err = ws.TimeQuery(nets[c.net], c.src, c.depart, Options{})
		} else {
			res, err = ws.TimeQueryTo(nets[c.net], c.src, c.depart, c.targets, Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		x := res.Run.Total
		if got := (work{x.SettledConns, x.QueuePushes, x.QueuePops, x.Relaxed}); got != c.want {
			t.Errorf("%s from %d at %d to %v: {settled, pushes, pops, relaxed} = %v, want %v",
				c.net, c.src, c.depart, c.targets, got, c.want)
		}
	}
}

// workNets returns the two networks the work tests pin counts on: oahu
// (workspaceNet) and germany at scale 0.05.
func workNets(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	cfg, err := gen.FamilyConfig(gen.Germany, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"oahu": workspaceNet(t), "germany": graph.Build(tt)}
}

// TestStationQueryWork pins the work of the station-to-station search
// (StationToStation, EarliestArrival) and of the one-to-all search
// (OneToAll, and a window with an arrival bound as JourneySearch runs it)
// at one thread: settled labels, queue pushes and pops, relaxed edges and
// pruned labels. The station queries run without a table and with the
// deg > 2 table (empty on oahu, whose stations all have degree ≤ 2), once
// under each Disable* switch; germany has a local pair (0 → 5), a table hit
// (9 → 1), a pair that target pruning answers (12 → 9) and one whose via
// pruning refreshes µ past the first via station that keeps a label
// (0 → 24). Every search scans trips; one the table prunes runs Theorems 3
// and 4 at each record a scan writes, and each of its cases runs a second
// time with the prune memo off, which must change no count.
// Pruned is pinned for one-to-all too: its arrival bound refuses labels
// without counting them, where the station-to-station stopping criterion
// counts every finite key it refuses. A board, ride-in or seed the ride
// cursor refuses counts one relaxation, and one pruning when a later
// connection took its departure.
func TestStationQueryWork(t *testing.T) {
	nets := workNets(t)
	envs := map[string]QueryEnv{}
	for name, g := range nets {
		envs[name] = QueryEnv{Graph: g}
		sg := stationgraph.Build(g.TT)
		pre, err := BuildDistanceTable(g, sg.SelectByDegree(2), Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		envs[name+"+deg2"] = QueryEnv{Graph: g, StationGraph: sg, Table: pre.Table}
	}
	type work struct{ settled, pushes, pops, relaxed, pruned int64 }
	const (
		s2s = iota
		point
		oneToAll
		window
	)
	stop := QueryOptions{DisableStoppingCriterion: true}
	noTable := QueryOptions{DisableTablePruning: true}
	noTarget := QueryOptions{DisableTargetPruning: true}
	for _, c := range []struct {
		kind     int
		env      string
		src, dst timetable.StationID
		depart   timeutil.Ticks // point: the departure; window: [depart, until]
		until    timeutil.Ticks
		opts     QueryOptions
		want     work
	}{
		{kind: s2s, env: "oahu", src: 0, dst: 9, want: work{1488, 586, 539, 2315, 291}},
		{kind: s2s, env: "oahu", src: 0, dst: 9, opts: stop, want: work{2230, 811, 764, 3504, 271}},
		{kind: s2s, env: "oahu+deg2", src: 8, dst: 3, want: work{2025, 745, 741, 3176, 321}},
		{kind: s2s, env: "oahu+deg2", src: 8, dst: 3, opts: noTable, want: work{2025, 745, 741, 3176, 321}},
		{kind: s2s, env: "germany", src: 24, dst: 9, want: work{1748, 462, 416, 4184, 1758}},
		{kind: s2s, env: "germany", src: 24, dst: 9, opts: stop, want: work{1760, 465, 418, 4214, 1745}},
		{kind: s2s, env: "germany+deg2", src: 0, dst: 5, want: work{444, 141, 130, 869, 289}},
		{kind: s2s, env: "germany+deg2", src: 9, dst: 1, want: work{}},
		{kind: s2s, env: "germany+deg2", src: 12, dst: 9, want: work{113, 61, 46, 208, 48}},
		{kind: s2s, env: "germany+deg2", src: 12, dst: 9, opts: noTarget, want: work{724, 181, 131, 1459, 287}},
		{kind: s2s, env: "germany+deg2", src: 24, dst: 13, want: work{1746, 479, 409, 4167, 1785}},
		{kind: s2s, env: "germany+deg2", src: 24, dst: 13, opts: noTable, want: work{2163, 596, 479, 5006, 1850}},
		{kind: s2s, env: "germany+deg2", src: 0, dst: 24, want: work{1206, 289, 243, 2402, 532}},
		{kind: point, env: "oahu", src: 0, dst: 9, depart: 480, want: work{24, 13, 11, 39, 0}},
		{kind: point, env: "oahu", src: 0, dst: 9, depart: 480, opts: stop, want: work{24, 13, 11, 39, 0}},
		{kind: point, env: "oahu+deg2", src: 8, dst: 3, depart: 1000, want: work{48, 18, 15, 75, 0}},
		{kind: point, env: "germany", src: 24, dst: 9, depart: 480, want: work{111, 34, 18, 219, 0}},
		{kind: point, env: "germany+deg2", src: 0, dst: 5, depart: 700, want: work{28, 20, 9, 55, 0}},
		{kind: point, env: "germany+deg2", src: 9, dst: 1, depart: 700, want: work{}},
		{kind: point, env: "germany+deg2", src: 12, dst: 9, depart: 480, want: work{14, 10, 5, 25, 1}},
		{kind: point, env: "germany+deg2", src: 12, dst: 9, depart: 480, opts: noTarget, want: work{87, 22, 15, 168, 24}},
		{kind: point, env: "germany+deg2", src: 24, dst: 13, depart: 1000, want: work{106, 30, 20, 207, 16}},
		{kind: point, env: "germany+deg2", src: 24, dst: 13, depart: 1000, opts: noTable, want: work{171, 52, 27, 332, 0}},
		{kind: point, env: "germany+deg2", src: 0, dst: 24, depart: 1000, want: work{134, 35, 25, 259, 23}},
		{kind: oneToAll, env: "oahu", src: 0, want: work{2566, 895, 892, 4187, 435}},
		{kind: oneToAll, env: "germany", src: 12, want: work{1343, 311, 216, 2663, 256}},
		{kind: window, env: "oahu", src: 0, depart: 480, until: 560, want: work{214, 74, 74, 345, 24}},
		{kind: window, env: "germany", src: 12, depart: 480, until: 720, want: work{102, 19, 18, 190, 17}},
	} {
		env := envs[c.env]
		ws := NewWorkspace()
		var run stats.Run
		switch c.kind {
		case s2s, point:
			query := func(ws *Workspace) stats.Run {
				var res *StationQueryResult
				var err error
				if c.kind == s2s {
					res, err = ws.StationToStation(env, c.src, c.dst, c.opts)
				} else {
					res, err = ws.EarliestArrival(env, c.src, c.dst, c.depart, c.opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res.Run
			}
			run = query(ws)
			if env.Table != nil {
				noMemo := NewWorkspace()
				noMemo.noMemo = true
				if x, y := run.Total, query(noMemo).Total; x != y {
					t.Errorf("%s %d → %d at %d %+v: the prune memo changes the counts: %v, without it %v",
						c.env, c.src, c.dst, c.depart, c.opts, x, y)
				}
			}
		case oneToAll, window:
			from, to, until := timeutil.Ticks(0), timeutil.Infinity, timeutil.Infinity
			if c.kind == window {
				from, to, until = c.depart, c.until, c.until
			}
			res, err := ws.oneToAll(env.Graph, c.src, from, to, until, c.opts.Options)
			if err != nil {
				t.Fatal(err)
			}
			run = res.Run
		}
		x := run.Total
		if got := (work{x.SettledConns, x.QueuePushes, x.QueuePops, x.Relaxed, x.PrunedConns}); got != c.want {
			t.Errorf("%s on %s, %d → %d at %d %+v: {settled, pushes, pops, relaxed, pruned} = %v, want %v",
				[...]string{"StationToStation", "EarliestArrival", "OneToAll", "OneToAllWindow"}[c.kind],
				c.env, c.src, c.dst, c.depart, c.opts, got, c.want)
		}
	}
}

// TestScanQueuesStationsOnly checks the settle loop's schedule. A board or a
// ride hands its head to scan, with or without a distance table, so the
// only route nodes that pass through the queue are seeds: at most one
// per connection of a profile search, and the route nodes of S for a point
// search, at any thread count, with or without a table.
func TestScanQueuesStationsOnly(t *testing.T) {
	nets := workNets(t)
	routePops := func(ws *Workspace) (n int64) {
		for _, w := range ws.spcsBuf {
			n += w.routePops
		}
		return n
	}
	for name, g := range nets {
		check := func(what string, src timetable.StationID, run stats.Run, routes, seeds int64) {
			t.Helper()
			if routes > seeds || run.Total.QueuePops <= routes {
				t.Errorf("%s %s from %d at %d threads: %d route-node pops of %d, at most %d seeds",
					name, what, src, len(run.PerThread), routes, run.Total.QueuePops, seeds)
			}
		}
		for _, threads := range []int{1, 2} {
			opts := Options{Threads: threads}
			ws := NewWorkspace()
			for _, src := range []timetable.StationID{0, timetable.StationID(g.NumStations() / 2)} {
				all, err := ws.OneToAll(g, src, opts)
				if err != nil {
					t.Fatal(err)
				}
				check("one-to-all", src, all.Run, routePops(ws), int64(len(all.Conns)))
				tq, err := ws.TimeQuery(g, src, 480, opts)
				if err != nil {
					t.Fatal(err)
				}
				check("time-query", src, tq.Run, routePops(ws), boardsOf(g, src))
				pt, err := ws.EarliestArrival(QueryEnv{Graph: g}, src, 1, 480, QueryOptions{Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				check("earliest arrival", src, pt.Run, routePops(ws), boardsOf(g, src))
			}
		}
	}

	// Germany 24 → 13 and 0 → 24 prune by the deg > 2 table
	// (TestStationQueryWork): Theorems 3 and 4 run at the records the scans
	// write, and no route record passes through the queue.
	g := nets["germany"]
	sg := stationgraph.Build(g.TT)
	pre, err := BuildDistanceTable(g, sg.SelectByDegree(2), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	env := QueryEnv{Graph: g, StationGraph: sg, Table: pre.Table}
	for _, threads := range []int{1, 2} {
		opts := QueryOptions{Options: Options{Threads: threads}}
		ws := NewWorkspace()
		for _, pair := range [][2]timetable.StationID{{24, 13}, {0, 24}} {
			res, err := ws.StationToStation(env, pair[0], pair[1], opts)
			if err != nil {
				t.Fatal(err)
			}
			if ws.s2q.table == nil {
				t.Fatalf("%d → %d is not pruned by the table", pair[0], pair[1])
			}
			if routes, seeds := routePops(ws), int64(len(res.Conns)); routes > seeds {
				t.Errorf("table query germany %d → %d at %d threads: %d route-node pops, at most %d seeds", pair[0], pair[1], threads, routes, seeds)
			}
			if _, err := ws.EarliestArrival(env, pair[0], pair[1], 1000, opts); err != nil {
				t.Fatal(err)
			}
			if routes, seeds := routePops(ws), boardsOf(g, pair[0]); routes > seeds {
				t.Errorf("table point query germany %d → %d at %d threads: %d route-node pops, at most %d seeds", pair[0], pair[1], threads, routes, seeds)
			}
		}
	}
}

// boardsOf counts the boards of station s: the route nodes a point search
// seeds besides the station node.
func boardsOf(g *graph.Graph, s timetable.StationID) int64 { return int64(len(g.Boards(s))) }
