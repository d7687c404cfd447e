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
// write (a record lowered later counts again), the seeds queued. A target
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
		{"oahu", 0, 480, nil, work{58, 20, 20, 94}},
		{"oahu", 8, 1000, nil, work{59, 20, 18, 95}},
		{"oahu", 15, 1439, nil, work{59, 19, 18, 94}},
		{"oahu", 0, 480, []timetable.StationID{5, 4}, work{18, 13, 8, 30}},
		{"oahu", 8, 1000, []timetable.StationID{1, 2, 3, 2}, work{48, 18, 15, 75}},
		{"oahu", 15, 1439, []timetable.StationID{15}, work{7, 7, 3, 10}},
		{"germany", 0, 480, nil, work{230, 45, 31, 411}},
		{"germany", 12, 1000, nil, work{229, 39, 27, 401}},
		{"germany", 24, 1439, nil, work{228, 49, 33, 411}},
		{"germany", 0, 480, []timetable.StationID{8, 6}, work{80, 32, 14, 146}},
		{"germany", 12, 1000, []timetable.StationID{1, 2, 3, 2}, work{199, 39, 23, 349}},
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
// (0 → 24). A search without a table to prune with (no table, a local
// pair, a table without via stations, DisableTablePruning) scans trips; the
// ones pruned by the table queue route nodes and keep the counts they had
// before trips were scanned. Pruned is pinned
// for one-to-all too: its arrival bound refuses labels without counting
// them, where the station-to-station stopping criterion counts every finite
// key it refuses.
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
		{kind: s2s, env: "oahu", src: 0, dst: 9, want: work{1604, 586, 539, 2431, 290}},
		{kind: s2s, env: "oahu", src: 0, dst: 9, opts: stop, want: work{2413, 811, 764, 3687, 141}},
		{kind: s2s, env: "oahu+deg2", src: 8, dst: 3, want: work{2148, 745, 741, 3299, 227}},
		{kind: s2s, env: "oahu+deg2", src: 8, dst: 3, opts: noTable, want: work{2148, 745, 741, 3299, 227}},
		{kind: s2s, env: "germany", src: 24, dst: 9, want: work{3209, 462, 416, 5629, 1382}},
		{kind: s2s, env: "germany", src: 24, dst: 9, opts: stop, want: work{3231, 465, 418, 5669, 1237}},
		{kind: s2s, env: "germany+deg2", src: 0, dst: 5, want: work{629, 141, 130, 1044, 279}},
		{kind: s2s, env: "germany+deg2", src: 9, dst: 1, want: work{}},
		{kind: s2s, env: "germany+deg2", src: 12, dst: 9, want: work{115, 128, 115, 242, 20}},
		{kind: s2s, env: "germany+deg2", src: 12, dst: 9, opts: noTarget, want: work{830, 977, 863, 2059, 130}},
		{kind: s2s, env: "germany+deg2", src: 24, dst: 13, want: work{2967, 3192, 3101, 7574, 1300}},
		{kind: s2s, env: "germany+deg2", src: 24, dst: 13, opts: noTable, want: work{3738, 596, 479, 6565, 1318}},
		{kind: s2s, env: "germany+deg2", src: 0, dst: 24, want: work{1393, 1639, 1455, 3402, 311}},
		{kind: point, env: "oahu", src: 0, dst: 9, depart: 480, want: work{24, 13, 11, 39, 0}},
		{kind: point, env: "oahu", src: 0, dst: 9, depart: 480, opts: stop, want: work{24, 13, 11, 39, 0}},
		{kind: point, env: "oahu+deg2", src: 8, dst: 3, depart: 1000, want: work{48, 18, 15, 75, 0}},
		{kind: point, env: "germany", src: 24, dst: 9, depart: 480, want: work{131, 34, 18, 239, 0}},
		{kind: point, env: "germany+deg2", src: 0, dst: 5, depart: 700, want: work{30, 20, 9, 57, 0}},
		{kind: point, env: "germany+deg2", src: 9, dst: 1, depart: 700, want: work{}},
		{kind: point, env: "germany+deg2", src: 12, dst: 9, depart: 480, want: work{11, 20, 11, 28, 0}},
		{kind: point, env: "germany+deg2", src: 12, dst: 9, depart: 480, opts: noTarget, want: work{83, 112, 94, 209, 11}},
		{kind: point, env: "germany+deg2", src: 24, dst: 13, depart: 1000, want: work{95, 119, 99, 236, 4}},
		{kind: point, env: "germany+deg2", src: 24, dst: 13, depart: 1000, opts: noTable, want: work{199, 52, 27, 360, 0}},
		{kind: point, env: "germany+deg2", src: 0, dst: 24, depart: 1000, want: work{118, 161, 127, 293, 9}},
		{kind: oneToAll, env: "oahu", src: 0, want: work{2887, 895, 892, 4508, 190}},
		{kind: oneToAll, env: "germany", src: 12, want: work{1734, 311, 216, 3047, 122}},
		{kind: window, env: "oahu", src: 0, depart: 480, until: 560, want: work{235, 74, 74, 366, 12}},
		{kind: window, env: "germany", src: 12, depart: 480, until: 720, want: work{115, 19, 18, 201, 4}},
	} {
		env := envs[c.env]
		ws := NewWorkspace()
		var run stats.Run
		switch c.kind {
		case s2s, point:
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
			run = res.Run
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

// TestScanQueuesStationsOnly checks the settle loop's schedule. Without a
// distance table a board or a ride hands its head to scan, so the only route
// nodes that pass through the queue are seeds: at most one per connection of
// a profile search, and the route nodes of S for a point search, at any
// thread count. A table query still queues the route records it reaches,
// since Theorems 3 and 4 read them at pops.
func TestScanQueuesStationsOnly(t *testing.T) {
	nets := workNets(t)
	routePops := func(ws *Workspace) (n int64) {
		for _, w := range ws.spcsBuf {
			n += w.routePops
		}
		return n
	}
	for name, g := range nets {
		boards := func(s timetable.StationID) (n int64) {
			for _, e := range g.OutEdges(g.StationNode(s)) {
				if e.Kind == graph.Board {
					n++
				}
			}
			return n
		}
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
				check("time-query", src, tq.Run, routePops(ws), boards(src))
				pt, err := ws.EarliestArrival(QueryEnv{Graph: g}, src, 1, 480, QueryOptions{Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				check("earliest arrival", src, pt.Run, routePops(ws), boards(src))
			}
		}
	}

	// Germany 24 → 13 prunes by the deg > 2 table (TestStationQueryWork):
	// its route records go through the queue.
	g := nets["germany"]
	sg := stationgraph.Build(g.TT)
	pre, err := BuildDistanceTable(g, sg.SelectByDegree(2), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	res, err := ws.StationToStation(QueryEnv{Graph: g, StationGraph: sg, Table: pre.Table}, 24, 13, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if routes := routePops(ws); routes <= int64(len(res.Conns)) {
		t.Errorf("table query germany 24 → 13: %d route-node pops, want more than its %d seeds", routes, len(res.Conns))
	}
}
