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

// The time-query's work is pinned: settled nodes, queue pushes and pops and
// relaxed edges of TimeQuery and TimeQueryTo. The counts are a plain
// time-dependent Dijkstra's over one label per node — each node settled
// once, one push per improvement — which the one-to-all search must match
// at k = 1. A target set stops the search at its last station; duplicates
// and the source itself count once.
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
		{"oahu", 0, 480, nil, work{56, 56, 56, 112}},
		{"oahu", 8, 1000, nil, work{56, 56, 56, 112}},
		{"oahu", 15, 1439, nil, work{56, 57, 56, 112}},
		{"oahu", 0, 480, []timetable.StationID{5, 4}, work{13, 15, 13, 24}},
		{"oahu", 8, 1000, []timetable.StationID{1, 2, 3, 2}, work{44, 45, 44, 85}},
		{"oahu", 15, 1439, []timetable.StationID{15}, work{3, 5, 3, 4}},
		{"germany", 0, 480, nil, work{171, 210, 171, 418}},
		{"germany", 12, 1000, nil, work{171, 210, 171, 418}},
		{"germany", 24, 1439, nil, work{171, 208, 171, 418}},
		{"germany", 0, 480, []timetable.StationID{8, 6}, work{43, 53, 43, 98}},
		{"germany", 12, 1000, []timetable.StationID{1, 2, 3, 2}, work{142, 177, 142, 346}},
		{"germany", 24, 1439, []timetable.StationID{24}, work{9, 14, 9, 13}},
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
// (0 → 24). Pruned is pinned
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
		{kind: s2s, env: "oahu", src: 0, dst: 9, want: work{1557, 1601, 1557, 3034, 290}},
		{kind: s2s, env: "oahu", src: 0, dst: 9, opts: stop, want: work{2490, 2534, 2490, 4925, 203}},
		{kind: s2s, env: "oahu+deg2", src: 8, dst: 3, want: work{2144, 2145, 2144, 4123, 227}},
		{kind: s2s, env: "oahu+deg2", src: 8, dst: 3, opts: noTable, want: work{2144, 2145, 2144, 4123, 227}},
		{kind: s2s, env: "germany", src: 24, dst: 9, want: work{3074, 3163, 3074, 7773, 1327}},
		{kind: s2s, env: "germany", src: 24, dst: 9, opts: stop, want: work{3080, 3174, 3080, 7785, 1179}},
		{kind: s2s, env: "germany+deg2", src: 0, dst: 5, want: work{590, 596, 590, 1358, 267}},
		{kind: s2s, env: "germany+deg2", src: 9, dst: 1, want: work{}},
		{kind: s2s, env: "germany+deg2", src: 12, dst: 9, want: work{115, 128, 115, 242, 20}},
		{kind: s2s, env: "germany+deg2", src: 12, dst: 9, opts: noTarget, want: work{830, 977, 863, 2059, 130}},
		{kind: s2s, env: "germany+deg2", src: 24, dst: 13, want: work{2967, 3192, 3101, 7574, 1300}},
		{kind: s2s, env: "germany+deg2", src: 24, dst: 13, opts: noTable, want: work{3468, 3610, 3468, 8721, 1246}},
		{kind: s2s, env: "germany+deg2", src: 0, dst: 24, want: work{1393, 1639, 1455, 3402, 311}},
		{kind: point, env: "oahu", src: 0, dst: 9, depart: 480, want: work{18, 21, 18, 34, 0}},
		{kind: point, env: "oahu", src: 0, dst: 9, depart: 480, opts: stop, want: work{18, 21, 18, 34, 0}},
		{kind: point, env: "oahu+deg2", src: 8, dst: 3, depart: 1000, want: work{44, 45, 44, 85, 0}},
		{kind: point, env: "germany", src: 24, dst: 9, depart: 480, want: work{83, 106, 83, 207, 0}},
		{kind: point, env: "germany+deg2", src: 0, dst: 5, depart: 700, want: work{14, 18, 14, 30, 0}},
		{kind: point, env: "germany+deg2", src: 9, dst: 1, depart: 700, want: work{}},
		{kind: point, env: "germany+deg2", src: 12, dst: 9, depart: 480, want: work{11, 20, 11, 28, 0}},
		{kind: point, env: "germany+deg2", src: 12, dst: 9, depart: 480, opts: noTarget, want: work{83, 112, 94, 209, 11}},
		{kind: point, env: "germany+deg2", src: 24, dst: 13, depart: 1000, want: work{95, 119, 99, 236, 4}},
		{kind: point, env: "germany+deg2", src: 24, dst: 13, depart: 1000, opts: noTable, want: work{132, 160, 132, 322, 0}},
		{kind: point, env: "germany+deg2", src: 0, dst: 24, depart: 1000, want: work{118, 161, 127, 293, 9}},
		{kind: oneToAll, env: "oahu", src: 0, want: work{2883, 2884, 2883, 5768, 190}},
		{kind: oneToAll, env: "germany", src: 12, want: work{1420, 1627, 1420, 3478, 104}},
		{kind: window, env: "oahu", src: 0, depart: 480, until: 560, want: work{235, 235, 235, 472, 12}},
		{kind: window, env: "germany", src: 12, depart: 480, until: 720, want: work{111, 114, 111, 275, 4}},
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
