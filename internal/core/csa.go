package core

import (
	"fmt"
	"sort"
	"time"

	"transit/internal/graph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// ConnectionScan answers earliest-arrival time-queries by scanning
// elementary connections in departure order — the Connection Scan Algorithm
// (Dibbelt et al., 2013), included as an algorithmically independent
// reference: it shares no code with the graph-based searches (no graph, no
// priority queue, no settle loop), which makes it the cross-validation
// oracle of all of them — the profile searches, the point query and
// TimeQuery, their k = 1 forms — and a modern baseline for the benchmark
// harness.
//
// Semantics match TimeQuery: departing src at time dep, the first boarding
// is free, every train change at station S costs T(S), staying aboard a
// train costs nothing. The periodic timetable is unrolled over a bounded
// horizon of trip start days; overnight trains keep their identity across
// midnight because each connection carries its lifted within-trip time.
type ConnectionScanResult struct {
	Source timetable.StationID
	Depart timeutil.Ticks
	Run    stats.Run

	arr    []timeutil.Ticks
	arrGen []uint32
	gen    uint32
}

// StationArrival returns the earliest arrival at a station within the
// scanned horizon (Infinity when unreachable in it).
func (r *ConnectionScanResult) StationArrival(s timetable.StationID) timeutil.Ticks {
	if r.arrGen[s] != r.gen {
		return timeutil.Infinity
	}
	return r.arr[s]
}

// CSASchedule caches the lifted, departure-sorted connection order for
// repeated scans. Safe for concurrent Query calls (each call runs on its
// own workspace); for steady-state traffic pass a reused workspace to
// QueryWS instead.
type CSASchedule struct {
	tt *timetable.Timetable
	// tripTime[c] is the connection's absolute departure within its trip's
	// local timeline: hop 0 departs at its time point in [0, π); later hops
	// lift past midnight as needed, so tripTime is monotone along a trip.
	tripTime []timeutil.Ticks
	// order lists connection IDs sorted by tripTime.
	order []timetable.ConnID
}

// NewConnectionScan prepares the schedule.
func NewConnectionScan(tt *timetable.Timetable) *CSASchedule {
	c := &CSASchedule{tt: tt, tripTime: make([]timeutil.Ticks, len(tt.Connections))}
	// Walk each train's hops in ID order (temporal by construction).
	lastAbs := make(map[timetable.TrainID]timeutil.Ticks)
	started := make(map[timetable.TrainID]bool)
	for _, conn := range tt.Connections {
		var depAbs timeutil.Ticks
		if !started[conn.Train] {
			started[conn.Train] = true
			depAbs = conn.Dep
		} else {
			prev := lastAbs[conn.Train]
			depAbs = prev + tt.Period.Delta(prev, conn.Dep)
		}
		c.tripTime[conn.ID] = depAbs
		dur := conn.Duration()
		if conn.Arr.IsInf() {
			// Cancelled connection (timetable.Patch): keep the trip's local
			// timeline finite so later hops of the train do not overflow.
			dur = 0
		}
		lastAbs[conn.Train] = depAbs + dur
	}
	c.order = make([]timetable.ConnID, len(tt.Connections))
	for i := range c.order {
		c.order[i] = timetable.ConnID(i)
	}
	sort.Slice(c.order, func(i, j int) bool {
		a, b := c.tripTime[c.order[i]], c.tripTime[c.order[j]]
		if a != b {
			return a < b
		}
		return c.order[i] < c.order[j]
	})
	return c
}

// Query runs one earliest-arrival scan covering trips that start within
// `days` periods around the departure time (2 is enough for any journey
// that crosses midnight once). The result owns a private workspace and
// stays valid indefinitely.
func (c *CSASchedule) Query(source timetable.StationID, dep timeutil.Ticks, days int) (*ConnectionScanResult, error) {
	return c.QueryWS(NewWorkspace(), source, dep, days)
}

// QueryWS is the workspace-reusing form of Query: the steady state
// allocates nothing. The result borrows workspace memory and is valid
// until the next query on the workspace.
func (c *CSASchedule) QueryWS(ws *Workspace, source timetable.StationID, dep timeutil.Ticks, days int) (*ConnectionScanResult, error) {
	tt := c.tt
	if int(source) < 0 || int(source) >= tt.NumStations() {
		return nil, fmt.Errorf("core: source station %d out of range", source)
	}
	if dep < 0 {
		return nil, fmt.Errorf("core: negative departure time %d", dep)
	}
	if days < 1 {
		days = 1
	}
	start := time.Now()
	gen := ws.begin()
	ns := tt.NumStations()
	ws.nodeArr = grow(ws.nodeArr, ns)
	ws.nodeArrGen = grow(ws.nodeArrGen, ns)
	res := &ws.cres
	*res = ConnectionScanResult{
		Source: source, Depart: dep,
		arr: ws.nodeArr, arrGen: ws.nodeArrGen, gen: gen,
	}
	// arrAt/setArr gate the station labels through the generation stamps,
	// so no O(numStations) Infinity fill runs per query.
	arrAt := func(s timetable.StationID) timeutil.Ticks {
		if res.arrGen[s] != gen {
			return timeutil.Infinity
		}
		return res.arr[s]
	}
	setArr := func(s timetable.StationID, v timeutil.Ticks) {
		res.arr[s] = v
		res.arrGen[s] = gen
	}
	setArr(source, dep)
	var cnt stats.Counters

	// relaxWalks propagates an improved arrival over footpaths,
	// transitively (strict improvement guards against zero-length cycles).
	walkQueue := ws.walkQueue[:0]
	relaxWalks := func(from timetable.StationID) {
		walkQueue = append(walkQueue[:0], from)
		for len(walkQueue) > 0 {
			s := walkQueue[len(walkQueue)-1]
			walkQueue = walkQueue[:len(walkQueue)-1]
			for _, f := range tt.FootpathsFrom(s) {
				if na := arrAt(s) + f.Walk; na < arrAt(f.To) {
					setArr(f.To, na)
					walkQueue = append(walkQueue, f.To)
				}
			}
		}
	}
	relaxWalks(source)

	pi := tt.Period.Len()
	// Trips starting the period before the departure may still be boardable
	// (overnight runs). The timetable is periodic — there is no first
	// service day — so the horizon may legitimately start at a negative
	// period index; events before dep are skipped during the scan.
	firstDay := dep/pi - 1
	nDays := days + 1
	// aboard is per trip instance: train z starting on horizon day d; a
	// trip is aboard iff its stamp matches this query's generation.
	ws.aboardGen = grow(ws.aboardGen, tt.NumTrains()*nDays)
	aboardGen := ws.aboardGen

	// Merged scan over the nDays shifted copies of the sorted event list.
	ws.dayIdx = grow(ws.dayIdx, nDays)
	idx := ws.dayIdx
	clear(idx)
	for {
		// Pick the day whose next event departs earliest.
		best, bestT := -1, timeutil.Infinity
		for d := 0; d < nDays; d++ {
			if idx[d] >= len(c.order) {
				continue
			}
			t := c.tripTime[c.order[idx[d]]] + (firstDay+timeutil.Ticks(d))*pi
			if t < bestT {
				best, bestT = d, t
			}
		}
		if best < 0 {
			break
		}
		id := c.order[idx[best]]
		idx[best]++
		conn := tt.Connections[id]
		if conn.Arr.IsInf() {
			continue // cancelled: never boardable
		}
		depAbs := bestT
		if depAbs < dep {
			continue
		}
		cnt.SettledConns++
		arrAbs := depAbs + conn.Duration()
		slot := int(conn.Train)*nDays + best
		reachable := aboardGen[slot] == gen
		if !reachable {
			at := arrAt(conn.From)
			if !at.IsInf() {
				need := at + tt.Stations[conn.From].Transfer
				if conn.From == source && at == dep {
					need = at // initial boarding is transfer-free
				}
				reachable = need <= depAbs
			}
		}
		if reachable {
			aboardGen[slot] = gen
			if arrAbs < arrAt(conn.To) {
				setArr(conn.To, arrAbs)
				relaxWalks(conn.To)
			}
		}
	}
	ws.walkQueue = walkQueue
	ws.pt1[0] = cnt
	res.Run.PerThread = ws.pt1[:1]
	res.Run.Total = cnt
	res.Run.Elapsed = time.Since(start)
	return res, nil
}

// ConnectionScanQuery is the one-shot convenience: schedule construction
// plus a two-period scan.
func ConnectionScanQuery(g *graph.Graph, source timetable.StationID, dep timeutil.Ticks) (*ConnectionScanResult, error) {
	return NewConnectionScan(g.TT).Query(source, dep, 2)
}
