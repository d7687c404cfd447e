package transit

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"

	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// The small-scope checker enumerates every timetable of a small scope and
// compares, at every departure tick, the one-to-all arrivals, the matrix
// rows, the earliest arrivals and the journeys Plan returns with a
// brute-force search over the time-expanded graph. Tiny periods, zero-length
// hops, zero transfer times and departures on the period boundary make equal
// keys, zero-weight edges and midnight wraps the common case, where random
// networks over a 1 440-tick day almost never produce them.
//
// The tier-1 scope runs under go test; the larger one is its own CI job:
//
//	go test -run TestSmallScope -timeout 60m . -args -smallscope=large
var smallScopeFlag = flag.String("smallscope", "tier1", "scope of TestSmallScope: tier1 or large")

// ssTrip is one trip of a route: it leaves the first stop at dep and takes
// hops[i] from stop i to stop i+1, with no dwell.
type ssTrip struct {
	dep  Ticks
	hops []Ticks
}

// ssRoute is a sequence of distinct stations and the trips that serve it.
type ssRoute struct {
	stations []StationID
	trips    []ssTrip
}

// ssFootpath is a directed walking link.
type ssFootpath struct {
	from, to StationID
	walk     Ticks
}

// ssNet is one timetable of the scope: three stations with their transfer
// times, one or two routes of different station sequences, and at most one
// footpath.
type ssNet struct {
	period    Ticks
	transfer  [3]Ticks
	routes    []ssRoute
	footpaths []ssFootpath
}

func (m *ssNet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "period %d, transfers %v", m.period, m.transfer)
	for r, rt := range m.routes {
		fmt.Fprintf(&b, "; route %d %v:", r, rt.stations)
		for _, tr := range rt.trips {
			fmt.Fprintf(&b, " dep %d hops %v", tr.dep, tr.hops)
		}
	}
	for _, f := range m.footpaths {
		fmt.Fprintf(&b, "; walk %d→%d in %d", f.from, f.to, f.walk)
	}
	return b.String()
}

// timetable builds the scope's timetable. Train "r<r>t<k>" is trip k of
// route r.
func (m *ssNet) timetable(t *testing.T) *timetable.Timetable {
	t.Helper()
	b := timetable.NewBuilder(timeutil.NewPeriod(m.period))
	for s, tr := range m.transfer {
		b.AddStation(fmt.Sprintf("S%d", s), tr)
	}
	for r, rt := range m.routes {
		for k, tr := range rt.trips {
			b.AddTrainRun(fmt.Sprintf("r%dt%d", r, k), rt.stations, tr.dep, tr.hops, 0)
		}
	}
	for _, f := range m.footpaths {
		b.AddFootpath(f.from, f.to, f.walk)
	}
	tt, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", m, err)
	}
	return tt
}

// ssBrute answers earliest-arrival questions on one ssNet by reachability
// in its time-expanded graph, sharing no code with the searches it checks.
// Nodes are the three stations and one node per (route, stop), the place a
// traveller waits for that route's next trip; bit x of a mask is node x.
// The model is the one the searches answer: boarding costs the station's
// transfer time (not at the source), alighting and waiting on board are
// free, a route's trips can be changed at a stop without alighting, and a
// footpath links two stations.
type ssBrute struct {
	m         *ssNet
	boards    [3]uint32 // per station, its (route, stop) nodes
	stationOf []int     // per node, its station
	next      []int     // per (route, stop) node, the next stop's node (-1 at the end)
	// deps[x] lists the departures from (route, stop) node x: time point
	// and duration of each trip's hop.
	deps    [][]ssDep
	horizon Ticks
}

type ssDep struct{ at, dur Ticks }

func newBrute(m *ssNet) *ssBrute {
	b := &ssBrute{m: m, stationOf: []int{0, 1, 2}, next: []int{-1, -1, -1}, deps: make([][]ssDep, 3)}
	longest := Ticks(0)
	for _, rt := range m.routes {
		first := len(b.stationOf)
		for p, s := range rt.stations {
			x := len(b.stationOf)
			b.stationOf = append(b.stationOf, int(s))
			b.boards[s] |= 1 << x
			nx := -1
			if p+1 < len(rt.stations) {
				nx = first + p + 1
			}
			b.next = append(b.next, nx)
			var ds []ssDep
			for _, tr := range rt.trips {
				if p+1 == len(rt.stations) {
					break
				}
				at := tr.dep
				for _, h := range tr.hops[:p] {
					at += h
				}
				ds = append(ds, ssDep{at: at % m.period, dur: tr.hops[p]})
				longest = max(longest, tr.hops[p])
			}
			b.deps = append(b.deps, ds)
		}
	}
	for _, f := range m.footpaths {
		longest = max(longest, f.walk)
	}
	// An earliest arrival visits every node at most once and waits less
	// than a period at each.
	b.horizon = Ticks(len(b.stationOf)) * (m.period + longest + 2)
	return b
}

// earliest returns the earliest arrival at every station for a traveller at
// station s at time tau (Infinity where none): the nodes reachable at tau+d
// are one mask per tick d, closed under the zero-time edges before the
// timed ones leave.
func (b *ssBrute) earliest(s StationID, tau Ticks) [3]Ticks {
	m := b.m
	at := make([]uint32, b.horizon+1)
	at[0] = 1<<s | b.boards[s]
	best := [3]Ticks{Infinity, Infinity, Infinity}
	for d := Ticks(0); d <= b.horizon; d++ {
		cur := at[d]
		if d > 0 {
			cur |= at[d-1] // waiting
		}
		tp := (tau + d) % m.period
		for {
			grown := cur
			for x := range b.stationOf {
				if cur&(1<<x) == 0 {
					continue
				}
				if x < 3 {
					if m.transfer[x] == 0 {
						grown |= b.boards[x]
					}
					for _, f := range m.footpaths {
						if int(f.from) == x && f.walk == 0 {
							grown |= 1 << f.to
						}
					}
					continue
				}
				grown |= 1 << b.stationOf[x] // alight
				for _, dp := range b.deps[x] {
					if dp.at == tp && dp.dur == 0 {
						grown |= 1 << b.next[x]
					}
				}
			}
			if grown == cur {
				break
			}
			cur = grown
		}
		at[d] = cur
		for x := range b.stationOf {
			if cur&(1<<x) == 0 {
				continue
			}
			if x < 3 {
				if best[x].IsInf() {
					best[x] = tau + d
				}
				if tr := m.transfer[x]; tr > 0 && d+tr <= b.horizon {
					at[d+tr] |= b.boards[x]
				}
				for _, f := range m.footpaths {
					if int(f.from) == x && f.walk > 0 && d+f.walk <= b.horizon {
						at[d+f.walk] |= 1 << f.to
					}
				}
				continue
			}
			for _, dp := range b.deps[x] {
				if dp.at == tp && dp.dur > 0 && d+dp.dur <= b.horizon {
					at[d+dp.dur] |= 1 << b.next[x]
				}
			}
		}
	}
	return best
}

// ssScope bounds an enumeration. Every timetable has three stations. The
// first route runs through stops[0] of them in label order (any route is that
// one after relabelling the stations), with 1 to trips[0] trips. With
// stops[1] > 0 a second route runs through any other sequence of stops[1]
// distinct stations, with 1 to trips[1] trips.
type ssScope struct {
	period    Ticks
	hops      []Ticks // hop times
	transfers []Ticks // transfer times, per station
	walks     []Ticks // footpath times; empty: no footpath
	stops     [2]int
	trips     [2]int
}

func (sc ssScope) String() string {
	digits := func(ts []Ticks) string {
		var b strings.Builder
		for _, x := range ts {
			fmt.Fprint(&b, x)
		}
		return b.String()
	}
	return fmt.Sprintf("period%d_stops%d+%d_trips%d+%d_hops%s_transfers%s_walks%s",
		sc.period, sc.stops[0], sc.stops[1], sc.trips[0], sc.trips[1], digits(sc.hops), digits(sc.transfers), digits(sc.walks))
}

// each calls fn with every timetable of the scope; fn must not keep it.
func (sc ssScope) each(fn func(*ssNet)) {
	m := &ssNet{period: sc.period}
	first := []StationID{0, 1, 2}[:sc.stops[0]]
	for _, ts := range sc.transferCombos() {
		m.transfer = ts
		sc.tripSets(sc.stops[0], sc.trips[0], func(ta []ssTrip) {
			m.routes = append(m.routes[:0], ssRoute{stations: first, trips: ta})
			if sc.stops[1] == 0 {
				sc.footpathsThen(m, fn)
				return
			}
			for _, seq := range sequences(sc.stops[1]) {
				if fmt.Sprint(seq) == fmt.Sprint(first) {
					continue
				}
				sc.tripSets(sc.stops[1], sc.trips[1], func(tb []ssTrip) {
					m.routes = append(m.routes[:1], ssRoute{stations: seq, trips: tb})
					sc.footpathsThen(m, fn)
				})
			}
		})
	}
}

func (sc ssScope) transferCombos() [][3]Ticks {
	var out [][3]Ticks
	for _, a := range sc.transfers {
		for _, b := range sc.transfers {
			for _, c := range sc.transfers {
				out = append(out, [3]Ticks{a, b, c})
			}
		}
	}
	return out
}

// footpathsThen calls fn on m without a footpath and with each one of the
// scope.
func (sc ssScope) footpathsThen(m *ssNet, fn func(*ssNet)) {
	m.footpaths = m.footpaths[:0]
	fn(m)
	for from := range StationID(3) {
		for to := range StationID(3) {
			if from == to {
				continue
			}
			for _, w := range sc.walks {
				m.footpaths = append(m.footpaths[:0], ssFootpath{from, to, w})
				fn(m)
			}
		}
	}
	m.footpaths = m.footpaths[:0]
}

// tripSets calls fn with every multiset of 1 to most trips over a route of
// stops stops, as a non-decreasing sequence in the enumeration order.
func (sc ssScope) tripSets(stops, most int, fn func([]ssTrip)) {
	var all []ssTrip
	var hops func(prefix []Ticks)
	hops = func(prefix []Ticks) {
		if len(prefix) == stops-1 {
			for dep := range sc.period {
				all = append(all, ssTrip{dep: dep, hops: prefix})
			}
			return
		}
		for _, h := range sc.hops {
			hops(append(prefix[:len(prefix):len(prefix)], h))
		}
	}
	hops(nil)
	set := make([]ssTrip, 0, most)
	var pick func(from int)
	pick = func(from int) {
		if len(set) > 0 {
			fn(set)
		}
		if len(set) == most {
			return
		}
		for i := from; i < len(all); i++ {
			set = append(set, all[i])
			pick(i)
			set = set[:len(set)-1]
		}
	}
	pick(0)
}

// sequences lists every sequence of n distinct stations of three.
func sequences(n int) [][]StationID {
	var out [][]StationID
	for a := range StationID(3) {
		for b := range StationID(3) {
			if b == a {
				continue
			}
			if n == 2 {
				out = append(out, []StationID{a, b})
				continue
			}
			out = append(out, []StationID{a, b, 3 - a - b})
		}
	}
	return out
}

// ssTally counts what a scope covered, so that a vacuous run fails.
type ssTally struct {
	nets, arrivals, journeys, walkWins, unreachable int
}

// checkSmallNet compares Plan with the brute force on one timetable, at
// every departure tick and the given thread counts.
func checkSmallNet(t *testing.T, m *ssNet, threads []int, tally *ssTally) {
	n := NewNetwork(m.timetable(t))
	b := newBrute(m)
	ctx := context.Background()
	pi := m.period
	// ea[s][τ][t]: the brute force's earliest arrival at t leaving s at τ.
	ea := make([][][3]Ticks, 3)
	for s := range ea {
		ea[s] = make([][3]Ticks, pi)
		for tau := range pi {
			ea[s][tau] = b.earliest(StationID(s), tau)
		}
	}
	// eaAt is ea at any departure time, by periodicity.
	eaAt := func(s, dst StationID, dep Ticks) Ticks {
		a := ea[s][dep%pi][dst]
		if a.IsInf() {
			return a
		}
		return a + dep/pi*pi
	}
	walk := func(from, to StationID) Ticks {
		if from == to {
			return 0
		}
		for _, f := range m.footpaths {
			if f.from == from && f.to == to {
				return f.walk
			}
		}
		return Infinity
	}
	tally.nets++
	for _, th := range threads {
		opts := Options{Threads: th, TrackJourneys: true}
		whole := make([]*AllProfiles, 3)
		for s := range StationID(3) {
			res, err := n.Plan(ctx, Request{Kind: KindOneToAll, From: s, Options: opts})
			if err != nil {
				t.Fatalf("%s: one-to-all from %d: %v", m, s, err)
			}
			if whole[s], err = res.All(); err != nil {
				t.Fatal(err)
			}
			for tau := range pi {
				for dst := range StationID(3) {
					if got, want := whole[s].EarliestArrival(dst, tau), eaAt(s, dst, tau); got != want {
						t.Fatalf("%s, threads %d: one-to-all %d→%d at %d: %d, brute force %d", m, th, s, dst, tau, got, want)
					}
				}
			}
		}
		all := []StationID{0, 1, 2}
		for tau := range pi {
			res, err := n.Plan(ctx, Request{Kind: KindMatrix, Sources: all, Targets: all, Depart: tau, Options: opts})
			if err != nil {
				t.Fatalf("%s: matrix at %d: %v", m, tau, err)
			}
			rows, err := res.Matrix()
			if err != nil {
				t.Fatal(err)
			}
			for s := range all {
				for dst := range all {
					if got, want := rows[s][dst], eaAt(StationID(s), StationID(dst), tau); got != want {
						t.Fatalf("%s, threads %d: matrix %d→%d at %d: %d, brute force %d", m, th, s, dst, tau, got, want)
					}
				}
			}
		}
		for s := range StationID(3) {
			for dst := range StationID(3) {
				if dst == s {
					continue
				}
				for tau := range pi {
					want := eaAt(s, dst, tau)
					res, err := n.Plan(ctx, Request{Kind: KindEarliestArrival, From: s, To: dst, Depart: tau, Options: opts})
					if err != nil {
						t.Fatalf("%s: earliest arrival %d→%d at %d: %v", m, s, dst, tau, err)
					}
					if got, _ := res.Arrival(); got != want {
						t.Fatalf("%s, threads %d: earliest arrival %d→%d at %d: %d, brute force %d", m, th, s, dst, tau, got, want)
					}
					tally.arrivals++
					checkSmallJourney(t, m, n, whole[s], s, dst, tau, th, want, walk, eaAt, tally)
				}
			}
		}
	}
}

// checkSmallJourney checks Plan's journey from s to dst at tau. Where a
// train is needed to arrive at want, the journey must replay in the
// brute force's model to exactly want, leave s at the latest time that still
// arrives at want, and match the whole-period search's journey leg for leg.
// Where walking alone ties or wins, the point query answers and the
// itinerary is only checked to replay.
func checkSmallJourney(t *testing.T, m *ssNet, n *Network, whole *AllProfiles, s, dst StationID, tau Ticks, threads int,
	want Ticks, walk func(from, to StationID) Ticks, eaAt func(s, dst StationID, dep Ticks) Ticks, tally *ssTally) {
	res, err := n.Plan(context.Background(), Request{Kind: KindJourney, From: s, To: dst, Depart: tau, Options: Options{Threads: threads}})
	if want.IsInf() {
		var pe *Error
		if !errors.As(err, &pe) || pe.Code != CodeUnreachable {
			t.Fatalf("%s: journey %d→%d at %d to an unreachable target: %v, want %s", m, s, dst, tau, err, CodeUnreachable)
		}
		tally.unreachable++
		return
	}
	walkOnly := walk(s, dst)
	walkWins := !walkOnly.IsInf() && tau+walkOnly <= want
	if err != nil {
		if walkWins {
			tally.walkWins++
			return
		}
		t.Fatalf("%s: journey %d→%d at %d: %v", m, s, dst, tau, err)
	}
	j, err := res.Journey()
	if err != nil {
		t.Fatal(err)
	}
	arr, leave, err := replaySmall(m, j, s, dst, tau, walk)
	if err != nil {
		t.Fatalf("%s: journey %d→%d at %d %q does not replay: %v", m, s, dst, tau, j, err)
	}
	if walkWins {
		tally.walkWins++
		if arr < want {
			t.Fatalf("%s: journey %d→%d at %d %q replays to %d, before the earliest arrival %d", m, s, dst, tau, j, arr, want)
		}
		return
	}
	if arr != want {
		t.Fatalf("%s, threads %d: journey %d→%d at %d %q arrives at %d, brute force %d", m, threads, s, dst, tau, j, arr, want)
	}
	latest := tau
	for eaAt(s, dst, latest+1) == want {
		latest++
	}
	if leave != latest {
		t.Fatalf("%s, threads %d: journey %d→%d at %d %q leaves at %d, the latest departure arriving at %d is %d",
			m, threads, s, dst, tau, j, leave, want, latest)
	}
	if threads == 1 {
		wj, err := whole.Journey(dst, tau)
		if err != nil {
			t.Fatalf("%s: whole-period journey %d→%d at %d: %v", m, s, dst, tau, err)
		}
		if fmt.Sprint(j.Legs) != fmt.Sprint(wj.Legs) {
			t.Fatalf("%s: journey %d→%d at %d %q, whole-period search %q", m, s, dst, tau, j, wj)
		}
	}
	tally.journeys++
}

// replaySmall rides journey j in the brute force's model for a traveller at
// s at tau and returns its arrival at dst and the time it leaves s: the
// first leg's departure less the walk and the transfer before it.
func replaySmall(m *ssNet, j *Journey, s, dst StationID, tau Ticks, walk func(from, to StationID) Ticks) (arrival, leave Ticks, err error) {
	at, now, route := s, tau, -1
	for li, leg := range j.Legs {
		var r, k int
		if _, err := fmt.Sscanf(leg.Train, "r%dt%d", &r, &k); err != nil || r >= len(m.routes) || k >= len(m.routes[r].trips) {
			return 0, 0, fmt.Errorf("leg %d: unknown train %q", li, leg.Train)
		}
		rt, tr := m.routes[r], m.routes[r].trips[k]
		ready := now
		switch {
		case leg.From != at:
			w := walk(at, leg.From)
			if w.IsInf() {
				return 0, 0, fmt.Errorf("leg %d leaves %d, the traveller is at %d", li, leg.From, at)
			}
			ready = now + w + m.transfer[leg.From]
		case li > 0 && r != route:
			ready = now + m.transfer[at]
		}
		pos := -1
		for p, st := range rt.stations {
			if st == leg.From {
				pos = p
			}
		}
		if pos < 0 || pos+leg.Stops >= len(rt.stations) || rt.stations[pos+leg.Stops] != leg.To {
			return 0, 0, fmt.Errorf("leg %d: route %d does not run %d→%d in %d stops", li, r, leg.From, leg.To, leg.Stops)
		}
		dep := tr.dep
		for _, h := range tr.hops[:pos] {
			dep += h
		}
		if dep%m.period != leg.Departure {
			return 0, 0, fmt.Errorf("leg %d: train %q leaves %d at %d, leg says %d", li, leg.Train, leg.From, dep%m.period, leg.Departure)
		}
		board := ready + (leg.Departure-ready%m.period+m.period)%m.period
		if li == 0 {
			leave = board - (ready - now)
		}
		now = board
		for _, h := range tr.hops[pos : pos+leg.Stops] {
			now += h
		}
		if (now-leg.Arrival)%m.period != 0 {
			return 0, 0, fmt.Errorf("leg %d arrives at %d, leg says %d", li, now, leg.Arrival)
		}
		at, route = leg.To, r
	}
	w := walk(at, dst)
	if w.IsInf() {
		return 0, 0, fmt.Errorf("journey ends at %d, not %d", at, dst)
	}
	return now + w, leave, nil
}

// smallScopes are the scopes of TestSmallScope. The tier-1 scopes take a
// period of 3 ticks, hop times 0–2 and transfer times 0–1: a route through
// all three stations with up to two trips, without a footpath or with one of
// walking time 1; and that route with one trip beside a second route of two
// stops and one trip. Under the race detector or -short the first scope
// keeps one trip and the second takes hop times 0 and 2. The large scopes
// reach each bound of the scope: periods of 3 and 4, walking times 0 and 1,
// a second route of three stops or of two trips, every timetable at
// Threads 1 and 2. The product of all bounds at once (over 10^8 timetables)
// is out of reach.
func smallScopes(t *testing.T) ([]ssScope, []int) {
	hops, tr := []Ticks{0, 1, 2}, []Ticks{0, 1}
	switch {
	case *smallScopeFlag == "large":
		return []ssScope{
			{period: 3, hops: hops, transfers: tr, walks: []Ticks{0, 1}, stops: [2]int{3, 0}, trips: [2]int{2, 0}},
			{period: 4, hops: hops, transfers: tr, walks: []Ticks{0, 1}, stops: [2]int{3, 0}, trips: [2]int{2, 0}},
			{period: 3, hops: hops, transfers: tr, walks: []Ticks{1}, stops: [2]int{3, 2}, trips: [2]int{2, 1}},
			{period: 3, hops: hops, transfers: tr, walks: []Ticks{1}, stops: [2]int{3, 3}, trips: [2]int{1, 1}},
			{period: 4, hops: hops, transfers: tr, stops: [2]int{3, 2}, trips: [2]int{1, 2}},
		}, []int{1, 2}
	case *smallScopeFlag != "tier1":
		t.Fatalf("-smallscope=%q: want tier1 or large", *smallScopeFlag)
	case raceEnabled || testing.Short():
		return []ssScope{
			{period: 3, hops: hops, transfers: tr, walks: []Ticks{1}, stops: [2]int{3, 0}, trips: [2]int{1, 0}},
			{period: 3, hops: []Ticks{0, 2}, transfers: tr, stops: [2]int{3, 2}, trips: [2]int{1, 1}},
		}, []int{1}
	}
	return []ssScope{
		{period: 3, hops: hops, transfers: tr, walks: []Ticks{1}, stops: [2]int{3, 0}, trips: [2]int{2, 0}},
		{period: 3, hops: hops, transfers: tr, stops: [2]int{3, 2}, trips: [2]int{1, 1}},
	}, []int{1}
}

// TestSmallScope runs the small-scope checker over smallScopes, one
// parallel subtest per scope.
func TestSmallScope(t *testing.T) {
	scopes, threads := smallScopes(t)
	for _, sc := range scopes {
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			var tally ssTally
			sc.each(func(m *ssNet) {
				checkSmallNet(t, m, threads, &tally)
			})
			t.Logf("%d timetables: %d arrivals, %d journeys checked, %d where walking ties or wins, %d unreachable",
				tally.nets, tally.arrivals, tally.journeys, tally.walkWins, tally.unreachable)
			if tally.journeys == 0 || tally.unreachable == 0 {
				t.Fatalf("vacuous scope: %+v", tally)
			}
		})
	}
}
