package transit

import (
	"fmt"
	"strings"
	"testing"

	"transit/internal/timetable"
)

// lineNetwork builds a deterministic three-station line with hourly trains
// A→B→C (07:00–11:00) plus a late-night train near the period boundary.
func lineNetwork(t testing.TB) *Network {
	t.Helper()
	tb := NewTimetableBuilder(0)
	a := tb.AddStation("A", 2)
	b := tb.AddStation("B", 2)
	c := tb.AddStation("C", 2)
	for h := 7; h <= 11; h++ {
		if err := tb.AddTrain(fmt.Sprintf("line%02d", h), []StationID{a, b, c},
			Ticks(h*60), []Ticks{20, 25}, 5); err != nil {
			t.Fatal(err)
		}
	}
	// 23:50 departure, arriving past midnight.
	if err := tb.AddTrain("night", []StationID{a, b}, 1430, []Ticks{30}, 0); err != nil {
		t.Fatal(err)
	}
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// rebuildDelayed is the full-rebuild oracle ApplyUpdates is checked
// against: it shifts every connection of each train the filter matches by
// delta ticks (negative means earlier), re-validates the copied timetable
// and builds a new Network from scratch, sharing no code with
// timetable.Patch or graph.PatchTimes. The filter decides per train, so a
// train's schedule stays consistent. Cancelled connections stay cancelled:
// re-timing would pull their Infinity arrival below the sentinel.
func rebuildDelayed(n *Network, delta Ticks, filter func(ConnectionInfo) bool) (*Network, int, error) {
	affected := make(map[timetable.TrainID]bool)
	for _, c := range n.tt.Connections {
		if filter(n.connInfo(c)) {
			affected[c.Train] = true
		}
	}
	conns := append([]timetable.Connection(nil), n.tt.Connections...)
	shifted := 0
	for i := range conns {
		if !affected[conns[i].Train] || conns[i].Arr.IsInf() {
			continue
		}
		dur := conns[i].Arr - conns[i].Dep
		conns[i].Dep = n.tt.Period.Wrap(conns[i].Dep + delta)
		conns[i].Arr = conns[i].Dep + dur
		shifted++
	}
	tt, err := timetable.NewWithFootpaths(n.tt.Period,
		append([]timetable.Station(nil), n.tt.Stations...),
		append([]timetable.Train(nil), n.tt.Trains...),
		conns,
		append([]timetable.Footpath(nil), n.tt.Footpaths...))
	if err != nil {
		return nil, 0, fmt.Errorf("delayed timetable invalid: %w", err)
	}
	return NewNetwork(tt), shifted, nil
}

// TestApplyUpdatesMatchesFullRebuild checks the incremental patch path
// against a full rebuild with re-validation (rebuildDelayed) on a real
// synthetic network: same delay, same answers, for time queries and whole
// profiles.
func TestApplyUpdatesMatchesFullRebuild(t *testing.T) {
	n := testNetwork(t)
	const route, delta = 3, 25
	full, shifted, err := rebuildDelayed(n, delta, func(ci ConnectionInfo) bool { return ci.Route == route })
	if err != nil {
		t.Fatal(err)
	}
	inc, st, err := n.ApplyUpdates([]DelayOp{{Routes: []int{route}, Delay: delta}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ConnsRetimed != shifted {
		t.Fatalf("incremental retimed %d conns, full rebuild shifted %d", st.ConnsRetimed, shifted)
	}
	if inc == n {
		t.Fatal("update touched nothing")
	}
	for pair := 0; pair < 6; pair++ {
		src := StationID((pair * 13) % n.NumStations())
		dst := StationID((pair*29 + 7) % n.NumStations())
		if src == dst {
			continue
		}
		req := Request{Kind: KindProfile, From: src, To: dst}
		pf, pi := plan(t, full, req).profile, plan(t, inc, req).profile
		cf, ci := pf.Connections(), pi.Connections()
		if len(cf) != len(ci) {
			t.Fatalf("%d→%d: %d vs %d profile connections", src, dst, len(cf), len(ci))
		}
		for i := range cf {
			if cf[i] != ci[i] {
				t.Fatalf("%d→%d conn %d: full %+v incremental %+v", src, dst, i, cf[i], ci[i])
			}
		}
		for dep := Ticks(0); dep < 1440; dep += 97 {
			af := pf.EarliestArrival(dep)
			ai := pi.EarliestArrival(dep)
			if af != ai {
				t.Fatalf("%d→%d at %d: full %d, incremental %d", src, dst, dep, af, ai)
			}
		}
	}
}

func TestApplyUpdatesNegativeDelta(t *testing.T) {
	n := lineNetwork(t)
	// Pull the 09:00 train 30 minutes earlier: a traveller at 08:25 now
	// catches it at 08:30 and reaches C at 09:15 instead of 09:45.
	upd, st, err := n.ApplyUpdates([]DelayOp{{Train: "line09", Delay: -30}})
	if err != nil {
		t.Fatal(err)
	}
	if st.TrainsDelayed != 1 || st.ConnsRetimed != 2 {
		t.Fatalf("stats %+v", st)
	}
	if arr := plan(t, upd, Request{Kind: KindEarliestArrival, From: 0, To: 2, Depart: 505}).arrival; arr != 560 {
		t.Fatalf("arrival %d, want 560 (09:50-30min)", arr)
	}
	// The patched timetable still validates as a whole (negative deltas
	// re-validated): serialize and re-read it.
	if err := roundTrip(upd); err != nil {
		t.Fatalf("re-validation after negative delta: %v", err)
	}
	// A negative delta that would push a departure below 0 wraps into the
	// period instead of failing validation.
	wrap, _, err := n.ApplyUpdates([]DelayOp{{Train: "line07", Delay: -8 * 60}})
	if err != nil {
		t.Fatal(err)
	}
	deps, err := wrap.Departures(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deps {
		if d.Train == "line07" && d.Dep != 1380 { // 07:00 − 8h = 23:00
			t.Fatalf("wrapped departure %d, want 1380", d.Dep)
		}
	}
}

func TestApplyUpdatesPeriodBoundary(t *testing.T) {
	n := lineNetwork(t)
	// Delaying the 23:50 night train by 30 pushes its departure past
	// midnight: it wraps to 00:20 and arrives 00:50.
	upd, _, err := n.ApplyUpdates([]DelayOp{{Train: "night", Delay: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(upd); err != nil {
		t.Fatalf("boundary wrap broke validation: %v", err)
	}
	if arr := plan(t, upd, Request{Kind: KindEarliestArrival, From: 0, To: 1, Depart: 10}).arrival; arr != 50 {
		t.Fatalf("arrival %d, want 50 (00:20 + 30min ride)", arr)
	}
	// Delaying an 11:00 train so its *arrival* crosses the period boundary
	// keeps the absolute arrival monotone (arrivals may exceed π).
	upd2, _, err := n.ApplyUpdates([]DelayOp{{Train: "line11", Delay: 12*60 + 30}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range upd2.Connections() {
		if ci.Train == "line11" && ci.Arr < ci.Dep {
			t.Fatalf("arrival %d before departure %d after boundary push", ci.Arr, ci.Dep)
		}
	}
	if err := roundTrip(upd2); err != nil {
		t.Fatalf("arrival past period boundary broke validation: %v", err)
	}
}

func TestApplyUpdatesCancellation(t *testing.T) {
	n := lineNetwork(t)
	upd, st, err := n.ApplyUpdates([]DelayOp{{Train: "line08", Cancel: true}})
	if err != nil {
		t.Fatal(err)
	}
	if st.TrainsCancelled != 1 || st.ConnsCancelled != 2 {
		t.Fatalf("stats %+v", st)
	}
	// The 07:30 traveller falls through to the 09:00 train.
	ac := Request{Kind: KindEarliestArrival, From: 0, To: 2, Depart: 450}
	if arr := plan(t, upd, ac).arrival; arr != 590 {
		t.Fatalf("arrival %d, want 590 (line09 at C)", arr)
	}
	// Cancelled connections disappear from Departures but keep dense IDs
	// and surface in Connections with the flag set.
	deps, err := upd.Departures(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deps {
		if d.Train == "line08" {
			t.Fatal("cancelled train still departing")
		}
	}
	cancelled := 0
	for _, ci := range upd.Connections() {
		if ci.Cancelled {
			cancelled++
		}
	}
	if cancelled != 2 {
		t.Fatalf("Connections reports %d cancelled, want 2", cancelled)
	}
	if upd.Timetable().NumConnections() != n.Timetable().NumConnections() {
		t.Fatal("cancellation renumbered connections")
	}
	// A later batch on the lineage must not resurrect the cancelled train,
	// earlier or later: re-timing would pull its Infinity arrival back below
	// the sentinel. The batch still moves line09.
	for _, delta := range []Ticks{-10, 10} {
		rb, st, err := upd.ApplyUpdates([]DelayOp{{Train: "line08", Delay: delta}, {Train: "line09", Delay: delta}})
		if err != nil {
			t.Fatal(err)
		}
		if st.TrainsDelayed != 1 || st.ConnsRetimed != 2 {
			t.Fatalf("delay %d of a cancelled and a running train: stats %+v, want line09 alone", delta, st)
		}
		for _, ci := range rb.Connections() {
			if ci.Train == "line08" && !ci.Cancelled {
				t.Fatalf("delay %d resurrected a cancelled connection: %+v", delta, ci)
			}
		}
		deps, err := rb.Departures(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range deps {
			if d.Train == "line08" {
				t.Fatalf("cancelled train boardable again after a delay of %d", delta)
			}
		}
	}
	// Cancelling everything leaves stations unreachable but valid.
	all, _, err := upd.ApplyUpdates([]DelayOp{{Cancel: true}})
	if err != nil {
		t.Fatal(err)
	}
	if arr := plan(t, all, ac).arrival; !arr.IsInf() {
		t.Fatalf("fully cancelled network still reachable: %d", arr)
	}
}

func TestApplyUpdatesWindowAndAccumulation(t *testing.T) {
	n := lineNetwork(t)
	// Window selects only the 08:00 and 09:00 trains; two ops accumulate.
	upd, st, err := n.ApplyUpdates([]DelayOp{
		{WindowFrom: 480, WindowTo: 540, Delay: 10},
		{WindowFrom: 480, WindowTo: 540, Delay: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TrainsDelayed != 2 {
		t.Fatalf("window matched %d trains, want 2", st.TrainsDelayed)
	}
	deps, err := upd.Departures(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deps {
		switch d.Train {
		case "line08":
			if d.Dep != 495 {
				t.Fatalf("line08 dep %d, want 495 (+15 accumulated)", d.Dep)
			}
		case "line07":
			if d.Dep != 420 {
				t.Fatalf("line07 dep %d, want unchanged 420", d.Dep)
			}
		}
	}
	// Empty-window validation.
	if _, _, err := n.ApplyUpdates([]DelayOp{{WindowFrom: 600, WindowTo: 500, Delay: 5}}); err == nil {
		t.Fatal("empty window accepted")
	}
	// A batch matching nothing hands back the receiver.
	same, st2, err := n.ApplyUpdates([]DelayOp{{Train: "ghost", Delay: 10}})
	if err != nil || same != n || st2.ConnsRetimed != 0 {
		t.Fatalf("no-match batch: %p vs %p, %+v, %v", same, n, st2, err)
	}
}

func TestApplyUpdatesDropsPreprocessing(t *testing.T) {
	n := testNetwork(t)
	pre, _, err := n.Preprocess(TransferSelection{Fraction: 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	upd, _, err := pre.ApplyUpdates([]DelayOp{{Routes: []int{1}, Delay: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Preprocessed() {
		t.Fatal("stale distance table survived the update")
	}
	if !pre.Preprocessed() {
		t.Fatal("receiver lost its table")
	}
	// The unpruned update still answers correctly: compare with a full
	// rebuild of the same delay.
	full, _, err := rebuildDelayed(n, 10, func(ci ConnectionInfo) bool { return ci.Route == 1 })
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range []Ticks{300, 480, 660, 1000} {
		req := Request{Kind: KindEarliestArrival, From: 2, To: 9, Depart: dep}
		if af, ai := plan(t, full, req).arrival, plan(t, upd, req).arrival; af != ai {
			t.Fatalf("at %d: full %d, incremental %d", dep, af, ai)
		}
	}
}

// roundTrip serializes and re-validates a network through the text format.
func roundTrip(n *Network) error {
	var sb strings.Builder
	if err := n.WriteTimetable(&sb); err != nil {
		return err
	}
	_, err := ReadNetwork(strings.NewReader(sb.String()))
	return err
}

func TestMergeTouched(t *testing.T) {
	a := []TouchedConn{
		{Conn: 1, Route: 0, From: 2, OldDep: 100, NewDep: 105},
		{Conn: 2, Route: 1, From: 3, OldDep: 200, NewDep: 210},
	}
	b := []TouchedConn{
		{Conn: 1, Route: 0, From: 2, OldDep: 105, NewDep: 100}, // back to original: net no-op
		{Conn: 2, Route: 1, From: 3, OldDep: 210, NewDep: 220, Cancelled: true},
		{Conn: 5, Route: 2, From: 4, OldDep: 50, NewDep: 60},
	}
	m := MergeTouched(a, b)
	if len(m) != 2 {
		t.Fatalf("merged = %+v, want conn 1 dropped", m)
	}
	if m[0].Conn != 2 || m[0].OldDep != 200 || !m[0].Cancelled {
		t.Fatalf("conn 2 merged wrong: %+v", m[0])
	}
	if m[1].Conn != 5 || m[1].OldDep != 50 || m[1].NewDep != 60 {
		t.Fatalf("conn 5 merged wrong: %+v", m[1])
	}
	// Cancellation is sticky across later merges.
	m2 := MergeTouched(m, []TouchedConn{{Conn: 2, Route: 1, From: 3, OldDep: 220, NewDep: 230}})
	if !m2[0].Cancelled {
		t.Fatal("cancellation must be sticky")
	}
}
