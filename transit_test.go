package transit

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testNetwork(t *testing.T) *Network {
	t.Helper()
	n, err := Generate("oahu", 0.06, 21)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGenerateFamilies(t *testing.T) {
	fams := GenerateFamilies()
	if len(fams) != 5 || fams[0] != "oahu" || fams[4] != "europe" {
		t.Fatalf("families = %v", fams)
	}
	for _, f := range fams {
		n, err := Generate(f, 0.03, 1)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if n.NumStations() == 0 {
			t.Fatalf("%s: empty network", f)
		}
	}
	if _, err := Generate("nowhere", 1, 0); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := Generate("oahu", -1, 0); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestNetworkBasics(t *testing.T) {
	n := testNetwork(t)
	if n.Period() != 1440 {
		t.Fatalf("period = %d", n.Period())
	}
	s := n.Station(0)
	id, ok := n.StationByName(s.Name)
	if !ok || id != 0 {
		t.Fatalf("StationByName(%q) = %d,%v", s.Name, id, ok)
	}
	if _, ok := n.StationByName("no such station"); ok {
		t.Fatal("found nonexistent station")
	}
	if !strings.Contains(n.Stats(), "stations") {
		t.Fatalf("Stats = %q", n.Stats())
	}
	if n.FormatClock(495) != "08:15" {
		t.Fatal("FormatClock broken")
	}
	if v, err := ParseClock("08:15"); err != nil || v != 495 {
		t.Fatal("ParseClock broken")
	}
	if n.Preprocessed() {
		t.Fatal("fresh network claims preprocessing")
	}
}

func TestWriteReadNetworkRoundTrip(t *testing.T) {
	n := testNetwork(t)
	var sb strings.Builder
	if err := n.WriteTimetable(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetwork(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumStations() != n.NumStations() {
		t.Fatal("round trip changed station count")
	}
	// Same query answers.
	req := Request{Kind: KindEarliestArrival, From: 0, To: 5, Depart: 480}
	a1 := plan(t, n, req).arrival
	a2 := plan(t, back, req).arrival
	if a1 != a2 {
		t.Fatalf("round trip changed answers: %d vs %d", a1, a2)
	}
}

func TestEarliestArrivalAndProfileAgree(t *testing.T) {
	n := testNetwork(t)
	all := plan(t, n, Request{Kind: KindOneToAll, From: 0}).all
	for dst := StationID(1); int(dst) < n.NumStations(); dst += 3 {
		for dep := Ticks(300); dep < 1440; dep += 333 {
			ea := plan(t, n, Request{Kind: KindEarliestArrival, From: 0, To: dst, Depart: dep}).arrival
			if got := all.EarliestArrival(dst, dep); got != ea {
				t.Fatalf("one-to-all vs earliest-arrival differ at %d→%d dep %d: %d vs %d", 0, dst, dep, got, ea)
			}
			p := plan(t, n, Request{Kind: KindProfile, From: 0, To: dst}).profile
			if got := p.EarliestArrival(dep); got != ea {
				t.Fatalf("profile vs earliest-arrival differ at %d→%d dep %d: %d vs %d", 0, dst, dep, got, ea)
			}
		}
	}
}

func TestProfileAPI(t *testing.T) {
	n := testNetwork(t)
	res := plan(t, n, Request{Kind: KindProfile, From: 0, To: 7, Options: Options{Threads: 2}})
	p, st := res.profile, res.stats
	if st.SettledConnections <= 0 || st.QueueOps <= 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	conns := p.Connections()
	if len(conns) == 0 {
		t.Fatal("no connections in profile")
	}
	for i := 1; i < len(conns); i++ {
		if conns[i].Departure <= conns[i-1].Departure {
			t.Fatal("connections not strictly ordered by departure")
		}
		if conns[i].Arrival <= conns[i-1].Arrival {
			t.Fatal("reduced profile must have strictly increasing arrivals")
		}
	}
	cp, wait, err := p.NextDeparture(conns[0].Departure)
	if err != nil || wait != 0 || cp != conns[0] {
		t.Fatalf("NextDeparture at first departure: %+v wait %d err %v", cp, wait, err)
	}
	if p.TravelTime(conns[0].Departure) != conns[0].Arrival-conns[0].Departure {
		t.Fatal("TravelTime inconsistent with connection point")
	}
	if p.Empty() {
		t.Fatal("profile should not be empty")
	}
	// Self profile.
	self := plan(t, n, Request{Kind: KindProfile, From: 3, To: 3}).profile
	if self.EarliestArrival(100) != 100 || self.TravelTime(100) != 0 {
		t.Fatal("self profile must be identity")
	}
}

func TestPreprocessAcceleratesQueries(t *testing.T) {
	n := testNetwork(t)
	pre, ps, err := n.Preprocess(TransferSelection{Fraction: 0.10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Preprocessed() || n.Preprocessed() {
		t.Fatal("Preprocess must return a new preprocessed network, leaving the base untouched")
	}
	if ps.TransferStations <= 0 || ps.TableBytes <= 0 {
		t.Fatalf("preprocess stats: %+v", ps)
	}
	var base, accel int64
	for dst := StationID(1); int(dst) < n.NumStations(); dst += 5 {
		rb := plan(t, n, Request{Kind: KindProfile, From: 0, To: dst})
		ra := plan(t, pre, Request{Kind: KindProfile, From: 0, To: dst})
		pb, pa := rb.profile, ra.profile
		base += rb.stats.SettledConnections
		accel += ra.stats.SettledConnections
		// Identical answers.
		for dep := Ticks(0); dep < 1440; dep += 181 {
			if pb.EarliestArrival(dep) != pa.EarliestArrival(dep) {
				t.Fatalf("preprocessing changed answer %d→%d at %d", 0, dst, dep)
			}
		}
	}
	if accel > base {
		t.Fatalf("preprocessing increased work: %d vs %d", accel, base)
	}
	// Selection by degree also works.
	pre2, ps2, err := n.Preprocess(TransferSelection{MinDegree: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pre2.Preprocessed() || ps2.TransferStations == 0 {
		t.Fatal("degree selection broken")
	}
	// Invalid selection.
	if _, _, err := n.Preprocess(TransferSelection{}, Options{}); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestJourneyAPI(t *testing.T) {
	n := testNetwork(t)
	all := plan(t, n, Request{Kind: KindOneToAll, From: 0, Options: Options{TrackJourneys: true}}).all
	found := false
	for dst := StationID(1); int(dst) < n.NumStations() && !found; dst++ {
		p, err := all.To(dst)
		if err != nil || p.Empty() {
			continue
		}
		dep := Ticks(480)
		j, err := all.Journey(dst, dep)
		if err != nil {
			t.Fatalf("Journey to %d: %v", dst, err)
		}
		if len(j.Legs) == 0 {
			t.Fatal("journey has no legs")
		}
		if j.Legs[0].From != 0 {
			t.Fatalf("journey starts at %d, want 0", j.Legs[0].From)
		}
		if j.Legs[len(j.Legs)-1].To != dst {
			t.Fatalf("journey ends at %d, want %d", j.Legs[len(j.Legs)-1].To, dst)
		}
		if j.Transfers() != len(j.Legs)-1 {
			t.Fatal("Transfers inconsistent")
		}
		if j.String() == "" {
			t.Fatal("empty journey string")
		}
		// Arrival must match the profile.
		if got := j.Legs[len(j.Legs)-1].Arrival; got != p.EarliestArrival(dep) {
			t.Fatalf("journey arrives %d, profile says %d", got, p.EarliestArrival(dep))
		}
		// Legs are temporally consistent.
		for i := 1; i < len(j.Legs); i++ {
			if j.Legs[i].From != j.Legs[i-1].To {
				t.Fatal("legs not connected")
			}
		}
		found = true
	}
	if !found {
		t.Fatal("no reachable station found for journey test")
	}
	// Journeys require TrackJourneys.
	plain := plan(t, n, Request{Kind: KindOneToAll, From: 0}).all
	if _, err := plain.Journey(1, 480); err == nil {
		t.Fatal("journey without tracking accepted")
	}
}

func TestOptionsValidation(t *testing.T) {
	n := testNetwork(t)
	ctx := context.Background()
	if _, err := n.Plan(ctx, Request{Kind: KindOneToAll, From: -1}); err == nil {
		t.Fatal("bad station accepted")
	}
	if _, err := n.Plan(ctx, Request{Kind: KindEarliestArrival, From: 0, To: 99999}); err == nil {
		t.Fatal("bad target accepted")
	}
	if _, err := n.Plan(ctx, Request{Kind: KindProfile, From: 0, To: 99999}); err == nil {
		t.Fatal("bad target accepted by Profile")
	}
}

func TestParetoPublicAPI(t *testing.T) {
	n := testNetwork(t)
	pareto := plan(t, n, Request{Kind: KindPareto, From: 0, MaxTransfers: 4, Options: Options{Threads: 2}}).pareto
	if pareto.Source() != 0 || pareto.MaxTransfers() != 4 {
		t.Fatal("metadata wrong")
	}
	if pareto.Stats().SettledConnections <= 0 {
		t.Fatal("no work recorded")
	}
	all := plan(t, n, Request{Kind: KindOneToAll, From: 0}).all
	for dst := StationID(1); int(dst) < n.NumStations(); dst += 4 {
		choices, err := pareto.Choices(dst, 480)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(choices); i++ {
			if choices[i].Arrival >= choices[i-1].Arrival || choices[i].Transfers <= choices[i-1].Transfers {
				t.Fatalf("frontier not strictly improving: %+v", choices)
			}
		}
		// The best Pareto arrival can never beat the unconstrained search.
		if len(choices) > 0 {
			best := choices[len(choices)-1].Arrival
			unconstrained := all.EarliestArrival(dst, 480)
			if best < unconstrained {
				t.Fatalf("Pareto arrival %d beats unconstrained %d at %d", best, unconstrained, dst)
			}
		}
		// Budgeted profile evaluates consistently with Choices.
		p4, err := pareto.To(dst, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(choices) > 0 && p4.EarliestArrival(480) != choices[len(choices)-1].Arrival {
			t.Fatalf("To(·,4) disagrees with Choices at %d", dst)
		}
	}
	if _, err := n.Plan(context.Background(), Request{Kind: KindPareto, From: 0, MaxTransfers: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := pareto.Choices(99999, 480); err == nil {
		t.Fatal("bad station accepted")
	}
}

func TestJourneyConvenience(t *testing.T) {
	n := testNetwork(t)
	dep := Ticks(480)
	j := plan(t, n, Request{Kind: KindJourney, From: 0, To: 9, Depart: dep}).journey
	arr := plan(t, n, Request{Kind: KindEarliestArrival, From: 0, To: 9, Depart: dep}).arrival
	if got := j.Legs[len(j.Legs)-1].Arrival; got != arr {
		t.Fatalf("journey arrives %d, time-query says %d", got, arr)
	}
	if j.RequestedDeparture != dep {
		t.Fatal("requested departure not recorded")
	}
	if _, err := n.Plan(context.Background(), Request{Kind: KindJourney, From: 0, To: 99999, Depart: dep}); err == nil {
		t.Fatal("bad target accepted")
	}
}

// A single Network must serve many goroutines concurrently; run with
// -race in CI.
func TestConcurrentQueries(t *testing.T) {
	n := testNetwork(t)
	pre, _, err := n.Preprocess(TransferSelection{Fraction: 0.15}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Reference answers, sequential.
	type key struct {
		dst StationID
		dep Ticks
	}
	want := map[key]Ticks{}
	for dst := StationID(1); int(dst) < n.NumStations(); dst += 3 {
		for dep := Ticks(400); dep < 1200; dep += 400 {
			want[key{dst, dep}] = plan(t, pre, Request{Kind: KindEarliestArrival, From: 0, To: dst, Depart: dep}).arrival
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k, expect := range want {
				req := Request{Kind: KindEarliestArrival, From: 0, To: k.dst, Depart: k.dep}
				if w%2 == 1 {
					req = Request{Kind: KindProfile, From: 0, To: k.dst, Options: Options{Threads: 2}}
				}
				res, err := pre.Plan(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				got := res.arrival
				if w%2 == 1 {
					got = res.profile.EarliestArrival(k.dep)
				}
				if got != expect {
					errs <- fmt.Errorf("worker %d: %v got %d want %d", w, k, got, expect)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFootpathsPublicAPI(t *testing.T) {
	tb := NewTimetableBuilder(0)
	a := tb.AddStation("A", 2)
	b := tb.AddStation("B", 2)
	c := tb.AddStation("C", 2)
	if err := tb.AddTrain("t1", []StationID{a, b}, 480, []Ticks{15}, 0); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddTrain("t2", []StationID{c, a}, 520, []Ticks{15}, 0); err != nil {
		t.Fatal(err)
	}
	tb.AddFootpath(b, c, 5)
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A → B by train, then on foot to C.
	ac := Request{Kind: KindEarliestArrival, From: a, To: c, Depart: 480}
	arr := plan(t, n, ac).arrival
	if arr != 500 {
		t.Fatalf("arrival at C = %d, want 500 (495 + 5 walk)", arr)
	}
	// Profile to C accounts the walk; B→C is walk-only.
	p := plan(t, n, Request{Kind: KindProfile, From: b, To: c}).profile
	if p.WalkOnly() != 5 {
		t.Fatalf("WalkOnly = %d, want 5", p.WalkOnly())
	}
	if got := p.EarliestArrival(1000); got != 1005 {
		t.Fatalf("walk-only arrival = %d, want 1005", got)
	}
	if p.Empty() {
		t.Fatal("walkable profile must not be Empty")
	}
	if got := p.TravelTime(1000); got != 5 {
		t.Fatalf("walk-only travel time = %d, want 5", got)
	}
	// Footpaths survive serialization in both formats.
	var txt strings.Builder
	if err := n.WriteTimetable(&txt); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetwork(strings.NewReader(txt.String()))
	if err != nil {
		t.Fatal(err)
	}
	if arr2 := plan(t, back, ac).arrival; arr2 != arr {
		t.Fatalf("text round trip changed footpath answer: %d vs %d", arr2, arr)
	}
	var snap bytes.Buffer
	if err := n.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	back2, _, err := LoadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if arr3 := plan(t, back2, ac).arrival; arr3 != arr {
		t.Fatalf("snapshot round trip changed footpath answer: %d vs %d", arr3, arr)
	}
	// Footpaths survive the incremental patch path: the patched network
	// shares the footpath structures and answers identically.
	patched, st, err := n.ApplyUpdates([]DelayOp{{Train: "t1", Delay: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ConnsRetimed != 1 {
		t.Fatalf("incremental delay retimed %d conns, want 1", st.ConnsRetimed)
	}
	if arr5 := plan(t, patched, ac).arrival; arr5 != 510 {
		t.Fatalf("incrementally delayed arrival = %d, want 510", arr5)
	}
	if p2 := plan(t, patched, Request{Kind: KindProfile, From: b, To: c}).profile; p2.WalkOnly() != 5 {
		t.Fatalf("walk-only time lost under incremental patch: %v", p2.WalkOnly())
	}
	// ... and a rebuild of the query structures from the patched timetable.
	if arr4 := plan(t, NewNetwork(patched.Timetable()), ac).arrival; arr4 != 510 {
		t.Fatalf("delayed arrival after rebuild = %d, want 510", arr4)
	}
	// Cancelling the only train leaves the walk as the sole option.
	walked, _, err := patched.ApplyUpdates([]DelayOp{{Train: "t1", Cancel: true}})
	if err != nil {
		t.Fatal(err)
	}
	if arr6 := plan(t, walked, Request{Kind: KindEarliestArrival, From: b, To: c, Depart: 480}).arrival; arr6 != 485 {
		t.Fatalf("walk after cancellation = %d, want 485", arr6)
	}
}

func TestConnectionsAndDepartures(t *testing.T) {
	n := testNetwork(t)
	conns := n.Connections()
	if len(conns) != n.Timetable().NumConnections() {
		t.Fatal("Connections length mismatch")
	}
	c0 := conns[0]
	if c0.Train == "" || c0.From == c0.To || c0.Arr < c0.Dep {
		t.Fatalf("malformed connection info: %+v", c0)
	}
	deps, err := n.Departures(0)
	if err != nil {
		t.Fatal(err)
	}
	prev := Ticks(-1)
	for _, d := range deps {
		if d.From != 0 {
			t.Fatal("departure from wrong station")
		}
		if d.Dep < prev {
			t.Fatal("departures unsorted")
		}
		prev = d.Dep
	}
	if _, err := n.Departures(-3); err == nil {
		t.Fatal("bad station accepted")
	}
}

func TestLoadGTFSPublic(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"stops.txt": "stop_id,stop_name\nA,Alpha\nB,Beta\n",
		"trips.txt": "trip_id\nt1\n",
		"stop_times.txt": "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n" +
			"t1,08:00:00,08:00:00,A,1\nt1,08:10:00,08:10:00,B,2\n",
	}
	for name, content := range files {
		if err := writeFileHelper(dir, name, content); err != nil {
			t.Fatal(err)
		}
	}
	n, err := LoadGTFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if arr := plan(t, n, Request{Kind: KindEarliestArrival, From: 0, To: 1, Depart: 470}).arrival; arr != 490 {
		t.Fatalf("GTFS arrival = %d", arr)
	}
	if _, err := LoadGTFS(t.TempDir()); err == nil {
		t.Fatal("empty GTFS dir accepted")
	}
}

func writeFileHelper(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

func TestAllProfilesSource(t *testing.T) {
	n := testNetwork(t)
	all := plan(t, n, Request{Kind: KindOneToAll, From: 4}).all
	if all.Source() != 4 {
		t.Fatal("Source wrong")
	}
	if _, err := all.To(-1); err == nil {
		t.Fatal("bad target accepted by To")
	}
	pareto := plan(t, n, Request{Kind: KindPareto, From: 4, MaxTransfers: 2}).pareto
	if _, err := pareto.To(-1, 2); err == nil {
		t.Fatal("bad target accepted by pareto To")
	}
}

func TestProfileAllWindowPublic(t *testing.T) {
	n := testNetwork(t)
	from, _ := ParseClock("07:00")
	to, _ := ParseClock("10:00")
	win := plan(t, n, Request{Kind: KindOneToAll, From: 0, Window: &Window{From: from, To: to}}).all
	full := plan(t, n, Request{Kind: KindOneToAll, From: 0}).all
	if win.Stats().SettledConnections >= full.Stats().SettledConnections {
		t.Fatal("window search did not reduce work")
	}
	p, err := win.To(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Connections() {
		if c.Departure < from || c.Departure > to {
			t.Fatalf("connection departs %d outside window", c.Departure)
		}
	}
	if _, err := n.Plan(context.Background(), Request{Kind: KindOneToAll, From: 0, Window: &Window{From: to, To: from}}); err == nil {
		t.Fatal("inverted window accepted")
	}
}
