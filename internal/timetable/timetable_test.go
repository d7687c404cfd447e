package timetable

import (
	"bytes"
	"strings"
	"testing"

	"transit/internal/timeutil"
)

var day = timeutil.NewPeriod(1440)

// tinyNetwork builds a 4-station line A-B-C-D with two routes:
// route 1: A→B→C (two trains), route 2: B→C→D (one train).
func tinyNetwork(t testing.TB) *Timetable {
	t.Helper()
	b := NewBuilder(day)
	a := b.AddStation("A", 2)
	bb := b.AddStation("B", 3)
	c := b.AddStation("C", 2)
	d := b.AddStation("D", 1)
	b.AddTrainRun("r1-t1", []StationID{a, bb, c}, 480, []timeutil.Ticks{10, 15}, 1)
	b.AddTrainRun("r1-t2", []StationID{a, bb, c}, 540, []timeutil.Ticks{10, 15}, 1)
	b.AddTrainRun("r2-t1", []StationID{bb, c, d}, 500, []timeutil.Ticks{12, 8}, 1)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestBuildTiny(t *testing.T) {
	tt := tinyNetwork(t)
	if tt.NumStations() != 4 || tt.NumTrains() != 3 || tt.NumConnections() != 6 {
		t.Fatalf("sizes wrong: %v", tt.Stats())
	}
	if got := len(tt.Routes()); got != 2 {
		t.Fatalf("routes = %d, want 2", got)
	}
	// Trains 0 and 1 share a route; train 2 has its own.
	if tt.RouteOf(0) != tt.RouteOf(1) || tt.RouteOf(0) == tt.RouteOf(2) {
		t.Fatalf("route partition wrong: %d %d %d", tt.RouteOf(0), tt.RouteOf(1), tt.RouteOf(2))
	}
	r := tt.Routes()[tt.RouteOf(0)]
	if len(r.Stations) != 3 || r.Stations[0] != 0 || r.Stations[1] != 1 || r.Stations[2] != 2 {
		t.Fatalf("route stations wrong: %v", r.Stations)
	}
	if len(r.Trains) != 2 {
		t.Fatalf("route trains wrong: %v", r.Trains)
	}
}

func TestOutgoingOrdered(t *testing.T) {
	tt := tinyNetwork(t)
	// Station B has outgoing: r1-t1 at 491, r2-t1 at 500, r1-t2 at 551.
	out := tt.Outgoing(1)
	if len(out) != 3 {
		t.Fatalf("conn(B) size = %d, want 3", len(out))
	}
	prev := timeutil.Ticks(-1)
	for _, id := range out {
		dep := tt.Connections[id].Dep
		if dep < prev {
			t.Fatalf("conn(B) not sorted by departure: %v", out)
		}
		prev = dep
	}
	if tt.Connections[out[0]].Dep != 491 || tt.Connections[out[1]].Dep != 500 || tt.Connections[out[2]].Dep != 551 {
		t.Fatalf("unexpected departures: %d %d %d",
			tt.Connections[out[0]].Dep, tt.Connections[out[1]].Dep, tt.Connections[out[2]].Dep)
	}
}

func TestIncomingOrdered(t *testing.T) {
	tt := tinyNetwork(t)
	in := tt.Incoming(2) // C receives from both routes
	if len(in) != 3 {
		t.Fatalf("incoming(C) size = %d, want 3", len(in))
	}
	prev := timeutil.Ticks(-1)
	for _, id := range in {
		if a := tt.Connections[id].Arr; a < prev {
			t.Fatalf("incoming(C) not sorted by arrival")
		} else {
			prev = a
		}
	}
}

func TestAddTrainRunOvernight(t *testing.T) {
	b := NewBuilder(day)
	a := b.AddStation("A", 2)
	c := b.AddStation("B", 2)
	d := b.AddStation("C", 2)
	// Departs 23:50, 20 min hop → arrives 00:10 next day; departs 00:11.
	b.AddTrainRun("night", []StationID{a, c, d}, 1430, []timeutil.Ticks{20, 20}, 1)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c0 := tt.Connections[0]
	if c0.Dep != 1430 || c0.Arr != 1450 {
		t.Fatalf("overnight hop 0 wrong: %+v", c0)
	}
	c1 := tt.Connections[1]
	if c1.Dep != 11 || c1.Arr != 31 { // wrapped into next period
		t.Fatalf("overnight hop 1 wrong: %+v", c1)
	}
}

func TestValidationErrors(t *testing.T) {
	st := []Station{{ID: 0, Name: "A", Transfer: 2}, {ID: 1, Name: "B", Transfer: 2}}
	zs := []Train{{ID: 0, Name: "z"}}
	mk := func(c Connection) error {
		c.ID = 0
		_, err := New(day, st, zs, []Connection{c})
		return err
	}
	cases := []struct {
		name string
		conn Connection
	}{
		{"unknown train", Connection{Train: 5, From: 0, To: 1, Dep: 10, Arr: 20}},
		{"unknown from", Connection{Train: 0, From: 9, To: 1, Dep: 10, Arr: 20}},
		{"unknown to", Connection{Train: 0, From: 0, To: 9, Dep: 10, Arr: 20}},
		{"self loop", Connection{Train: 0, From: 0, To: 0, Dep: 10, Arr: 20}},
		{"departure outside period", Connection{Train: 0, From: 0, To: 1, Dep: 1440, Arr: 1500}},
		{"negative departure", Connection{Train: 0, From: 0, To: 1, Dep: -1, Arr: 20}},
		{"arrival before departure", Connection{Train: 0, From: 0, To: 1, Dep: 100, Arr: 50}},
	}
	for _, tc := range cases {
		if err := mk(tc.conn); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	// Negative transfer time.
	badSt := []Station{{ID: 0, Name: "A", Transfer: -1}}
	if _, err := New(day, badSt, nil, nil); err == nil {
		t.Error("negative transfer time accepted")
	}
	// Non-dense station IDs.
	looseSt := []Station{{ID: 3, Name: "A", Transfer: 0}}
	if _, err := New(day, looseSt, nil, nil); err == nil {
		t.Error("non-dense station IDs accepted")
	}
	// Train path discontinuity.
	st3 := []Station{{ID: 0, Name: "A"}, {ID: 1, Name: "B"}, {ID: 2, Name: "C"}}
	disc := []Connection{
		{ID: 0, Train: 0, From: 0, To: 1, Dep: 10, Arr: 20},
		{ID: 1, Train: 0, From: 2, To: 0, Dep: 30, Arr: 40}, // starts at C, not B
	}
	if _, err := New(day, st3, zs, disc); err == nil {
		t.Error("discontinuous train path accepted")
	}
}

func TestDuration(t *testing.T) {
	c := Connection{Dep: 1430, Arr: 1450}
	if c.Duration() != 20 {
		t.Fatalf("Duration = %d, want 20", c.Duration())
	}
}

func TestStatsString(t *testing.T) {
	tt := tinyNetwork(t)
	s := tt.Stats()
	if s.Routes != 2 || s.Connections != 6 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if !strings.Contains(s.String(), "4 stations") {
		t.Fatalf("Stats.String = %q", s.String())
	}
	if tt.ConnectionsPerStation() != 1.5 {
		t.Fatalf("conns/station = %f", tt.ConnectionsPerStation())
	}
}

func TestEmptyTimetable(t *testing.T) {
	tt, err := New(day, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tt.ConnectionsPerStation() != 0 {
		t.Fatal("empty density must be 0")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tt := tinyNetwork(t)
	var sb strings.Builder
	if err := Write(&sb, tt); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumStations() != tt.NumStations() || back.NumTrains() != tt.NumTrains() ||
		back.NumConnections() != tt.NumConnections() || back.Period.Len() != tt.Period.Len() {
		t.Fatalf("round trip sizes differ: %v vs %v", back.Stats(), tt.Stats())
	}
	for i := range tt.Connections {
		if back.Connections[i] != tt.Connections[i] {
			t.Fatalf("connection %d differs: %+v vs %+v", i, back.Connections[i], tt.Connections[i])
		}
	}
	for i := range tt.Stations {
		if back.Stations[i] != tt.Stations[i] {
			t.Fatalf("station %d differs", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"wrong header\n",
		"transit-timetable v1\nperiod -5\n",
		"transit-timetable v1\nperiod 1440\nstations x\n",
		"transit-timetable v1\nperiod 1440\nstations 1\nA\t0\t0\t0\ntrains 0\nconnections 1\n0\t0\t0\t10\n",                     // 4 fields
		"transit-timetable v1\nperiod 1440\nstations 2\nA\t0\t0\t0\nB\t0\t0\t0\ntrains 1\nz\nconnections 1\n0\t0\t1\t100\t50\n", // arr<dep
	}
	for i, s := range cases {
		if _, err := Read(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: Read accepted garbage", i)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	b := NewBuilder(day)
	b.AddStation("has\ttab", 0)
	b.AddStation("", 0)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, tt); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Stations[0].Name != "has tab" || back.Stations[1].Name != "-" {
		t.Fatalf("sanitization wrong: %q %q", back.Stations[0].Name, back.Stations[1].Name)
	}
}

func TestAddTrainRunPanicsOnBadLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	b := NewBuilder(day)
	a := b.AddStation("A", 0)
	c := b.AddStation("B", 0)
	b.AddTrainRun("bad", []StationID{a, c}, 0, []timeutil.Ticks{1, 2}, 0)
}

func TestBinaryRoundTrip(t *testing.T) {
	tt := tinyNetwork(t)
	buf := bytes.NewBuffer(AppendBinary(nil, tt))
	back, err := ParseBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumStations() != tt.NumStations() || back.NumTrains() != tt.NumTrains() ||
		back.NumConnections() != tt.NumConnections() || back.Period.Len() != tt.Period.Len() {
		t.Fatalf("sizes differ: %v vs %v", back.Stats(), tt.Stats())
	}
	for i := range tt.Stations {
		if back.Stations[i] != tt.Stations[i] {
			t.Fatalf("station %d differs", i)
		}
	}
	for i := range tt.Connections {
		if back.Connections[i] != tt.Connections[i] {
			t.Fatalf("connection %d differs", i)
		}
	}
}

func TestReadBinaryRejectsCorrupt(t *testing.T) {
	tt := tinyNetwork(t)
	buf := bytes.NewBuffer(AppendBinary(nil, tt))
	good := buf.Bytes()
	cases := map[string][]byte{
		"bad magic": append([]byte("XXXXXXXX"), good[8:]...),
		"truncated": good[:len(good)-7],
		"short":     good[:3],
	}
	for name, data := range cases {
		if _, err := ParseBinary(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBuilderHelpers(t *testing.T) {
	b := NewBuilder(day)
	a := b.AddStationAt("A", 3, 1.5, 2.5)
	c := b.AddStation("B", 1)
	b.SetTransfer(a, 7)
	b.AddFootpath(a, c, 4)
	if b.NumStations() != 2 {
		t.Fatal("NumStations wrong")
	}
	b.AddTrainRun("t", []StationID{a, c}, 100, []timeutil.Ticks{5}, 0)
	if b.NumConnections() != 1 {
		t.Fatal("NumConnections wrong")
	}
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tt.Stations[a].X != 1.5 || tt.Stations[a].Y != 2.5 {
		t.Fatal("coordinates lost")
	}
	if tt.Stations[a].Transfer != 7 {
		t.Fatal("SetTransfer lost")
	}
	fp := tt.FootpathsFrom(a)
	if len(fp) != 1 || fp[0].To != c || fp[0].Walk != 4 {
		t.Fatalf("footpaths: %+v", fp)
	}
	if len(tt.FootpathsFrom(c)) != 0 {
		t.Fatal("reverse footpath invented")
	}
}

func TestFootpathValidation(t *testing.T) {
	st := []Station{{ID: 0, Name: "A"}, {ID: 1, Name: "B"}}
	cases := []Footpath{
		{From: 0, To: 9, Walk: 5},  // unknown station
		{From: 0, To: 0, Walk: 5},  // self loop
		{From: 0, To: 1, Walk: -1}, // negative walk
	}
	for i, f := range cases {
		if _, err := NewWithFootpaths(day, st, nil, nil, []Footpath{f}); err == nil {
			t.Errorf("case %d: invalid footpath accepted", i)
		}
	}
	// Valid zero-length walk is allowed.
	if _, err := NewWithFootpaths(day, st, nil, nil, []Footpath{{From: 0, To: 1, Walk: 0}}); err != nil {
		t.Errorf("zero walk rejected: %v", err)
	}
}

func TestTextFootpathRoundTripAndErrors(t *testing.T) {
	b := NewBuilder(day)
	a := b.AddStation("A", 1)
	c := b.AddStation("B", 1)
	b.AddTrainRun("t", []StationID{a, c}, 100, []timeutil.Ticks{5}, 0)
	b.AddFootpath(a, c, 3)
	b.AddFootpath(c, a, 3)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, tt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "footpaths 2") {
		t.Fatalf("footpath section missing:\n%s", sb.String())
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Footpaths) != 2 || back.Footpaths[0] != tt.Footpaths[0] {
		t.Fatalf("footpaths lost: %+v", back.Footpaths)
	}
	// Corrupt footpath sections.
	base := sb.String()
	bad := []string{
		strings.Replace(base, "footpaths 2", "footpaths x", 1),
		strings.Replace(base, "footpaths 2", "walkways 2", 1),
		strings.Replace(base, "0\t1\t3", "0\t1", 1),
		strings.Replace(base, "0\t1\t3", "0\tz\t3", 1),
		base[:len(base)-4], // truncated list
	}
	for i, s := range bad {
		if _, err := Read(strings.NewReader(s)); err == nil {
			t.Errorf("corrupt case %d accepted", i)
		}
	}
}

func TestBinaryFootpathRoundTrip(t *testing.T) {
	b := NewBuilder(day)
	a := b.AddStation("A", 1)
	c := b.AddStation("B", 1)
	b.AddTrainRun("t", []StationID{a, c}, 100, []timeutil.Ticks{5}, 0)
	b.AddFootpath(a, c, 3)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(AppendBinary(nil, tt))
	back, err := ParseBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Footpaths) != 1 || back.Footpaths[0] != tt.Footpaths[0] {
		t.Fatalf("footpaths lost: %+v", back.Footpaths)
	}
	// Binary with footpath count but truncated entries must fail.
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ParseBinary(trunc); err == nil {
		t.Error("truncated footpath section accepted")
	}
}

func TestBinaryLongNameTruncation(t *testing.T) {
	b := NewBuilder(day)
	long := strings.Repeat("x", 70000)
	b.AddStation(long, 1)
	b.AddStation("B", 1)
	b.AddTrainRun("t", []StationID{0, 1}, 100, []timeutil.Ticks{5}, 0)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(AppendBinary(nil, tt))
	back, err := ParseBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Stations[0].Name) != 65535 {
		t.Fatalf("name not truncated to uint16 range: %d", len(back.Stations[0].Name))
	}
}
