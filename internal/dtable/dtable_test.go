package dtable_test

import (
	"bytes"
	"testing"

	"transit/internal/core"
	"transit/internal/dtable"
	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

func fixture(t *testing.T) (*graph.Graph, *dtable.Table, []timetable.StationID) {
	t.Helper()
	cfg, err := gen.FamilyConfig(gen.Germany, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(tt)
	sg := stationgraph.Build(tt)
	marked := sg.SelectByContraction(8)
	pre, err := core.BuildDistanceTable(g, marked, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g, pre.Table, pre.Table.Stations()
}

func TestTableMatchesTimeQueries(t *testing.T) {
	g, table, ts := fixture(t)
	if len(ts) != 8 {
		t.Fatalf("transfer stations = %d, want 8", len(ts))
	}
	// D(A, B, τ) must equal a time-query from A at τ, for all pairs and
	// sampled times (both share the "no transfer at endpoints" convention).
	for _, a := range ts {
		for tau := timeutil.Ticks(0); tau < 1440; tau += 360 {
			tq, err := core.NewWorkspace().TimeQuery(g, a, tau, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range ts {
				if a == b {
					continue
				}
				if got, want := table.D(a, b, tau), tq.StationArrival(b); got != want {
					t.Fatalf("D(%d,%d,%d) = %d, time-query says %d", a, b, tau, got, want)
				}
			}
		}
	}
}

func TestTableBasics(t *testing.T) {
	_, table, ts := fixture(t)
	if table.NumTransfer() != len(ts) {
		t.Fatal("NumTransfer mismatch")
	}
	for _, s := range ts {
		if !table.IsTransfer(s) {
			t.Fatalf("station %d not marked transfer", s)
		}
	}
	// D on identical stations is the identity.
	if table.D(ts[0], ts[0], 777) != 777 {
		t.Fatal("D(s,s,τ) must be τ")
	}
	// Infinity propagates.
	if !table.D(ts[0], ts[1], timeutil.Infinity).IsInf() {
		t.Fatal("D at infinite time must be infinite")
	}
	// Profiles are reduced and evaluable.
	f, err := table.Profile(ts[0], ts[1])
	if err != nil {
		t.Fatal(err)
	}
	if !f.Reduced() {
		t.Fatal("stored profile not reduced")
	}
	if _, err := table.Profile(ts[0], timetable.StationID(9999)); err == nil {
		t.Fatal("Profile on non-transfer station accepted")
	}
	if table.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive for a non-empty table")
	}
}

func TestTablePanicsOnNonTransfer(t *testing.T) {
	g, table, ts := fixture(t)
	var nonTransfer timetable.StationID = -1
	for s := 0; s < g.TT.NumStations(); s++ {
		if !table.IsTransfer(timetable.StationID(s)) {
			nonTransfer = timetable.StationID(s)
			break
		}
	}
	if nonTransfer < 0 {
		t.Skip("all stations are transfer stations")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("D on non-transfer station must panic")
		}
	}()
	table.D(ts[0], nonTransfer, 100)
}

// stubSearcher satisfies dtable.RowSearcher for tests that never search.
type stubSearcher struct{}

func (stubSearcher) Search(timetable.StationID) (dtable.StationProfiler, error) {
	panic("stub searcher used")
}
func (stubSearcher) Close() {}

func stubFactory() (dtable.RowSearcher, error) { return stubSearcher{}, nil }

func TestBuildValidation(t *testing.T) {
	if _, err := dtable.Build(timeutil.NewPeriod(1440), 5, []bool{true}, 1, stubFactory); err == nil {
		t.Fatal("mismatched isTransfer length accepted")
	}
	if _, err := dtable.Build(timeutil.NewPeriod(1440), 1, []bool{true}, 1, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
}

func TestBuildEmptySelection(t *testing.T) {
	table, err := dtable.Build(timeutil.NewPeriod(1440), 3, []bool{false, false, false}, 1, stubFactory)
	if err != nil {
		t.Fatal(err)
	}
	if table.NumTransfer() != 0 || table.SizeBytes() != 0 {
		t.Fatal("empty selection must give an empty table")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g, table, ts := fixture(t)
	var buf bytes.Buffer
	if err := dtable.WriteSection(&buf, table, g.TT.NumStations()); err != nil {
		t.Fatal(err)
	}
	back, err := dtable.ReadSection(bytes.NewReader(buf.Bytes()), g.TT.NumStations())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTransfer() != table.NumTransfer() {
		t.Fatal("transfer count changed")
	}
	for _, a := range ts {
		for _, b := range ts {
			for tau := timeutil.Ticks(0); tau < 1440; tau += 240 {
				if got, want := back.D(a, b, tau), table.D(a, b, tau); got != want {
					t.Fatalf("D(%d,%d,%d) = %d after round trip, want %d", a, b, tau, got, want)
				}
			}
		}
	}
	if back.SizeBytes() != table.SizeBytes() {
		t.Fatalf("size changed: %d vs %d", back.SizeBytes(), table.SizeBytes())
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	g, table, _ := fixture(t)
	var buf bytes.Buffer
	if err := dtable.WriteSection(&buf, table, g.TT.NumStations()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)/2],
		"short":     good[:4],
	}
	for name, data := range cases {
		if _, err := dtable.ReadSection(bytes.NewReader(data), g.TT.NumStations()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Station-count mismatch.
	if _, err := dtable.ReadSection(bytes.NewReader(good), g.TT.NumStations()+1); err == nil {
		t.Error("station mismatch accepted")
	}
}
