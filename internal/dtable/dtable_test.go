package dtable_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"transit/internal/core"
	"transit/internal/dtable"
	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/stationgraph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
	"transit/internal/ttf"
)

func fixture(t *testing.T) (*graph.Graph, *dtable.Table, []timetable.StationID) {
	t.Helper()
	g, marked := network(t, 8)
	pre, err := core.BuildDistanceTable(g, marked, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g, pre.Table, pre.Table.Stations()
}

// network generates the fixture's rail network and marks transfers
// transfer stations by contraction.
func network(t *testing.T, transfers int) (*graph.Graph, []bool) {
	t.Helper()
	cfg, err := gen.FamilyConfig(gen.Germany, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return graph.Build(tt), stationgraph.Build(tt).SelectByContraction(transfers)
}

func TestTableMatchesTimeQueries(t *testing.T) {
	g, table, ts := fixture(t)
	if len(ts) != 8 {
		t.Fatalf("transfer stations = %d, want 8", len(ts))
	}
	// D(A, B, τ) must equal the earliest arrival from A at τ, for all pairs
	// and sampled times (both share the "no transfer at endpoints"
	// convention). The reference is the connection scan, which shares no
	// code with the search that built the table.
	sched := core.NewConnectionScan(g.TT)
	for _, a := range ts {
		for tau := timeutil.Ticks(0); tau < 1440; tau += 360 {
			cs, err := sched.Query(a, tau, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range ts {
				if a == b {
					continue
				}
				if got, want := table.D(a, b, tau), cs.StationArrival(b); got != want {
					t.Fatalf("D(%d,%d,%d) = %d, connection scan says %d", a, b, tau, got, want)
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
	back, err := dtable.ReadSection(buf.Bytes(), g.TT.NumStations())
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
		if _, err := dtable.ReadSection(data, g.TT.NumStations()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Station-count mismatch.
	if _, err := dtable.ReadSection(good, g.TT.NumStations()+1); err == nil {
		t.Error("station mismatch accepted")
	}
}

// TestTableIsFlat pins the table's layout: the heap objects a Build leaves
// live grow with the rows (one point arena each), not with the n² profiles.
func TestTableIsFlat(t *testing.T) {
	g, marked := network(t, 48)
	build := func() *core.PreprocessResult {
		pre, err := core.BuildDistanceTable(g, marked, core.Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pre
	}
	build() // fills the workspace pool, so the measured build allocates no workspace
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pre := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	rows := pre.Table.NumTransfer()
	if rows < 40 {
		t.Fatalf("%d rows, want at least 40", rows)
	}
	live := int64(after.HeapObjects) - int64(before.HeapObjects)
	t.Logf("%d rows, %d points: %d heap objects left live", rows, pre.Table.SizeBytes()/8, live)
	if live > int64(rows)+32 {
		t.Fatalf("Build left %d heap objects live for %d rows, want at most rows + 32", live, rows)
	}
	runtime.KeepAlive(pre)
}

// section encodes a distance-table section body by hand: profiles[i][j] are
// the points from stations[i] to stations[j].
func section(period, numStations int32, stations []int32, profiles [][][]ttf.Point) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, uint32(period))
	b = le.AppendUint32(b, uint32(numStations))
	b = le.AppendUint32(b, uint32(len(stations)))
	for _, s := range stations {
		b = le.AppendUint32(b, uint32(s))
	}
	for _, row := range profiles {
		for _, pts := range row {
			b = le.AppendUint32(b, uint32(len(pts)))
			for _, p := range pts {
				b = le.AppendUint32(b, uint32(p.Dep))
				b = le.AppendUint32(b, uint32(p.W))
			}
		}
	}
	return b
}

// smallSection is a valid two-transfer-station section over four stations.
func smallSection() []byte {
	return section(1440, 4, []int32{1, 3}, [][][]ttf.Point{
		{{{Dep: 100, W: 30}}, {{Dep: 60, W: 20}, {Dep: 600, W: 45}}},
		{{}, {{Dep: 0, W: 5}}},
	})
}

func TestReadSectionHostileCounts(t *testing.T) {
	le := binary.LittleEndian
	// The 24-byte section that once made the loader allocate 128 MiB: one
	// transfer station whose profile to itself claims 2^24 points and
	// carries half of one.
	hostile := section(1440, 4, []int32{0}, nil)
	hostile = le.AppendUint32(hostile, 1<<24)
	hostile = le.AppendUint32(hostile, 100)
	if len(hostile) != 24 {
		t.Fatalf("hostile section is %d bytes", len(hostile))
	}
	cases := map[string]struct {
		data []byte
		want string
	}{
		"point count":      {hostile, "profile (0,0)"},
		"transfer count":   {section(1440, 1<<20, nil, nil)[:12], "transfer count"},
		"negative count":   {append(section(1440, 4, []int32{0}, nil), 0xff, 0xff, 0xff, 0xff), "profile (0,0)"},
		"truncated points": {smallSection()[:len(smallSection())-3], "profile (1,1)"},
		"trailing bytes":   {append(smallSection(), 0, 0, 0, 0), "trailing"},
	}
	// The transfer-count case claims a network of 2^20 stations, all
	// transfer stations, in a 12-byte section.
	le.PutUint32(cases["transfer count"].data[8:], 1<<20)
	for name, c := range cases {
		want := int(int32(le.Uint32(c.data[4:])))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := dtable.ReadSection(c.data, want)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", name, err, c.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing", name, alloc)
		}
	}
}

func TestReadSectionRejectsNonCanonical(t *testing.T) {
	if _, err := dtable.ReadSection(smallSection(), 4); err != nil {
		t.Fatalf("valid section rejected: %v", err)
	}
	profiles := map[string][]ttf.Point{
		"unsorted":                 {{Dep: 600, W: 45}, {Dep: 60, W: 20}},
		"equal departures":         {{Dep: 60, W: 20}, {Dep: 60, W: 25}},
		"departure = π":            {{Dep: 1440, W: 5}},
		"negative duration":        {{Dep: 60, W: -1}},
		"infinite duration":        {{Dep: 60, W: timeutil.Infinity}},
		"arrival past infinity":    {{Dep: 1439, W: timeutil.Infinity - 100}},
		"dominated":                {{Dep: 60, W: 100}, {Dep: 100, W: 20}},
		"dominated by next period": {{Dep: 10, W: 5}, {Dep: 1430, W: 30}},
	}
	for name, pts := range profiles {
		data := section(1440, 4, []int32{1, 3}, [][][]ttf.Point{{{}, pts}, {{}, {}}})
		if _, err := dtable.ReadSection(data, 4); err == nil || !strings.Contains(err.Error(), "profile (0,1)") {
			t.Errorf("%s: got %v, want a rejection of profile (0,1)", name, err)
		}
	}
	stations := map[string][]int32{"duplicate": {1, 1}, "decreasing": {3, 1}, "out of range": {1, 4}}
	for name, st := range stations {
		data := section(1440, 4, st, [][][]ttf.Point{{{}, {}}, {{}, {}}})
		if _, err := dtable.ReadSection(data, 4); err == nil {
			t.Errorf("%s transfer stations accepted", name)
		}
	}
}

// FuzzReadSection feeds arbitrary section bodies to the loader: it must
// never panic, and whatever it accepts must re-encode to the same bytes and
// answer D for every pair.
func FuzzReadSection(f *testing.F) {
	f.Add(smallSection())
	f.Add(section(1440, 4, nil, nil))
	f.Add(section(7, 1, []int32{0}, [][][]ttf.Point{{{{Dep: 6, W: 1 << 29}}}}))
	f.Add(append(section(1440, 4, []int32{0}, nil), 0, 0, 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := 4
		if len(data) >= 8 {
			if v := int32(binary.LittleEndian.Uint32(data[4:])); v >= 0 && v <= 64 {
				want = int(v)
			}
		}
		table, err := dtable.ReadSection(data, want)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := dtable.WriteSection(&buf, table, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted section re-encodes differently:\n in  %x\n out %x", data, buf.Bytes())
		}
		for _, a := range table.Stations() {
			for _, b := range table.Stations() {
				table.D(a, b, 0)
				table.D(a, b, 1<<20)
			}
		}
	})
}

// checkD2 compares the two-key look-up with two D calls for every ordered
// pair of the table's stations at key at and offset dt.
func checkD2(t *testing.T, table *dtable.Table, at, dt timeutil.Ticks) {
	t.Helper()
	for _, a := range table.Stations() {
		for _, b := range table.Stations() {
			d, dt2 := table.D2(table.Index(a), table.Index(b), at, dt)
			if wd, wdt := table.D(a, b, at), table.D(a, b, at+dt); d != wd || dt2 != wdt {
				t.Fatalf("D2(%d,%d,%d,+%d) = (%d,%d), D says (%d,%d)", a, b, at, dt, d, dt2, wd, wdt)
			}
		}
	}
}

// TestTableD2 checks the two-key look-up against D on a built table, over
// keys across two days and offsets up to a period (the look-up walks for
// offsets that stay on the key's day and searches again for the rest), and
// on a hand-written section with an empty profile, a profile of one point
// and keys whose offset crosses the end of the period.
func TestTableD2(t *testing.T) {
	_, table, _ := fixture(t)
	for at := timeutil.Ticks(0); at < 2*1440; at += 37 {
		for _, dt := range []timeutil.Ticks{0, 1, 3, 10, 240, 1439, 1440} {
			checkD2(t, table, at, dt)
		}
	}
	small, err := dtable.ReadSection(smallSection(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if small.Index(0) != -1 || small.Index(1) != 0 || small.Index(3) != 1 || small.Index(-1) != -1 || small.Index(4) != -1 {
		t.Fatalf("Index: %d %d %d", small.Index(0), small.Index(1), small.Index(3))
	}
	for _, at := range []timeutil.Ticks{0, 59, 60, 61, 599, 600, 601, 1400, 1439, 1440, 2000, timeutil.Infinity - 5, timeutil.Infinity} {
		for _, dt := range []timeutil.Ticks{0, 1, 5, 39, 40, 41, 540, 1440, 2000} {
			checkD2(t, small, at, dt)
		}
	}
}

// FuzzTableD2 checks the two-key look-up against two D calls on random
// canonical profiles: the fuzz input gives a period, the points of the
// profiles from station 1 to 3 and from 3 to 1 (reduced, so possibly
// empty), then keys and offsets, which often cross the end of the small
// period. The profiles of a station to itself stay empty, since D answers
// the key there.
func FuzzTableD2(f *testing.F) {
	f.Add([]byte{10, 3, 2, 5, 7, 1, 9, 0, 1, 4, 20, 3, 9, 12})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{200, 8, 0, 10, 50, 3, 100, 90, 150, 20, 199, 1, 1, 250, 7, 199, 255, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		pi := timeutil.Ticks(1 + next())
		period := timeutil.NewPeriod(pi)
		profile := func() []ttf.Point {
			pts := make([]ttf.Point, next()%16)
			for k := range pts {
				pts[k] = ttf.Point{Dep: timeutil.Ticks(next()) % pi, W: timeutil.Ticks(next())}
			}
			fn, err := ttf.New(period, pts)
			if err != nil {
				t.Fatal(err)
			}
			fn.Reduce()
			return fn.Points()
		}
		p13, p31 := profile(), profile()
		table, err := dtable.ReadSection(section(int32(pi), 4, []int32{1, 3}, [][][]ttf.Point{{nil, p13}, {p31, nil}}), 4)
		if err != nil {
			t.Fatalf("canonical profiles rejected: %v", err)
		}
		for len(data) >= 2 {
			at := timeutil.Ticks(next()) * timeutil.Ticks(1+next()%8)
			dt := timeutil.Ticks(next())
			checkD2(t, table, at, dt)
		}
	})
}
