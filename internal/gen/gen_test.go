package gen

import (
	"math"
	"testing"

	"transit/internal/timetable"
	"transit/internal/timeutil"
)

func TestFamilyConfigKnown(t *testing.T) {
	for _, f := range Families() {
		cfg, err := FamilyConfig(f, 1.0, 0)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if cfg.Name != string(f) || cfg.Stations < 4 || cfg.Routes < 2 {
			t.Fatalf("%s: bad config %+v", f, cfg)
		}
	}
	if _, err := FamilyConfig("atlantis", 1, 0); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := FamilyConfig(Oahu, 0, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := FamilyConfig(Oahu, -1, 0); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestFamilyConfigScaling(t *testing.T) {
	small, _ := FamilyConfig(Oahu, 0.25, 0)
	big, _ := FamilyConfig(Oahu, 2.0, 0)
	if small.Stations >= big.Stations || small.Routes >= big.Routes {
		t.Fatalf("scaling broken: %+v vs %+v", small, big)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg, _ := FamilyConfig(Oahu, 0.1, 42)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumConnections() != b.NumConnections() || a.NumStations() != b.NumStations() {
		t.Fatal("generation is not deterministic in sizes")
	}
	for i := range a.Connections {
		if a.Connections[i] != b.Connections[i] {
			t.Fatalf("connection %d differs between runs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cfgA, _ := FamilyConfig(Oahu, 0.1, 1)
	cfgB, _ := FamilyConfig(Oahu, 0.1, 2)
	a, _ := Generate(cfgA)
	b, _ := Generate(cfgB)
	if a.NumConnections() == b.NumConnections() {
		// Sizes could coincide; compare content.
		same := true
		for i := range a.Connections {
			if a.Connections[i] != b.Connections[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical networks")
		}
	}
}

func TestGenerateRejectsDegenerate(t *testing.T) {
	bad := []Config{
		{Stations: 2, Routes: 5, RouteLen: 5, TripsPerDay: 10},
		{Stations: 100, Routes: 0, RouteLen: 5, TripsPerDay: 10},
		{Stations: 100, Routes: 5, RouteLen: 1, TripsPerDay: 10},
		{Stations: 100, Routes: 5, RouteLen: 5, TripsPerDay: 0},
		{Stations: 100, Routes: 5, RouteLen: 5, TripsPerDay: 10, Kind: Kind(99), HopMin: 1, HopMax: 2, TransferMin: 1, TransferMax: 2},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: degenerate config accepted", i)
		}
	}
}

// Bus families must be markedly denser (connections per station) than rail
// families — the property the paper's scalability discussion hinges on.
func TestDensityContrast(t *testing.T) {
	busCfg, _ := FamilyConfig(Oahu, 0.15, 0)
	railCfg, _ := FamilyConfig(Germany, 0.15, 0)
	bus, err := Generate(busCfg)
	if err != nil {
		t.Fatal(err)
	}
	rail, err := Generate(railCfg)
	if err != nil {
		t.Fatal(err)
	}
	bd, rd := bus.ConnectionsPerStation(), rail.ConnectionsPerStation()
	// At full scale the contrast is ≈6×; tiny test networks compress it.
	if bd < 2.5*rd {
		t.Fatalf("bus density %.1f not ≫ rail density %.1f", bd, rd)
	}
}

// The departure histogram must show rush hours for bus networks: the 07:00
// and 17:00 hours must each carry clearly more departures than 03:00.
func TestRushHourProfile(t *testing.T) {
	cfg, _ := FamilyConfig(Washington, 0.15, 0)
	tt, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hist [24]int
	for _, c := range tt.Connections {
		hist[int(c.Dep)/60]++
	}
	if hist[7] < 5*hist[3] || hist[17] < 5*hist[3] {
		t.Fatalf("no rush-hour shape: %v", hist)
	}
}

func TestGeneratedNetworkIsValid(t *testing.T) {
	// Build() already validates; additionally check structural sanity for
	// all families at small scale.
	for _, f := range Families() {
		cfg, _ := FamilyConfig(f, 0.08, 0)
		tt, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if tt.NumConnections() == 0 || tt.NumStations() == 0 {
			t.Fatalf("%s: empty network", f)
		}
		if len(tt.Routes()) < 2 {
			t.Fatalf("%s: only %d routes", f, len(tt.Routes()))
		}
		// Some station must have several outgoing connections, sorted.
		maxOut := 0
		for s := 0; s < tt.NumStations(); s++ {
			out := tt.Outgoing(timetable.StationID(s))
			if len(out) > maxOut {
				maxOut = len(out)
			}
			prev := timeutil.Ticks(-1)
			for _, id := range out {
				if d := tt.Connections[id].Dep; d < prev {
					t.Fatalf("%s: conn(S) unsorted at station %d", f, s)
				} else {
					prev = d
				}
			}
		}
		if maxOut < 4 {
			t.Fatalf("%s: max outgoing connections %d, too sparse to exercise the algorithm", f, maxOut)
		}
	}
}

// Default-scale family sizes should be within a factor ~2 of the targets
// below so the bench harness workloads stay meaningful.
func TestDefaultScaleSizes(t *testing.T) {
	targets := map[Family]struct{ stations, conns int }{
		Oahu:    {400, 140000},
		Germany: {500, 45000},
	}
	for f, want := range targets {
		cfg, _ := FamilyConfig(f, 1.0, 0)
		tt, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		gotS, gotC := tt.NumStations(), tt.NumConnections()
		if math.Abs(float64(gotS)-float64(want.stations)) > 0.5*float64(want.stations) {
			t.Errorf("%s: %d stations, target %d", f, gotS, want.stations)
		}
		if float64(gotC) < 0.4*float64(want.conns) || float64(gotC) > 2.5*float64(want.conns) {
			t.Errorf("%s: %d connections, target %d", f, gotC, want.conns)
		}
		t.Logf("%s: %v", f, tt.Stats())
	}
}
