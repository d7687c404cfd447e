package transit

// Shape assertions for the paper's evaluation: each qualitative claim of
// Section 5 (who wins, by roughly what factor, where behaviour degrades)
// is checked against the searches of internal/core on seeded queries.
// Absolute numbers differ from the paper — the networks are scaled-down
// synthetic analogues and the host differs — but these shapes are what the
// paper's conclusions rest on. bench_test.go times the same tables and
// README "Benchmarks" shows a measured Table 2.

import (
	"math/rand"
	"testing"

	"transit/internal/core"
)

const expScale = 0.12

func expNet(t *testing.T, family string, scale float64) *Network {
	t.Helper()
	n, err := Generate(family, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// expSources draws count random source stations, reproducibly.
func expSources(n *Network, count int, seed int64) []StationID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]StationID, count)
	for i := range out {
		out[i] = StationID(rng.Intn(n.NumStations()))
	}
	return out
}

// expPairs draws count random distinct station pairs, reproducibly.
func expPairs(n *Network, count int, seed int64) [][2]StationID {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]StationID, 0, count)
	for len(out) < count {
		s, t := StationID(rng.Intn(n.NumStations())), StationID(rng.Intn(n.NumStations()))
		if s != t {
			out = append(out, [2]StationID{s, t})
		}
	}
	return out
}

// oneToAllWork runs a one-to-all profile search from each source and
// returns the mean settled connections and the mean critical path (the
// largest thread's settled count) per search.
func oneToAllWork(t *testing.T, n *Network, sources []StationID, opts core.Options) (settled, critical float64) {
	t.Helper()
	ws := core.NewWorkspace()
	var sum, crit int64
	for _, s := range sources {
		res, err := ws.OneToAll(n.g, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Run.Total.SettledConns
		crit += res.Run.MaxThreadSettled()
	}
	return float64(sum) / float64(len(sources)), float64(crit) / float64(len(sources))
}

// s2sWork returns the mean settled connections of station-to-station
// profile queries over pairs, pruned by n's distance table if it has one.
func s2sWork(t *testing.T, n *Network, pairs [][2]StationID, opts core.QueryOptions) float64 {
	t.Helper()
	ws := core.GetWorkspace()
	defer core.PutWorkspace(ws)
	var sum int64
	for _, pr := range pairs {
		res, err := ws.StationToStation(n.queryEnv(), pr[0], pr[1], opts)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Run.Total.SettledConns
	}
	return float64(sum) / float64(len(pairs))
}

// Table 1, claim 1: connection-setting clearly outperforms label-correcting
// in settled connections (paper: 6–15× depending on network).
func TestShapeT1CSBeatsLC(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests run the full harness")
	}
	for _, family := range []string{"oahu", "germany"} {
		net := expNet(t, family, expScale)
		sources := expSources(net, 6, 1)
		cs, _ := oneToAllWork(t, net, sources, core.Options{Threads: 1})
		var sum int64
		for _, s := range sources {
			res, err := core.LabelCorrecting(net.g, s, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Run.Total.SettledConns
		}
		lc := float64(sum) / float64(len(sources))
		ratio := lc / cs
		if ratio < 3 {
			t.Errorf("%s: LC/CS settled ratio %.1f, want ≥3 (paper: 6–15)", family, ratio)
		}
		t.Logf("%s: CS %.0f vs LC %.0f settled (ratio %.1f)", family, cs, lc, ratio)
	}
}

// Table 1, claim 2: parallelization costs little extra work (paper: ≈10–20%
// more settled connections at p=8, worse only on sparse Europe), and the
// critical-path (ideal) speed-up grows with p: ≈1.9 / 3 / 4.6 measured on
// real 8-core hardware, which work-based speed-up upper-bounds.
func TestShapeT1Scalability(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests run the full harness")
	}
	growth := map[string]float64{}
	for _, family := range []string{"oahu", "europe"} {
		net := expNet(t, family, expScale)
		sources := expSources(net, 6, 1)
		// settled[i] and ideal[i] are at p = 1, 2, 4, 8; the ideal speed-up
		// is sequential work over the critical path.
		var settled, ideal [4]float64
		for i, p := range []int{1, 2, 4, 8} {
			var critical float64
			settled[i], critical = oneToAllWork(t, net, sources, core.Options{Threads: p})
			ideal[i] = settled[0] / critical
			if i > 0 && ideal[i] < ideal[i-1]-0.2 {
				t.Errorf("%s: ideal speed-up not monotone: %v", family, ideal[:i+1])
			}
		}
		g := settled[3] / settled[0]
		growth[family] = g
		if g < 0.99 {
			t.Errorf("%s: parallel run settled less than sequential (%.2f)", family, g)
		}
		if g > 2.0 {
			t.Errorf("%s: work grew %.2f× at p=8, want moderate growth", family, g)
		}
		if ideal[1] < 1.5 || ideal[2] < 2.2 || ideal[3] < 3.0 {
			t.Errorf("%s: ideal speed-ups too low: p2=%.1f p4=%.1f p8=%.1f",
				family, ideal[1], ideal[2], ideal[3])
		}
		t.Logf("%s: work growth %.2f, ideal speed-ups %.1f/%.1f/%.1f",
			family, g, ideal[1], ideal[2], ideal[3])
	}
	// Sparse rail loses more self-pruning across threads than dense bus
	// (the paper's Europe observation). Allow generous slack for noise.
	if growth["europe"] < growth["oahu"]-0.05 {
		t.Errorf("europe work growth (%.2f) expected ≥ oahu (%.2f)", growth["europe"], growth["oahu"])
	}
}

// Table 2, claim 1: the stopping criterion alone reduces work on
// station-to-station queries (paper: ≈20%).
func TestShapeT2StoppingCriterion(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests run the full harness")
	}
	net := expNet(t, "washington", expScale)
	pairs := expPairs(net, 10, 3)
	on := s2sWork(t, net, pairs, core.QueryOptions{})
	off := s2sWork(t, net, pairs, core.QueryOptions{DisableStoppingCriterion: true})
	if on >= off {
		t.Errorf("stopping criterion did not reduce work: %.0f vs %.0f", on, off)
	}
	t.Logf("stopping criterion: %.0f vs %.0f settled (%.0f%%)", on, off, 100*on/off)
}

// tableRow is one Table 2 row: the work speed-up of a distance table over
// the stopping criterion alone, and what the table cost to build.
type tableRow struct {
	speedUp    float64
	preprocess PreprocessStats
}

// tableRows runs Table 2's station-to-station queries at one thread on
// seeded pairs, without a table and under each selection.
func tableRows(t *testing.T, net *Network, numPairs int, sels ...TransferSelection) []tableRow {
	t.Helper()
	pairs := expPairs(net, numPairs, 3)
	opts := core.QueryOptions{Options: core.Options{Threads: 1}}
	base := s2sWork(t, net, pairs, opts)
	rows := make([]tableRow, len(sels))
	for i, sel := range sels {
		pre, ps, err := net.Preprocess(sel, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = tableRow{speedUp: base / s2sWork(t, pre, pairs, opts), preprocess: *ps}
	}
	return rows
}

func (r tableRow) mib() float64 { return float64(r.preprocess.TableBytes) / (1 << 20) }

// Table 2, claim 2: distance tables accelerate queries, with diminishing
// returns — tiny tables hardly help, larger selections give real speed-ups,
// preprocessing cost grows with the selection.
func TestShapeT2DistanceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests run the full harness")
	}
	// Rail shows separation already at moderate size; bus needs larger
	// scale for the same effect (README "Benchmarks"), so assert on rail
	// at the default experiment scale plus the larger oahu check below.
	rows := tableRows(t, expNet(t, "germany", expScale), 10,
		TransferSelection{Fraction: 0.05}, TransferSelection{Fraction: 0.20}, TransferSelection{MinDegree: 2})
	five, twenty, deg := rows[0], rows[1], rows[2]
	if twenty.speedUp < 1.1 {
		t.Errorf("20%% table speed-up %.2f, want > 1.1", twenty.speedUp)
	}
	if twenty.speedUp < five.speedUp-0.1 {
		t.Errorf("speed-up shrank with larger table: 5%%=%.2f 20%%=%.2f", five.speedUp, twenty.speedUp)
	}
	if twenty.preprocess.Elapsed <= five.preprocess.Elapsed/4 {
		t.Errorf("preprocessing time did not grow with the table: %v vs %v", five.preprocess.Elapsed, twenty.preprocess.Elapsed)
	}
	if twenty.mib() <= five.mib() {
		t.Errorf("table size did not grow: %.2f vs %.2f MiB", five.mib(), twenty.mib())
	}
	t.Logf("germany: spd 5%%=%.2f 20%%=%.2f deg>2=%.2f (sizes %.2f/%.2f/%.2f MiB)",
		five.speedUp, twenty.speedUp, deg.speedUp, five.mib(), twenty.mib(), deg.mib())
}

// Table 2, claim 3: on dense bus networks the same effect appears once the
// transfer-station set is dense enough to separate neighbourhoods (larger
// scale; the paper's full-size networks are 10–17× bigger still).
func TestShapeT2BusAtLargerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests run the full harness")
	}
	spd := tableRows(t, expNet(t, "oahu", 0.4), 6, TransferSelection{Fraction: 0.20})[0].speedUp
	if spd < 1.3 {
		t.Errorf("oahu@0.4 20%% table speed-up %.2f, want ≥1.3", spd)
	}
	t.Logf("oahu@0.4: 20%% table speed-up %.2f", spd)
}

// Ablation: the equal-time-slots partition is less balanced than equal
// connections under rush-hour departure distributions (Section 3.2).
func TestShapePartitionBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests run the full harness")
	}
	net := expNet(t, "losangeles", expScale)
	sources := expSources(net, 6, 1)
	// imbalance is the summed largest over the summed smallest per-thread
	// settled count at 4 threads; closer to 1 is better.
	imbalance := map[core.PartitionStrategy]float64{}
	ws := core.NewWorkspace()
	for _, strat := range []core.PartitionStrategy{core.EqualConnections, core.EqualTimeSlots, core.KMeans} {
		var maxW, minW float64
		for _, s := range sources {
			res, err := ws.OneToAll(net.g, s, core.Options{Threads: 4, Partition: strat})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := int64(1<<62), int64(0)
			for _, th := range res.Run.PerThread {
				lo, hi = min(lo, th.SettledConns), max(hi, th.SettledConns)
			}
			maxW += float64(hi)
			minW += float64(lo)
		}
		imbalance[strat] = maxW / minW
	}
	ec, ts := imbalance[core.EqualConnections], imbalance[core.EqualTimeSlots]
	if ts < ec {
		t.Errorf("time-slots (%.2f) should be less balanced than equal-connections (%.2f)", ts, ec)
	}
	t.Logf("imbalance: equal-conns %.2f, time-slots %.2f, k-means %.2f", ec, ts, imbalance[core.KMeans])
}
