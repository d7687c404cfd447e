package transit

// Benchmarks regenerating the paper's evaluation (README "Benchmarks" is
// the experiment index; experiments_test.go asserts its shapes). One
// benchmark per table and per ablation:
//
//	BenchmarkTable1OneToAll/<family>/CS-p<N>   — Table 1 rows (CS, 1–8 cores)
//	BenchmarkTable1OneToAll/<family>/LC        — Table 1 LC baseline rows
//	BenchmarkTable2StationToStation/<family>/<selection> — Table 2 rows
//	BenchmarkAblation*                          — design-choice ablations
//
// The per-op metrics reported via b.ReportMetric mirror the paper's
// columns: settled connections per query, (for parallel runs) the
// critical-path work that determines achievable speed-up, and (Table 2)
// the transfer stations, build time and size of each distance table.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"transit/internal/core"
	"transit/internal/gen"
	"transit/internal/timetable"
)

// benchScale keeps `go test -bench=.` under a few minutes on one core
// while preserving the workload shape.
const benchScale = 0.12

var benchNets = map[string]*Network{}

func benchNet(b *testing.B, family string) *Network {
	b.Helper()
	if n, ok := benchNets[family]; ok {
		return n
	}
	n, err := Generate(family, benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchNets[family] = n
	return n
}

func benchSources(net *Network, n int) []timetable.StationID {
	out := make([]timetable.StationID, n)
	for i := range out {
		out[i] = timetable.StationID((i * 7919) % net.NumStations())
	}
	return out
}

// BenchmarkTable1OneToAll regenerates Table 1: one-to-all profile queries
// with the connection-setting algorithm on 1, 2, 4 and 8 threads, and the
// label-correcting baseline.
func BenchmarkTable1OneToAll(b *testing.B) {
	for _, family := range GenerateFamilies() {
		b.Run(family, func(b *testing.B) {
			net := benchNet(b, family)
			sources := benchSources(net, 16)
			for _, p := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("CS-p%d", p), func(b *testing.B) {
					var settled, critical int64
					for i := 0; i < b.N; i++ {
						res, err := core.NewWorkspace().OneToAll(net.g, sources[i%len(sources)], core.Options{Threads: p})
						if err != nil {
							b.Fatal(err)
						}
						settled += res.Run.Total.SettledConns
						critical += res.Run.MaxThreadSettled()
					}
					b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
					b.ReportMetric(float64(critical)/float64(b.N), "critical/op")
				})
			}
			b.Run("LC", func(b *testing.B) {
				var settled int64
				for i := 0; i < b.N; i++ {
					res, err := core.LabelCorrecting(net.g, sources[i%len(sources)], core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					settled += res.Run.Total.SettledConns
				}
				b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
			})
		})
	}
}

// table2Selections are Table 2's rows: no distance table (the stopping
// criterion alone), contraction tables over 1–20 % of the stations, and
// the stations of station-graph degree > 2.
var table2Selections = []struct {
	name string
	sel  TransferSelection
}{
	{"frac0.0%", TransferSelection{}},
	{"frac1.0%", TransferSelection{Fraction: 0.01}},
	{"frac2.5%", TransferSelection{Fraction: 0.025}},
	{"frac5.0%", TransferSelection{Fraction: 0.05}},
	{"frac10.0%", TransferSelection{Fraction: 0.10}},
	{"frac20.0%", TransferSelection{Fraction: 0.20}},
	{"deg2", TransferSelection{MinDegree: 2}},
}

// BenchmarkTable2StationToStation regenerates Table 2: station-to-station
// profile queries at one thread with the stopping criterion and distance
// tables of varying size. Each row reports its table's transfer stations,
// build time and size beside the query metrics.
func BenchmarkTable2StationToStation(b *testing.B) {
	for _, family := range GenerateFamilies() {
		b.Run(family, func(b *testing.B) {
			net := benchNet(b, family)
			sources := benchSources(net, 32)
			for _, row := range table2Selections {
				b.Run(row.name, func(b *testing.B) {
					n, ps := net, &PreprocessStats{}
					if row.sel != (TransferSelection{}) {
						var err error
						if n, ps, err = net.Preprocess(row.sel, Options{}); err != nil {
							b.Fatal(err)
						}
					}
					env := n.queryEnv()
					b.ReportAllocs()
					b.ResetTimer()
					var settled int64
					for i := 0; i < b.N; i++ {
						src := sources[i%len(sources)]
						dst := sources[(i+5)%len(sources)]
						if src == dst {
							dst = timetable.StationID((int(dst) + 1) % net.NumStations())
						}
						ws := core.GetWorkspace()
						res, err := ws.StationToStation(env, src, dst, core.QueryOptions{})
						if err != nil {
							b.Fatal(err)
						}
						settled += res.Run.Total.SettledConns
						core.PutWorkspace(ws)
					}
					// Reported after the timed loop: ResetTimer drops
					// metrics reported before it.
					b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
					b.ReportMetric(float64(ps.TransferStations), "transfer")
					b.ReportMetric(float64(ps.Elapsed)/float64(time.Millisecond), "prepro-ms")
					b.ReportMetric(float64(ps.TableBytes)/(1<<20), "table-MiB")
				})
			}
		})
	}
}

// BenchmarkAblationSelfPruning quantifies Theorem 1 (self-pruning) on the
// one-to-all workload.
func BenchmarkAblationSelfPruning(b *testing.B) {
	net := benchNet(b, "oahu")
	sources := benchSources(net, 16)
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var settled int64
			for i := 0; i < b.N; i++ {
				res, err := core.NewWorkspace().OneToAll(net.g, sources[i%len(sources)], core.Options{DisableSelfPruning: disable})
				if err != nil {
					b.Fatal(err)
				}
				settled += res.Run.Total.SettledConns
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
	}
}

// BenchmarkAblationPartition compares the partition strategies of
// Section 3.2 at 4 threads.
func BenchmarkAblationPartition(b *testing.B) {
	net := benchNet(b, "losangeles")
	sources := benchSources(net, 16)
	for _, strat := range []core.PartitionStrategy{core.EqualConnections, core.EqualTimeSlots, core.KMeans} {
		b.Run(strat.String(), func(b *testing.B) {
			var critical int64
			for i := 0; i < b.N; i++ {
				res, err := core.NewWorkspace().OneToAll(net.g, sources[i%len(sources)], core.Options{Threads: 4, Partition: strat})
				if err != nil {
					b.Fatal(err)
				}
				critical += res.Run.MaxThreadSettled()
			}
			b.ReportMetric(float64(critical)/float64(b.N), "critical/op")
		})
	}
}

// BenchmarkAblationStopping quantifies Theorem 2 on station-to-station
// queries without distance tables.
func BenchmarkAblationStopping(b *testing.B) {
	net := benchNet(b, "germany")
	sources := benchSources(net, 32)
	env := core.QueryEnv{Graph: net.g}
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var settled int64
			for i := 0; i < b.N; i++ {
				src := sources[i%len(sources)]
				dst := sources[(i+9)%len(sources)]
				if src == dst {
					dst = timetable.StationID((int(dst) + 1) % net.NumStations())
				}
				ws := core.GetWorkspace()
				res, err := ws.StationToStation(env, src, dst, core.QueryOptions{DisableStoppingCriterion: disable})
				if err != nil {
					b.Fatal(err)
				}
				settled += res.Run.Total.SettledConns
				core.PutWorkspace(ws)
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
	}
}

// BenchmarkApplyUpdates compares ApplyUpdates, the incremental
// copy-on-write patch behind internal/live, with a full rebuild
// (rebuildDelayed: re-validation, route re-derivation and complete index
// reconstruction) on a delay batch of roughly 100 connections, one route
// class of the benchmark network. The gap is the per-update cost a live
// server saves on every delay message.
func BenchmarkApplyUpdates(b *testing.B) {
	n := benchNet(b, "washington")
	// Pick the route class whose connection count is closest to 100.
	counts := map[int]int{}
	for _, ci := range n.Connections() {
		counts[ci.Route]++
	}
	route, batch := -1, 0
	for r, c := range counts {
		if route < 0 || absInt(c-100) < absInt(batch-100) || (absInt(c-100) == absInt(batch-100) && r < route) {
			route, batch = r, c
		}
	}
	if route < 0 {
		b.Fatal("no routes")
	}
	b.Logf("delaying route %d: %d connections per batch", route, batch)
	b.Run("full-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := rebuildDelayed(n, 7, func(ci ConnectionInfo) bool { return ci.Route == route }); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch), "conns/batch")
	})
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := n.ApplyUpdates([]DelayOp{{Routes: []int{route}, Delay: 7}}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch), "conns/batch")
	})
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkPublicAPIQuery measures the end-to-end public API path.
func BenchmarkPublicAPIQuery(b *testing.B) {
	n, err := Generate("oahu", benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("EarliestArrival", func(b *testing.B) {
		var reuse Result
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := n.Plan(ctx, Request{
				Kind: KindEarliestArrival, From: 0, To: StationID(1 + i%(n.NumStations()-1)), Depart: 480, Reuse: &reuse,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Profile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := n.Plan(ctx, Request{Kind: KindProfile, From: 0, To: StationID(1 + i%(n.NumStations()-1))}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSteadyStateStationQuery measures the zero-allocation query path:
// station-to-station profile queries through one reused core.Workspace —
// the paper's per-thread data-structure reuse, and the configuration a
// server worker runs in. The allocs/op column is the headline: the
// pre-workspace implementation allocated and Infinity-filled O(n·k) arrays
// per query here.
func BenchmarkSteadyStateStationQuery(b *testing.B) {
	net := benchNet(b, "oahu")
	sources := benchSources(net, 32)
	env := core.QueryEnv{Graph: net.g}
	// The effort-tracked mode runs the same pooled-workspace loop with an
	// attached core.Effort counter block — the observability contract is
	// that tracing a query costs zero allocations, so its allocs/op column
	// must read identically to pooled-workspace.
	for _, mode := range []string{"pooled-workspace", "effort-tracked"} {
		b.Run(mode, func(b *testing.B) {
			ws := core.GetWorkspace()
			defer core.PutWorkspace(ws)
			opts := core.QueryOptions{}
			var effort core.Effort
			if mode == "effort-tracked" {
				opts.Effort = &effort
			}
			// Warm-up grows the workspace arrays to steady-state size.
			if _, err := ws.StationToStation(env, sources[0], sources[1], opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var settled int64
			for i := 0; i < b.N; i++ {
				src := sources[i%len(sources)]
				dst := sources[(i+5)%len(sources)]
				if src == dst {
					dst = timetable.StationID((int(dst) + 1) % net.NumStations())
				}
				res, err := ws.StationToStation(env, src, dst, opts)
				if err != nil {
					b.Fatal(err)
				}
				settled += res.Run.Total.SettledConns
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
			if mode == "effort-tracked" && effort.ConnsScanned.Load() == 0 {
				b.Fatal("effort block saw no work")
			}
		})
	}
}

// BenchmarkBaselineCSA measures the Connection Scan reference on the same
// time-query workload as the graph-based search, for a modern-baseline
// comparison.
func BenchmarkBaselineCSA(b *testing.B) {
	net := benchNet(b, "oahu")
	sched := core.NewConnectionScan(net.tt)
	sources := benchSources(net, 16)
	b.Run("csa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.Query(sources[i%len(sources)], 480, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("td-dijkstra", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewWorkspace().TimeQuery(net.g, sources[i%len(sources)], 480, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pointNets are the two networks the point-query rows run on: the serve_hot
// and serve_churn networks of benchmark/ (losangeles 0.1, europe 0.25).
var pointNets = []struct {
	family string
	scale  float64
}{{"losangeles", 0.1}, {"europe", 0.25}}

// pointPairs is a fixed seeded list of (source, target, departure) samples.
func pointPairs(n *Network, count int) [][3]int {
	rng := rand.New(rand.NewSource(16))
	out := make([][3]int, count)
	for i := range out {
		out[i] = [3]int{rng.Intn(n.NumStations()), rng.Intn(n.NumStations()), rng.Intn(int(n.Period()))}
	}
	return out
}

// BenchmarkMatrixRows is the decision row for /v1/matrix: 16 sources × 16
// targets, answered by Plan (each row one time-query that stops when the
// last of the row's targets settles) against 16 whole-graph time-queries.
func BenchmarkMatrixRows(b *testing.B) {
	for _, pn := range pointNets {
		n, err := Generate(pn.family, pn.scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		pairs := pointPairs(n, 32)
		sources, targets := make([]StationID, 16), make([]StationID, 16)
		for i := range sources {
			sources[i], targets[i] = StationID(pairs[i][0]), StationID(pairs[16+i][1])
		}
		name := fmt.Sprintf("%s-%g", pn.family, pn.scale)
		b.Run(name+"/target-set", func(b *testing.B) {
			var settled int64
			for i := 0; i < b.N; i++ {
				res, err := n.Plan(context.Background(), Request{Kind: KindMatrix, Sources: sources, Targets: targets, Depart: 480})
				if err != nil {
					b.Fatal(err)
				}
				settled += res.Stats().SettledConnections
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
		b.Run(name+"/whole-graph", func(b *testing.B) {
			ws := core.NewWorkspace()
			var settled int64
			for i := 0; i < b.N; i++ {
				for _, s := range sources {
					tq, err := ws.TimeQuery(n.g, s, 480, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					for _, t := range targets {
						sinkTicks += tq.StationArrival(t)
					}
					settled += tq.Run.Total.SettledConns
				}
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
	}
}

var sinkTicks Ticks

// BenchmarkChurnMixTableVsBare prices the distance table on serve_churn's
// reads: that workload's network (europe 0.25 from the benchmark module's
// dataset seed 2010, a 5 % contraction table of 18 rows) under its 8:1:1
// arrival:journey:profile mix of uniform station pairs and departure
// minutes, answered by Plan at one thread with the table and without it —
// what a replica serves between a delay batch and the rebuilt table. Each
// read is timed on its own; the rows report every kind's median and the
// mix's 95th percentile in microseconds.
func BenchmarkChurnMixTableVsBare(b *testing.B) {
	bare, err := Generate("europe", 0.25, 2010)
	if err != nil {
		b.Fatal(err)
	}
	table, _, err := bare.Preprocess(TransferSelection{Fraction: 0.05}, Options{PreprocessWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%d stations, %d table rows", bare.NumStations(), table.table.NumTransfer())
	rng := rand.New(rand.NewSource(16))
	ns := bare.NumStations()
	reqs := make([]Request, 1024)
	for i := range reqs {
		from, to := rng.Intn(ns), rng.Intn(ns-1)
		if to >= from {
			to++
		}
		r := Request{Kind: KindProfile, From: StationID(from), To: StationID(to), Options: Options{Threads: 1}}
		if x := rng.Intn(10); x < 9 {
			r.Kind = KindEarliestArrival
			if x == 8 {
				r.Kind = KindJourney
			}
			r.Depart = Ticks(rng.Intn(1440))
		}
		reqs[i] = r
	}
	us := func(ds []time.Duration, q float64) float64 {
		slices.Sort(ds)
		return float64(ds[int(q*float64(len(ds)-1))]) / float64(time.Microsecond)
	}
	for _, tc := range []struct {
		name string
		n    *Network
	}{{"table", table}, {"bare", bare}} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := context.Background()
			byKind := map[Kind][]time.Duration{}
			all := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				r := reqs[i%len(reqs)]
				start := time.Now()
				_, err := tc.n.Plan(ctx, r)
				d := time.Since(start)
				if err != nil && ErrorCodeOf(err) != CodeUnreachable {
					b.Fatal(err)
				}
				byKind[r.Kind] = append(byKind[r.Kind], d)
				all = append(all, d)
			}
			for kind, ds := range byKind {
				b.ReportMetric(us(ds, 0.5), string(kind)+"-p50-us")
			}
			b.ReportMetric(us(all, 0.95), "mix-p95-us")
		})
	}
}

// BenchmarkPlanPoint is the micro-row of the two point kinds through Plan:
// earliest-arrival and journey, without and with a distance table, over a
// fixed seeded pair list with a reused Result.
func BenchmarkPlanPoint(b *testing.B) {
	for _, pn := range pointNets {
		plain, err := Generate(pn.family, pn.scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		pre, _, err := plain.Preprocess(TransferSelection{Fraction: 0.1}, Options{})
		if err != nil {
			b.Fatal(err)
		}
		pairs := pointPairs(plain, 256)
		for _, kind := range []Kind{KindEarliestArrival, KindJourney} {
			for _, tc := range []struct {
				name string
				n    *Network
			}{{"no-table", plain}, {"table", pre}} {
				b.Run(fmt.Sprintf("%s-%g/%s/%s", pn.family, pn.scale, kind, tc.name), func(b *testing.B) {
					ctx := context.Background()
					var reuse Result
					var settled int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						p := pairs[i%len(pairs)]
						res, err := tc.n.Plan(ctx, Request{Kind: kind, From: StationID(p[0]), To: StationID(p[1]), Depart: Ticks(p[2]), Reuse: &reuse})
						if err != nil {
							if ErrorCodeOf(err) == CodeUnreachable {
								continue
							}
							b.Fatal(err)
						}
						settled += res.Stats().SettledConnections
					}
					b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
				})
			}
		}
	}
}

// BenchmarkPlanPareto is the row of the multi-criteria kind through Plan:
// one-to-all Pareto profiles under transfer budgets 2 and 5 from a fixed
// seeded list of 40 sources, on losangeles and europe at scale 0.1.
func BenchmarkPlanPareto(b *testing.B) {
	for _, family := range []string{"losangeles", "europe"} {
		n, err := Generate(family, 0.1, 1)
		if err != nil {
			b.Fatal(err)
		}
		pairs := pointPairs(n, 40)
		for _, budget := range []int{2, 5} {
			b.Run(fmt.Sprintf("%s-0.1/u%d", family, budget), func(b *testing.B) {
				ctx := context.Background()
				var reuse Result
				var settled int64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					src := StationID(pairs[i%len(pairs)][0])
					res, err := n.Plan(ctx, Request{Kind: KindPareto, From: src, MaxTransfers: budget, Reuse: &reuse})
					if err != nil {
						b.Fatal(err)
					}
					settled += res.Stats().SettledConnections
				}
				b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
			})
		}
	}
}

// bootNets are the networks of the two workloads whose set-up a snapshot
// boot dominates: serve_hot's (losangeles 0.1, 10 % table) and s2s_table's
// (europe 0.5, deg > 2 table), from the benchmark module's dataset seed.
var bootNets = []struct {
	family string
	scale  float64
	sel    TransferSelection
}{
	{"losangeles", 0.1, TransferSelection{Fraction: 0.10}},
	{"europe", 0.5, TransferSelection{MinDegree: 2}},
}

// BenchmarkBoot times the construction path every ready server runs, one
// stage per row: Generate (the synthetic timetable, validated and indexed),
// NewNetwork (time-dependent graph and station graph), Preprocess (the
// distance table, on one worker as in benchmark/), WriteSnapshot and
// LoadSnapshot of the preprocessed network (LoadSnapshot rebuilds the
// time-dependent graph, so its row contains one graph build). A server
// booting with -snapshot pays the last row instead of the first three.
func BenchmarkBoot(b *testing.B) {
	for _, bn := range bootNets {
		cfg, err := gen.FamilyConfig(gen.Family(bn.family), bn.scale, 2010)
		if err != nil {
			b.Fatal(err)
		}
		tt, err := gen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pre, _, err := NewNetwork(tt).Preprocess(bn.sel, Options{PreprocessWorkers: 1})
		if err != nil {
			b.Fatal(err)
		}
		var img bytes.Buffer
		if err := pre.WriteSnapshot(&img); err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("%s-%g", bn.family, bn.scale)
		b.Run(name+"/Generate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/NewNetwork", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewNetwork(tt)
			}
		})
		b.Run(name+"/Preprocess", func(b *testing.B) {
			b.ReportAllocs()
			n := NewNetwork(tt)
			for i := 0; i < b.N; i++ {
				if _, _, err := n.Preprocess(bn.sel, Options{PreprocessWorkers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/WriteSnapshot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := pre.WriteSnapshot(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/LoadSnapshot", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(img.Len()))
			for i := 0; i < b.N; i++ {
				if _, _, err := LoadSnapshot(bytes.NewReader(img.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
