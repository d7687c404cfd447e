package transit

// Benchmarks regenerating the paper's evaluation (README "Benchmarks" is
// the experiment index). One benchmark per table and per ablation:
//
//	BenchmarkTable1OneToAll/<family>/CS-p<N>   — Table 1 rows (CS, 1–8 cores)
//	BenchmarkTable1OneToAll/<family>/LC        — Table 1 LC baseline rows
//	BenchmarkTable2StationToStation/<family>/<selection> — Table 2 rows
//	BenchmarkAblation*                          — design-choice ablations
//
// The per-op metrics reported via b.ReportMetric mirror the paper's
// columns: settled connections per query and (for parallel runs) the
// critical-path work that determines achievable speed-up.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"transit/internal/bench"
	"transit/internal/core"
	"transit/internal/timetable"
)

// benchScale keeps `go test -bench=.` under a few minutes on one core
// while preserving the workload shape; cmd/tpbench -scale raises it.
const benchScale = 0.12

var benchNets = map[string]*bench.Network{}

func benchNet(b *testing.B, family string) *bench.Network {
	b.Helper()
	if n, ok := benchNets[family]; ok {
		return n
	}
	n, err := bench.Load(family, benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchNets[family] = n
	return n
}

func benchSources(net *bench.Network, n int) []timetable.StationID {
	out := make([]timetable.StationID, n)
	for i := range out {
		out[i] = timetable.StationID((i * 7919) % net.TT.NumStations())
	}
	return out
}

// BenchmarkTable1OneToAll regenerates Table 1: one-to-all profile queries
// with the connection-setting algorithm on 1, 2, 4 and 8 threads, and the
// label-correcting baseline.
func BenchmarkTable1OneToAll(b *testing.B) {
	for _, family := range bench.Families() {
		b.Run(family, func(b *testing.B) {
			net := benchNet(b, family)
			sources := benchSources(net, 16)
			for _, p := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("CS-p%d", p), func(b *testing.B) {
					var settled, critical int64
					for i := 0; i < b.N; i++ {
						res, err := core.OneToAll(net.G, sources[i%len(sources)], core.Options{Threads: p})
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
					res, err := core.LabelCorrecting(net.G, sources[i%len(sources)], core.Options{})
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

// BenchmarkTable2StationToStation regenerates Table 2: station-to-station
// profile queries with the stopping criterion and distance tables of
// varying size.
func BenchmarkTable2StationToStation(b *testing.B) {
	for _, family := range bench.Families() {
		b.Run(family, func(b *testing.B) {
			net := benchNet(b, family)
			sources := benchSources(net, 32)
			for _, sel := range bench.PaperSelections(false) {
				b.Run(selName(sel.Label), func(b *testing.B) {
					env := core.QueryEnv{Graph: net.G}
					if sel.Fraction > 0 || sel.MinDegree > 0 {
						var marked []bool
						if sel.MinDegree > 0 {
							marked = net.SG.SelectByDegree(sel.MinDegree)
						} else {
							keep := int(float64(net.TT.NumStations()) * sel.Fraction)
							if keep < 1 {
								keep = 1
							}
							marked = net.SG.SelectByContraction(keep)
						}
						pre, err := core.BuildDistanceTable(net.G, marked, core.Options{}, 1)
						if err != nil {
							b.Fatal(err)
						}
						env.StationGraph = net.SG
						env.Table = pre.Table
					}
					b.ReportAllocs()
					b.ResetTimer()
					var settled int64
					for i := 0; i < b.N; i++ {
						src := sources[i%len(sources)]
						dst := sources[(i+5)%len(sources)]
						if src == dst {
							dst = timetable.StationID((int(dst) + 1) % net.TT.NumStations())
						}
						res, err := core.StationToStation(env, src, dst, core.QueryOptions{})
						if err != nil {
							b.Fatal(err)
						}
						settled += res.Run.Total.SettledConns
					}
					b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
				})
			}
		})
	}
}

func selName(label string) string {
	switch label {
	case "deg > 2":
		return "deg2"
	default:
		return "frac" + label
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
				res, err := core.OneToAll(net.G, sources[i%len(sources)], core.Options{DisableSelfPruning: disable})
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
				res, err := core.OneToAll(net.G, sources[i%len(sources)], core.Options{Threads: 4, Partition: strat})
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
	env := core.QueryEnv{Graph: net.G}
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
					dst = timetable.StationID((int(dst) + 1) % net.TT.NumStations())
				}
				res, err := core.StationToStation(env, src, dst, core.QueryOptions{DisableStoppingCriterion: disable})
				if err != nil {
					b.Fatal(err)
				}
				settled += res.Run.Total.SettledConns
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
	}
}

// BenchmarkApplyDelays compares the two dynamic-update paths on a delay
// batch of roughly 100 connections (one route class of the benchmark
// network): ApplyDelays — the seed's full rebuild with re-validation, route
// re-derivation and complete index reconstruction — against ApplyUpdates,
// the incremental copy-on-write patch behind internal/live. The gap is the
// per-update cost a live server saves on every delay message.
func BenchmarkApplyDelays(b *testing.B) {
	net := benchNet(b, "washington")
	n := transitNetwork(net)
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
			if _, _, err := n.ApplyDelays(7, func(ci ConnectionInfo) bool { return ci.Route == route }); err != nil {
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

// transitNetwork wraps a bench network's timetable as a public Network.
func transitNetwork(net *bench.Network) *Network { return NewNetwork(net.TT) }

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
	b.Run("EarliestArrival", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := n.EarliestArrival(0, StationID(1+i%(n.NumStations()-1)), 480, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Profile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := n.Profile(0, StationID(1+i%(n.NumStations()-1)), Options{}); err != nil {
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
	env := core.QueryEnv{Graph: net.G}
	// The effort-tracked mode runs the same pooled-workspace loop with an
	// attached core.Effort counter block — the observability contract is
	// that tracing a query costs zero allocations, so its allocs/op column
	// must read identically to pooled-workspace.
	for _, mode := range []string{"pooled-workspace", "effort-tracked", "detached"} {
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
					dst = timetable.StationID((int(dst) + 1) % net.TT.NumStations())
				}
				var err error
				var res *core.StationQueryResult
				if mode == "detached" {
					// Package-level wrapper: pools the search arrays but
					// detaches (copies) the O(k) result vectors.
					res, err = core.StationToStation(env, src, dst, opts)
				} else {
					res, err = ws.StationToStation(env, src, dst, opts)
				}
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
	sched := core.NewConnectionScan(net.TT)
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
			if _, err := core.TimeQuery(net.G, sources[i%len(sources)], 480, core.Options{}); err != nil {
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
