// Command tpbench regenerates the paper's evaluation tables on synthetic
// analogues of its five inputs (the internal/gen package comment gives the
// substitution rationale, README "Benchmarks" the experiment index).
//
//	tpbench -table 1                 # Table 1: one-to-all, CS vs LC, 1–8 cores
//	tpbench -table 2                 # Table 2: station-to-station + distance tables
//	tpbench -ablation partition      # partition-strategy balance
//	tpbench -ablation self-pruning   # Theorem 1 work reduction
//	tpbench -ablation stopping       # Theorem 2 work reduction
//	tpbench -ablation pareto         # multi-criteria extension cost
//
// -families, -scale, -queries and -threads bound the run; defaults keep the
// full harness under a few minutes on a single core. Serving-path numbers
// (a live tpserver under load) come from benchmark/, not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"transit/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "paper table to regenerate (1 or 2)")
	ablation := flag.String("ablation", "", "ablation to run: partition|self-pruning|stopping|pareto")
	familiesFlag := flag.String("families", strings.Join(bench.Families(), ","), "comma-separated families")
	scale := flag.Float64("scale", 0.25, "network scale (1.0 = gen.FamilyConfig defaults; 0.25 keeps runs fast)")
	queries := flag.Int("queries", 10, "queries per configuration")
	threads := flag.Int("threads", 8, "threads for Table 2 queries")
	seed := flag.Int64("seed", 1, "workload seed")
	full := flag.Bool("full", false, "include the 30% selection row in Table 2")
	flag.Parse()

	families := strings.Split(*familiesFlag, ",")
	switch {
	case *table == 1:
		for _, fam := range families {
			net := load(fam, *scale, *seed)
			rows, err := bench.Table1(net, []int{1, 2, 4, 8}, *queries, *seed, true)
			check(err)
			bench.PrintTable1(os.Stdout, rows)
			fmt.Println()
		}
	case *table == 2:
		for _, fam := range families {
			net := load(fam, *scale, *seed)
			rows, err := bench.Table2(net, bench.PaperSelections(*full), *queries, *threads, *seed)
			check(err)
			bench.PrintTable2(os.Stdout, rows)
			fmt.Println()
		}
	case *ablation != "":
		for _, fam := range families {
			net := load(fam, *scale, *seed)
			var rows []bench.AblationRow
			var err error
			switch *ablation {
			case "partition":
				rows, err = bench.AblationPartition(net, 4, *queries, *seed)
			case "self-pruning":
				rows, err = bench.AblationSelfPruning(net, *queries, *seed)
			case "stopping":
				rows, err = bench.AblationStopping(net, *queries, *seed)
			case "pareto":
				rows, err = bench.AblationPareto(net, []int{2, 4, 8}, *queries, *seed)
			default:
				check(fmt.Errorf("unknown ablation %q", *ablation))
			}
			check(err)
			bench.PrintAblation(os.Stdout, *ablation, rows)
			fmt.Println()
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func load(family string, scale float64, seed int64) *bench.Network {
	net, err := bench.Load(strings.TrimSpace(family), scale, seed)
	check(err)
	fmt.Printf("# %s: %v\n", family, net.TT.Stats())
	return net
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpbench:", err)
		os.Exit(1)
	}
}
