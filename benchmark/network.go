package main

import (
	"fmt"
	"time"

	"transit"
	"transit/internal/gen"
)

// datasetSeed fixes the synthetic networks: a workload's network is its data
// set and stays the same across runs, while --seed drives the traffic (query
// lists and delay batches). Varying the network with the seed would put the
// spread between two topologies into every latency metric.
const datasetSeed = 2010

// netSpec names a workload's network: a generator family and scale, and the
// transfer-station selection of its distance table (zero value: no table).
type netSpec struct {
	family string
	scale  float64
	sel    transit.TransferSelection
}

func (s netSpec) hasTable() bool { return s.sel.MinDegree > 0 || s.sel.Fraction > 0 }

func (s netSpec) String() string {
	switch {
	case s.sel.MinDegree > 0:
		return fmt.Sprintf("%s scale %g, table deg>%d", s.family, s.scale, s.sel.MinDegree)
	case s.sel.Fraction > 0:
		return fmt.Sprintf("%s scale %g, table %g%%", s.family, s.scale, 100*s.sel.Fraction)
	}
	return fmt.Sprintf("%s scale %g, no table", s.family, s.scale)
}

// buildStages are the wall times of one network build, by layer.
type buildStages struct {
	generate   time.Duration // gen.Generate
	newNetwork time.Duration // graph.Build + stationgraph.Build inside NewNetwork
	preprocess time.Duration // distance table
	pre        *transit.PreprocessStats
}

// build generates the network and, when the spec has one, its distance
// table, on one worker. This sandbox's two virtual CPUs do not reliably run
// in parallel: the same table took 1.9 s on two workers in one process and
// 3.3 s (the one-worker time) in the next, which no number of repeats inside
// a run averages out. One worker takes 3.4 s ± 4 %.
func (s netSpec) build(tr *tracer, parent int) (*transit.Network, buildStages, error) {
	var st buildStages
	cfg, err := gen.FamilyConfig(gen.Family(s.family), s.scale, datasetSeed)
	if err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	_, end := tr.begin("gen.Generate", parent, 0)
	tt, err := gen.Generate(cfg)
	end()
	if err != nil {
		return nil, st, err
	}
	st.generate = time.Since(t0)

	t0 = time.Now()
	_, end = tr.begin("transit.NewNetwork", parent, 0)
	n := transit.NewNetwork(tt)
	end()
	st.newNetwork = time.Since(t0)

	if s.hasTable() {
		t0 = time.Now()
		_, end = tr.begin("transit.Preprocess", parent, 0)
		n, st.pre, err = n.Preprocess(s.sel, transit.Options{PreprocessWorkers: 1})
		end()
		if err != nil {
			return nil, st, err
		}
		st.preprocess = time.Since(t0)
	}
	return n, st, nil
}
