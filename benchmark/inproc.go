package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"transit"
)

// inproc is an in-process workload: one caller in a closed loop over a
// seeded query list, straight into Network.Plan at one thread. The
// sandbox's two virtual CPUs do not reliably run in parallel (see
// netSpec.build), so a wall time at Threads = nproc moves by a third with the
// host's mood; what parallel search gains and loses is measured by the traced
// run (coreProbe), where the counts behind it repeat exactly.
type inproc struct {
	id      string
	spec    netSpec
	list    func(seed int64, stations int) []query
	sloMS   float64 // latency limit of slo_met_frac
	sample  int     // distinct queries re-derived by connection scan
	lcCheck int     // of those, how many also by label-correcting search
}

// onetoallDense is the paper's Table 1: one-to-all profile search on a dense
// bus network from every station in turn, in seeded order, so every pass
// over the list does the same work whatever the seed. The settle loop and
// the queue do nearly all the work; no distance table exists, and no HTTP.
var onetoallDense = &inproc{
	id:      "onetoall_dense",
	spec:    netSpec{family: "losangeles", scale: 0.2},
	list:    func(seed int64, stations int) []query { return genSources(seed, stations) },
	sloMS:   95,
	sample:  64,
	lcCheck: 12,
}

// s2sTable is the paper's Table 2 best case: station-to-station profiles
// between uniform random pairs on a rail network whose distance table covers
// every station of degree > 2, one thread as the server runs them. Via
// computation, table look-ups and the prunings dominate; the settle loop is
// a few thousand labels.
var s2sTable = &inproc{
	id:      "s2s_table",
	spec:    netSpec{family: "europe", scale: 0.5, sel: transit.TransferSelection{MinDegree: 2}},
	list:    func(seed int64, stations int) []query { return genPairs(seed, 4096, stations) },
	sloMS:   7,
	sample:  200,
	lcCheck: 200,
}

func (w *inproc) name() string { return w.id }

// planLoop answers list[start], list[start+1], … (cyclically), one at a time,
// for d. Each Plan call is timed alone; the digest of its answer is taken
// outside the timed interval.
func planLoop(n *transit.Network, list []query, start int, d time.Duration, tr *tracer) (lat []float64, recs []record, next int, err error) {
	ctx := context.Background()
	i := start
	for begin := time.Now(); time.Since(begin) < d; i++ {
		qi := i % len(list)
		req := list[qi].request()
		_, end := tr.begin("transit.Plan", 0, i+1)
		t0 := time.Now()
		res, err := n.Plan(ctx, req)
		el := time.Since(t0)
		end()
		if err != nil {
			return nil, nil, i, fmt.Errorf("Plan(%+v): %w", list[qi], err)
		}
		dg, err := digestResult(n, res)
		if err != nil {
			return nil, nil, i, err
		}
		lat = append(lat, ms(el))
		recs = append(recs, record{qi: int32(qi), digest: dg})
	}
	return lat, recs, i, nil
}

// moreSetups says whether set-up should be measured again: at least three
// times, and for a cheap set-up until a second and a half has gone into it
// (21 times at most), so that the median of a short set-up is as steady as
// that of a long one.
func moreSetups(done []float64) bool {
	total := 0.0
	for _, s := range done {
		total += s
	}
	return len(done) < 3 || (total < 1.5 && len(done) < 21)
}

func (st buildStages) total() time.Duration { return st.generate + st.newNetwork + st.preprocess }

func (w *inproc) run(e *env, seed int64, seconds float64) (*outcome, error) {
	n, st, err := w.spec.build(nil, 0)
	if err != nil {
		return nil, err
	}
	setups := []float64{st.total().Seconds()}
	list := w.list(seed, n.NumStations())

	// Warm-up: the workspace pool grows its arrays on the first queries.
	_, _, next, err := planLoop(n, list, 0, secs(seconds/10), nil)
	if err != nil {
		return nil, err
	}
	lat, recs, _, err := planLoop(n, list, next, secs(seconds), nil)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}

	// Set-up is measured again after the timed phase, so the repeats' garbage
	// is not in its peak RSS, and the median reported.
	for moreSetups(setups) {
		_, st, err := w.spec.build(nil, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st.total().Seconds())
	}

	v := verifyInproc(n, list, recs, seed, w.sample, w.lcCheck, e.nproc)

	out := &outcome{attempted: len(recs), failed: v.failed, firstErr: v.firstErr, m: metrics{}}
	s := sorted(lat)
	within := 0
	for _, l := range lat {
		if l <= w.sloMS {
			within++
		}
	}
	if within -= v.failed; within < 0 {
		within = 0
	}
	out.m.set("setup_s", median(setups), "s")
	out.m.set("query_p50_ms", quantile(s, 0.50), "ms")
	out.m.set("query_p95_ms", quantile(s, 0.95), "ms")
	out.m.set("slo_met_frac", float64(within)/float64(len(lat)), "frac")
	out.m.set("peak_rss_mib", rss, "MiB")
	out.infof("network: %s; %s", w.spec, n.Stats())
	out.infof("closed loop, one caller, Threads=1, %d-query list; %d samples, throughput_qps %.4f, slo_ms=%g",
		len(list), len(lat), 1000/mean(lat), w.sloMS)
	out.infof("query_p99_ms %.4f (n=%d), max %.4f", quantile(s, 0.99), len(s), s[len(s)-1])
	out.infof("setup_s runs: %.4f", setups)
	out.infof("verified: %d answers checked, %d distinct queries re-derived by connection scan, %d of them by label-correcting search, %d wrong",
		v.checked, v.oracle, min(v.oracle, w.lcCheck), v.failed)
	return out, nil
}
