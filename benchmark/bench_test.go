package main

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"transit"
)

// The smoke tests run every workload for a second at toy scale: they pin the
// benchmark's contract (metric names, units, determinism, that verification
// catches a wrong answer), not any number.

var tinyBus = netSpec{family: "oahu", scale: 0.1}
var tinyTable = netSpec{family: "oahu", scale: 0.1, sel: transit.TransferSelection{Fraction: 0.2}}

func tinyWorkloads() []workload {
	dense, table, hot, churn := *onetoallDense, *s2sTable, *serveHot, *serveChurn
	dense.spec, dense.sample, dense.lcCheck = tinyBus, 8, 4
	table.spec, table.sample, table.lcCheck = tinyTable, 20, 20
	hot.spec, hot.rate, hot.prewarm, hot.maxOracle = tinyTable, 200, 100, 60
	churn.spec, churn.rate, churn.batchEvery, churn.maxOracle = tinyTable, 100, 200*time.Millisecond, 60
	return []workload{&dense, &table, &hot, &churn}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.procs.stopAll)
	return e
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestDeclaredMetricNames(t *testing.T) {
	e := testEnv(t)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, e.decl.EndToEnd...), e.decl.PerLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name())
	}
	var declared []string
	for _, w := range e.decl.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declared, ",") {
		t.Errorf("BENCHMARK.json names workloads %v, the program has %v", declared, names)
	}
}

// Every workload, untraced and traced, emits exactly the declared metrics
// with their units, fails nothing, and leaves end-to-end metrics non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	e := testEnv(t)
	for _, w := range tinyWorkloads() {
		out, err := w.run(e, 3, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		if err := conform(out.m, e.decl.EndToEnd, false); err != nil {
			t.Errorf("%s: %v", w.name(), err)
		}
		if out.failed != 0 || out.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", w.name(), out.failed, out.attempted, out.firstErr)
		}
		for name, m := range out.m {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name(), name)
			}
		}

		out, err = w.trace(e, 3, 1)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name(), err)
		}
		if err := conform(out.m, e.decl.PerLayer, true); err != nil {
			t.Errorf("%s traced: %v", w.name(), err)
		}
		if out.failed != 0 {
			t.Errorf("%s traced: %d operations failed: %s", w.name(), out.failed, out.firstErr)
		}
	}
}

func TestSeedsReproduceInputs(t *testing.T) {
	trains := []string{"a", "b", "c", "d", "e"}
	gens := map[string]func(seed int64) uint64{
		"sources": func(s int64) uint64 { return hashQueries(genSources(s, 200)) },
		"pairs":   func(s int64) uint64 { return hashQueries(genPairs(s, 500, 200)) },
		"hot":     func(s int64) uint64 { return hashQueries(genHot(s, 500, 200)) },
		"cold":    func(s int64) uint64 { return hashQueries(genCold(s, 500, 200)) },
		"batches": func(s int64) uint64 { return hashBatches(drawBatches(rngFor(s, "batches"), 40, trains, 7)) },
	}
	for name, g := range gens {
		if g(7) != g(7) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if g(7) == g(8) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
	for _, b := range drawBatches(rngFor(7, "batches"), 40, trains, 7) {
		if len(b.Ops) < 1 || len(b.Ops) > 3 || b.Ops[0].Train == "" || len(b.Ops) != len(b.Wire.Ops) {
			t.Fatalf("malformed batch %+v", b)
		}
	}
}

// The counts marked ⓒ in README.md repeat exactly for a seed at one thread.
func TestCountsRepeat(t *testing.T) {
	n, _, err := tinyTable.build(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	list := genPairs(5, 64, n.NumStations())
	batches := genBatches(5, 6, n)
	measure := func() metrics {
		m := metrics{}
		p, err := takeApart(n, nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := coreProbe(p, n, list, len(list), 2, nil, m); err != nil {
			t.Fatal(err)
		}
		if err := updateReplay(n, p, batches, tinyTable.sel, t.TempDir(), nil, m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := measure(), measure()
	for _, name := range []string{"core.settled_per_query", "core.queue_ops_per_query", "core.relaxed_per_query",
		"core.pruned_frac", "transit.touched_per_batch", "wal.bytes_per_batch", "snapshot.bytes"} {
		if a[name].Value != b[name].Value || a[name].Value == 0 {
			t.Errorf("%s: %v then %v", name, a[name].Value, b[name].Value)
		}
	}
}

func TestVerificationCatchesWrongAnswers(t *testing.T) {
	n, _, err := tinyTable.build(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	list := genPairs(9, 32, n.NumStations())
	_, recs, _, err := planLoop(n, list, 0, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := verifyInproc(n, list, recs, 9, 32, 32, 2); v.failed != 0 || v.oracle == 0 {
		t.Fatalf("clean answers: %d failed of %d checked (%s)", v.failed, v.checked, v.firstErr)
	}
	recs[0].digest ^= 1
	if v := verifyInproc(n, list, recs, 9, 32, 32, 2); v.failed == 0 {
		t.Error("a corrupted in-process answer went unnoticed")
	}

	// The HTTP side, on answers rendered exactly as the server would.
	reads := genCold(9, 40, n.NumStations())
	shots := make([]shot, len(reads))
	for i, q := range reads {
		status, body, err := answer(n, q)
		if err != nil {
			t.Fatal(err)
		}
		shots[i] = shot{qi: i, status: status, body: body}
	}
	models := []*transit.Network{n}
	if v := verifyHTTP(models, reads, shots, 9, len(reads), 2, nil); v.failed != 0 || v.oracle == 0 {
		t.Fatalf("clean HTTP answers: %d failed (%s)", v.failed, v.firstErr)
	}
	for i := range shots {
		if shots[i].status == 200 && reads[i].Kind == transit.KindEarliestArrival {
			shots[i].body = []byte(strings.Replace(string(shots[i].body), `"minutes":`, `"minutes":1`, 1))
			break
		}
	}
	if v := verifyHTTP(models, reads, shots, 9, len(reads), 2, nil); v.failed == 0 {
		t.Error("a corrupted HTTP answer went unnoticed")
	}
}
