package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"transit"
	apiv1 "transit/api/v1"
	"transit/internal/obs"
)

// serve is an HTTP workload: tpserver processes built from the tree, driven
// over /v1 by this process.
type serve struct {
	id   string
	spec netSpec
	gen  func(seed int64, n, stations int) []query
	// rate is the fixed open-loop rate in requests per second and sloMS the
	// latency limit of slo_met_frac. Both were set once on the seed commit
	// (README.md says how) and are never re-calibrated at run time.
	rate  float64
	sloMS float64
	// churn selects the updater + replica arrangement with a delay batch to
	// the updater every batchEvery; otherwise one server, no writes.
	churn      bool
	batchEvery time.Duration
	// prewarm is how many reads are sent back to back, untimed, before the
	// open loop starts: it takes several thousand zipf draws before two
	// thirds of the next ones repeat a key the cache already holds.
	prewarm int
	// closedShare is the part of a traced copy spent in the closed-loop
	// throughput phase; an untraced run is all open loop.
	closedShare float64
	// maxOracle bounds the distinct model answers verification computes.
	maxOracle int
}

// serveHot is one tpserver booted from a snapshot, all flags default, under
// zipf-skewed reads: two thirds of the requests hit the epoch cache, so
// HTTP decode and encode, api/v1, the cache and the gate carry the latency
// and the search is a minority.
var serveHot = &serve{
	id:          "serve_hot",
	spec:        netSpec{family: "losangeles", scale: 0.10, sel: transit.TransferSelection{Fraction: 0.10}},
	gen:         genHot,
	rate:        350,
	sloMS:       38,
	prewarm:     3000,
	closedShare: 0.3,
	maxOracle:   1500,
}

// serveChurn is the README deployment: an updater with persistence and a
// write-ahead journal, one replica following it. Reads with a key space far
// beyond the cache go to the replica while delay batches go to the updater,
// so nearly every read searches, every batch bumps the epoch, drops the
// table until the background repair lands and empties the cache.
var serveChurn = &serve{
	id:          "serve_churn",
	spec:        netSpec{family: "europe", scale: 0.25, sel: transit.TransferSelection{Fraction: 0.05}},
	gen:         genCold,
	rate:        75,
	sloMS:       38,
	churn:       true,
	batchEvery:  500 * time.Millisecond,
	closedShare: 0.4,
	maxOracle:   600,
}

func (w *serve) name() string { return w.id }

// stack is one booted arrangement of a serve workload.
type stack struct {
	net     *transit.Network // what the snapshot holds: the model at epoch 0
	dir     string
	front   *server // answers the reads: the only server, or the replica
	updater *server // serve_churn's updater; nil otherwise

	build buildStages
	boot  time.Duration // process start → /readyz 200, first server
	total time.Duration
}

func (st *stack) servers() []*server {
	if st.updater != nil {
		return []*server{st.updater, st.front}
	}
	return []*server{st.front}
}

// down stops the servers (recording their peak RSS) and removes the files.
func (st *stack) down() {
	// The replica first, or its follower logs a broken stream on the way out.
	st.front.stop()
	if st.updater != nil {
		st.updater.stop()
	}
	os.RemoveAll(st.dir)
}

func (st *stack) peakRSSMiB() float64 {
	sum := 0.0
	for _, s := range st.servers() {
		sum += s.peakMiB
	}
	return sum
}

// up does the whole set-up a user of the workload would wait for: generate
// the network, build its query structures and distance table, write the
// snapshot, start the server(s) and wait until they report ready.
func (w *serve) up(e *env, bin string, client *http.Client, tr *tracer) (*stack, error) {
	t0 := time.Now()
	root, endRoot := tr.begin("setup", 0, 0)
	defer endRoot()
	st := &stack{}
	var err error
	if st.dir, err = e.tempDir(); err != nil {
		return nil, err
	}
	if st.net, st.build, err = w.spec.build(tr, root); err != nil {
		return nil, err
	}

	snap := filepath.Join(st.dir, "base.snap")
	_, end := tr.begin("snapshot.Write", root, 0)
	err = writeSnapshot(st.net, snap)
	end()
	if err != nil {
		return nil, err
	}

	args := []string{"-snapshot", snap}
	if w.churn {
		args = append(args, "-persist", filepath.Join(st.dir, "state.snap"),
			"-repreprocess", "async", "-preprocess", fmt.Sprint(w.spec.sel.Fraction))
	}
	_, end = tr.begin("tpserver.boot", root, 0)
	first, err := e.startServer(bin, args...)
	if err == nil {
		st.boot, err = first.waitReady(client, time.Minute)
	}
	end()
	if err != nil {
		return nil, err
	}
	st.front = first
	if w.churn {
		st.updater = first
		_, end = tr.begin("tpserver.boot_replica", root, 0)
		st.front, err = e.startServer(bin, "-follow", first.base, "-preprocess", fmt.Sprint(w.spec.sel.Fraction))
		if err == nil {
			_, err = st.front.waitReady(client, time.Minute)
		}
		end()
		if err != nil {
			return nil, err
		}
	}
	st.total = time.Since(t0)
	return st, nil
}

func writeSnapshot(n *transit.Network, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := n.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// write is one delay batch's journey: posted to the updater, acked with its
// epoch, seen on the replica.
type write struct {
	sent    time.Duration
	acked   time.Duration
	visible time.Duration
	err     error
}

// writer posts one batch every interval and, after each ack, polls the
// replica until it reports the acked epoch.
type writer struct {
	client   *http.Client
	updater  string
	replica  string
	batches  []batch
	interval time.Duration
	// posted counts batches sent, visible is the last epoch seen on the
	// replica; the read workers stamp their shots with both.
	posted, visible atomic.Uint64
	lag             uint64 // largest lag_epochs a poll saw
	writes          []write
}

func (wr *writer) run(start time.Time, stop <-chan struct{}) {
	for i := range wr.batches {
		due := time.Duration(i) * wr.interval
		select {
		case <-stop:
			return
		case <-time.After(due - time.Since(start)):
		}
		body, _ := json.Marshal(wr.batches[i].Wire)
		w := write{sent: time.Since(start)}
		wr.posted.Add(1)
		epoch, err := wr.post(body)
		w.acked = time.Since(start)
		if err == nil && epoch != uint64(i+1) {
			err = fmt.Errorf("batch %d acked as epoch %d", i+1, epoch)
		}
		if err == nil {
			err = wr.awaitVisible(epoch, 10*time.Second)
			w.visible = time.Since(start)
		}
		w.err = err
		wr.writes = append(wr.writes, w)
		if err != nil {
			return // the epoch sequence is broken: later batches would only repeat the failure
		}
	}
}

func (wr *writer) post(body []byte) (uint64, error) {
	resp, err := wr.client.Post(wr.updater+"/delays", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /delays: %s: %.200s", resp.Status, b)
	}
	var ack struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(b, &ack); err != nil {
		return 0, err
	}
	return ack.Epoch, nil
}

func (wr *writer) awaitVisible(epoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := replicationStatus(wr.client, wr.replica)
		if err != nil {
			return err
		}
		if st.LagEpochs > wr.lag {
			wr.lag = st.LagEpochs
		}
		if st.Epoch >= epoch {
			wr.visible.Store(st.Epoch)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica still at epoch %d, %v after epoch %d was acked", st.Epoch, timeout, epoch)
		}
		time.Sleep(time.Millisecond)
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func replicationStatus(client *http.Client, base string) (apiv1.ReplicationStatus, error) {
	var st apiv1.ReplicationStatus
	err := getJSON(client, base+"/v1/replication/status", &st)
	return st, err
}

// tableSampler asks a server's /version every 20 ms whether the snapshot it
// serves carries a distance table: reads run unpruned while it does not.
type tableSampler struct {
	samples, present int
}

func (ts *tableSampler) run(client *http.Client, base string, stop <-chan struct{}) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		var v struct {
			Preprocessed bool `json:"preprocessed"`
		}
		if getJSON(client, base+"/version", &v) == nil {
			ts.samples++
			if v.Preprocessed {
				ts.present++
			}
		}
	}
}

func scrape(client *http.Client, base string) (*obs.Exposition, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.Parse(resp.Body)
}

// counterDelta is after − before of a /metrics counter.
func counterDelta(before, after *obs.Exposition, name string) float64 {
	b, _ := before.Value(name)
	a, _ := after.Value(name)
	return a - b
}

// driven is what one pass of a serve workload's traffic produced.
type driven struct {
	list    []query
	models  []*transit.Network // models[e]: the network after e batches
	warm    []shot             // open-loop shots due before the warm-up ended: verified, not timed
	open    []shot
	closed  []shot
	closedT time.Duration
	writes  []write
	wr      *writer
	table   tableSampler    // traced serve_churn only
	before  *obs.Exposition // front server's /metrics around the traffic
	after   *obs.Exposition
}

// drive runs the workload's traffic against a booted stack: an open loop at
// the fixed rate (preceded by a warm-up a tenth as long as the whole), then a
// closed loop for closedShare of the seconds, with the writer running beside
// both for serve_churn.
func (w *serve) drive(e *env, st *stack, client *http.Client, seed int64, seconds, closedShare float64, debugTrace bool) (*driven, error) {
	d := &driven{models: []*transit.Network{st.net}}
	warmD, openD, closedD := secs(seconds/10), secs(seconds*(1-closedShare)), secs(seconds*closedShare)

	// A list long enough that no phase wraps around to keys already sent:
	// the closed loop continues behind the open loop at an unknown rate.
	nOpen := int(w.rate * (warmD + openD).Seconds())
	d.list = w.gen(seed, w.prewarm+nOpen+int(20000*closedD.Seconds()), st.net.NumStations())
	lg := &loadgen{client: client, base: st.front.base, list: d.list, workers: e.nproc, debugTrace: debugTrace}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if w.churn {
		total := warmD + openD + closedD
		batches := genBatches(seed, int(total/w.batchEvery), st.net)
		for i, b := range batches {
			next, _, err := d.models[i].ApplyUpdates(b.Ops)
			if err != nil {
				return nil, err
			}
			if next == d.models[i] {
				return nil, fmt.Errorf("generated batch %d changes nothing", i+1)
			}
			d.models = append(d.models, next)
		}
		d.wr = &writer{client: client, updater: st.updater.base, replica: st.front.base,
			batches: batches, interval: w.batchEvery}
		lg.visible, lg.posted = &d.wr.visible, &d.wr.posted
	}

	var err error
	if d.before, err = scrape(client, st.front.base); err != nil {
		return nil, st.front.failure(err)
	}
	start := time.Now()
	if d.wr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.wr.run(start, stop)
		}()
		if debugTrace {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.table.run(client, st.front.base, stop)
			}()
		}
	}
	d.warm = lg.schedule(0, w.prewarm, 0)
	all := lg.openLoop(w.prewarm, w.rate, warmD+openD)
	for i := range all {
		if all[i].due < warmD {
			d.warm = append(d.warm, all[i])
		} else {
			d.open = append(d.open, all[i])
		}
	}
	if closedD > 0 {
		d.closed, d.closedT = lg.closedLoop(w.prewarm+len(all), closedD)
	}
	close(stop)
	wg.Wait()
	if d.wr != nil {
		d.writes = d.wr.writes
	}
	if d.after, err = scrape(client, st.front.base); err != nil {
		return nil, st.front.failure(err)
	}
	return d, nil
}

// judged is a driven pass after verification.
type judged struct {
	attempted, failed int
	firstErr          string
	openOK            []bool // per open-loop shot: answered correctly
	oracle            int
}

// judge verifies every answer of a pass against the model and, for
// serve_churn, that the batches were acked and seen in order and that
// updater, replica and model agree at the end.
func (w *serve) judge(e *env, st *stack, client *http.Client, d *driven, seed int64) judged {
	j := judged{openOK: make([]bool, len(d.open))}
	note := func(v verdict) {
		j.failed += v.failed
		j.oracle += v.oracle
		if j.firstErr == "" {
			j.firstErr = v.firstErr
		}
	}
	// The oracle budget goes to the timed phases; warm-up answers still get
	// the structural checks.
	note(verifyHTTP(d.models, d.list, d.warm, seed, 0, e.nproc, nil))
	forClosed := 0
	if len(d.closed) > 0 {
		forClosed = w.maxOracle / 3
	}
	note(verifyHTTP(d.models, d.list, d.open, seed, w.maxOracle-forClosed, e.nproc, j.openOK))
	note(verifyHTTP(d.models, d.list, d.closed, seed, forClosed, e.nproc, nil))
	j.attempted = len(d.warm) + len(d.open) + len(d.closed) + len(d.writes)
	for i, wr := range d.writes {
		if wr.err != nil {
			note(verdict{failed: 1, firstErr: fmt.Sprintf("batch %d: %v", i+1, wr.err)})
		}
	}
	if w.churn {
		note(w.finalAgreement(e, st, client, d, seed))
	}
	return j
}

// finalAgreement checks, once the traffic has stopped, that updater and
// replica both sit at the model's last epoch and answer a fresh seeded
// sample of queries exactly as the model does.
func (w *serve) finalAgreement(e *env, st *stack, client *http.Client, d *driven, seed int64) verdict {
	final := uint64(len(d.writes))
	for _, wr := range d.writes {
		if wr.err != nil {
			final--
		}
	}
	var v verdict
	for _, s := range st.servers() {
		rs, err := replicationStatus(client, s.base)
		v.checked++
		if err != nil {
			v.fail("final status of %s: %v", s.base, err)
		} else if rs.Epoch != final {
			v.fail("%s %s ended at epoch %d, the model at %d", rs.Role, s.base, rs.Epoch, final)
		}
	}
	if v.failed > 0 || int(final) >= len(d.models) {
		return v
	}
	const sample = 100
	list := drawCold(rngFor(seed, "final"), sample, st.net.NumStations())
	models := []*transit.Network{d.models[final]}
	for _, s := range st.servers() {
		lg := &loadgen{client: client, base: s.base, list: list, workers: e.nproc}
		shots := lg.schedule(0, sample, 0) // all due at once: as fast as the workers go
		fv := verifyHTTP(models, list, shots, seed, sample, e.nproc, nil)
		v.checked += fv.checked
		v.oracle += fv.oracle
		v.failed += fv.failed
		if v.firstErr == "" {
			v.firstErr = fv.firstErr
		}
	}
	return v
}

func (w *serve) run(e *env, seed int64, seconds float64) (*outcome, error) {
	bin, err := e.tpserver()
	if err != nil {
		return nil, err
	}
	client := newClient(e.nproc + 2)
	st, err := w.up(e, bin, client, nil)
	if err != nil {
		return nil, err
	}
	defer func() { st.down() }()
	setups := []float64{st.total.Seconds()}

	d, err := w.drive(e, st, client, seed, seconds, 0, false)
	if err != nil {
		return nil, err
	}
	j := w.judge(e, st, client, d, seed)
	st.down()
	rss := st.peakRSSMiB()
	for moreSetups(setups) {
		again, err := w.up(e, bin, client, nil)
		if err != nil {
			return nil, err
		}
		again.down()
		setups = append(setups, again.total.Seconds())
	}

	out := &outcome{attempted: j.attempted, failed: j.failed, firstErr: j.firstErr, m: metrics{}}
	lat, late := latencies(d.open)
	p50s, p95s, slos, met := w.slices(d.open, j.openOK, secs(seconds/10), secs(seconds))
	out.m.set("setup_s", median(setups), "s")
	out.m.set("query_p50_ms", median(p50s), "ms")
	out.m.set("query_p95_ms", median(p95s), "ms")
	out.m.set("slo_met_frac", median(slos), "frac")
	out.m.set("peak_rss_mib", rss, "MiB")

	out.infof("network: %s; %s", w.spec, st.net.Stats())
	out.infof("open loop %g req/s for %.2fs after %.2fs warm-up (%d timed requests, %d in flight at most); slo_ms=%g",
		w.rate, seconds, seconds/10, len(d.open), e.nproc, w.sloMS)
	out.infof("whole phase: query_p50_ms %.4f, query_p95_ms %.4f, query_p99_ms %.4f (n=%d), max %.4f, slo_met_frac %.6f; loadgen.lateness_ms_p99 %.4f",
		quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99), len(lat), lat[len(lat)-1], ratio(float64(met), float64(len(d.open))), quantile(late, 0.99))
	out.infof("query_p95_ms by slice: %.3f", p95s)
	if quantile(late, 0.99) > w.sloMS {
		out.infof("INVALID RUN: generator lateness p99 exceeds slo_ms")
	}
	hits, misses, coal := counterDelta(d.before, d.after, "tpserver_cache_hits_total"),
		counterDelta(d.before, d.after, "tpserver_cache_misses_total"),
		counterDelta(d.before, d.after, "tpserver_cache_coalesced_total")
	out.infof("cache: %.0f hits, %.0f misses, %.0f coalesced (hit fraction %.3f); shed %.0f",
		hits, misses, coal, ratio(hits, hits+misses+coal), counterDelta(d.before, d.after, "tpserver_shed_total"))
	if w.churn {
		ack, vis := writeLatencies(d.writes)
		out.infof("%d batches, one every %v: update_ack_p50_ms %.4f, update_visible_p50_ms %.4f",
			len(d.writes), w.batchEvery, quantile(ack, 0.5), quantile(vis, 0.5))
	}
	out.infof("setup_s runs: %.4f", setups)
	out.infof("verified: %d operations, %d distinct model answers computed, %d failed or wrong", j.attempted, j.oracle, j.failed)
	return out, nil
}

// timedSlices is how many equal slices of the timed phase an untraced run's
// latency metrics are computed over; it reports the median slice. An open
// loop charges a stall to every request that came due during it, so when the
// sandbox's host takes the machine away for a second or two (four runs in ten
// one night: wall time +2 to +4 s, 5–13 % of the requests past slo_ms, the
// 95th percentile over the whole phase at 40–110 ms against 13–18 ms in the
// runs between them) a tenth of the phase is lost, not the run. What the
// servers do periodically, serve_churn's rebuild after every batch, happens
// four times in every slice.
const timedSlices = 10

// slices cuts the timed open-loop shots into timedSlices by due time and
// returns each slice's median and 95th-percentile latency and its share of
// requests answered correctly within slo_ms, and that count over the phase.
func (w *serve) slices(open []shot, ok []bool, from, length time.Duration) (p50s, p95s, slos []float64, met int) {
	lat := make([][]float64, timedSlices)
	good := make([]int, timedSlices)
	for i := range open {
		k := min(int((open[i].due-from)*timedSlices/length), timedSlices-1)
		l := ms(open[i].latency())
		lat[k] = append(lat[k], l)
		if ok[i] && l <= w.sloMS {
			good[k]++
			met++
		}
	}
	for k, l := range lat {
		l = sorted(l)
		p50s = append(p50s, quantile(l, 0.50))
		p95s = append(p95s, quantile(l, 0.95))
		slos = append(slos, ratio(float64(good[k]), float64(len(l))))
	}
	return p50s, p95s, slos, met
}

// throughputWindow is the slice of the closed loop whose completions are
// counted together: half a second, the period of serve_churn's delay batches,
// so every window holds one table rebuild.
const throughputWindow = 500 * time.Millisecond

// windowedRate is the closed loop's throughput: completions per second in
// each whole window of the phase, and the median of those. One window hit by
// a garbage collection or a neighbour's burst moves a mean over the phase by
// several per cent and the median not at all.
func windowedRate(shots []shot, phase time.Duration) float64 {
	n := int(phase / throughputWindow)
	if n < 1 {
		return float64(len(shots)) / phase.Seconds()
	}
	counts := make([]float64, n)
	for i := range shots {
		if w := int(shots[i].done / throughputWindow); w < n {
			counts[w]++
		}
	}
	return median(counts) / throughputWindow.Seconds()
}

// latencies returns the ascending latencies and generator latenesses of a
// phase, in milliseconds.
func latencies(shots []shot) (lat, late []float64) {
	for i := range shots {
		lat = append(lat, ms(shots[i].latency()))
		late = append(late, ms(shots[i].lateness()))
	}
	return sorted(lat), sorted(late)
}

// writeLatencies returns ascending sent→acked and sent→visible times of the
// batches that succeeded, in milliseconds.
func writeLatencies(ws []write) (ack, vis []float64) {
	for _, w := range ws {
		if w.err == nil {
			ack = append(ack, ms(w.acked-w.sent))
			vis = append(vis, ms(w.visible-w.sent))
		}
	}
	return sorted(ack), sorted(vis)
}
