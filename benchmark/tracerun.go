package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	apiv1 "transit/api/v1"
	"transit/internal/wal"
)

// A traced run measures shortened copies of the workload — one with tracing
// off, one with spans recorded (and ?debug=trace on HTTP requests) — then
// replays the workload's inputs through each layer separately, and writes
// the spans out. Each copy lasts copyShare of the run's seconds.
const copyShare = 0.4

// finish writes the span file and notes where.
func finish(e *env, tr *tracer, workload string, seed int64, out *outcome) error {
	path, err := tr.write(e.outDir, workload, seed)
	if err != nil {
		return err
	}
	rel, _ := filepath.Rel(e.root, path)
	tr.mu.Lock()
	out.infof("%d spans written to %s", len(tr.spans), rel)
	tr.mu.Unlock()
	return nil
}

func (w *inproc) trace(e *env, seed int64, seconds float64) (*outcome, error) {
	tr := newTracer()
	out := &outcome{m: metrics{}}
	root, end := tr.begin("setup", 0, 0)
	n, st, err := w.spec.build(tr, root)
	end()
	if err != nil {
		return nil, err
	}
	buildMetrics(st, out.m)
	list := w.list(seed, n.NumStations())

	_, _, next, err := planLoop(n, list, 0, secs(seconds/10), nil)
	if err != nil {
		return nil, err
	}
	// Both copies start at the same place in the list, so they answer the
	// same queries.
	latU, recsU, _, err := planLoop(n, list, next, secs(seconds*copyShare), nil)
	if err != nil {
		return nil, err
	}
	latT, recsT, _, err := planLoop(n, list, next, secs(seconds*copyShare), tr)
	if err != nil {
		return nil, err
	}
	v := verifyInproc(n, list, append(recsU, recsT...), seed, w.sample/2, w.lcCheck/2, e.nproc)
	out.attempted, out.failed, out.firstErr = len(recsU)+len(recsT), v.failed, v.firstErr
	p50U, p50T := median(latU), median(latT)
	out.m.set("trace.overhead_frac", ratio(p50T-p50U, p50U), "frac")
	out.m.set("query_p99_ms", quantile(sorted(latU), 0.99), "ms")
	out.m.set("throughput_qps", 1000/mean(latU), "1/s")
	out.m.set("failed_frac", ratio(float64(v.failed), float64(out.attempted)), "frac")

	p, err := takeApart(n, tr, out.m)
	if err != nil {
		return nil, err
	}
	k := 24 // one-to-all searches take tens of milliseconds each
	if w.spec.hasTable() {
		k = 1000
	}
	if err := coreProbe(p, n, list, k, e.nproc, tr, out.m); err != nil {
		return nil, err
	}
	if err := timeQueryProbe(p, seed, 200, tr, out.m); err != nil {
		return nil, err
	}
	pqProbe(seed, out.m)
	if p.table != nil {
		tableLookupProbe(p.table, seed, out.m)
	}

	out.infof("network: %s; %s", w.spec, n.Stats())
	out.infof("copies of %.1fs: untraced p50 %.4f ms (n=%d), traced p50 %.4f ms (n=%d); layer replay over %d queries",
		seconds*copyShare, p50U, len(latU), p50T, len(latT), min(k, len(list)))
	if err := finish(e, tr, w.id, seed, out); err != nil {
		return nil, err
	}
	return out, nil
}

// stages is the server's own account of one traced request.
type stages struct {
	Trace *apiv1.Trace `json:"trace"`
}

// streamTap reads the updater's replication stream beside the replica and
// counts what each delta weighs on the wire.
type streamTap struct {
	cancel context.CancelFunc
	done   chan struct{}
	deltas int
	bytes  int
}

func tapStream(client *http.Client, updater string) (*streamTap, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, updater+"/v1/replication/stream?from=1", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// The stream has no end: the client's overall timeout must not apply.
	resp, err := (&http.Client{Transport: client.Transport}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("replication stream: %s", resp.Status)
	}
	t := &streamTap{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(t.done)
		defer resp.Body.Close()
		for {
			payload, err := wal.ReadFrame(resp.Body)
			if err != nil {
				return // cancelled, or the updater went away
			}
			if len(payload) > 0 && payload[0] == 1 { // delta frame
				t.deltas++
				t.bytes += 8 + len(payload)
			}
		}
	}()
	return t, nil
}

func (t *streamTap) stop() {
	t.cancel()
	<-t.done
}

func (w *serve) trace(e *env, seed int64, seconds float64) (*outcome, error) {
	bin, err := e.tpserver()
	if err != nil {
		return nil, err
	}
	client := newClient(e.nproc + 3)
	tr := newTracer()
	out := &outcome{m: metrics{}}
	copySeconds := seconds * copyShare

	// Each copy gets a freshly booted arrangement, so both start from the
	// same cache and the same epoch.
	pass := func(traced bool) (*stack, *driven, judged, *streamTap, error) {
		var ptr *tracer
		if traced {
			ptr = tr
		}
		st, err := w.up(e, bin, client, ptr)
		if err != nil {
			return nil, nil, judged{}, nil, err
		}
		defer st.down()
		var tap *streamTap
		if traced && w.churn {
			if tap, err = tapStream(client, st.updater.base); err != nil {
				return nil, nil, judged{}, nil, st.updater.failure(err)
			}
			defer tap.stop()
		}
		d, err := w.drive(e, st, client, seed, copySeconds, w.closedShare, traced)
		if err != nil {
			return nil, nil, judged{}, nil, err
		}
		j := w.judge(e, st, client, d, seed)
		if traced && w.churn {
			w.replicationMetrics(client, st, out.m)
		}
		return st, d, j, tap, nil
	}
	_, dU, jU, _, err := pass(false)
	if err != nil {
		return nil, err
	}
	st, dT, jT, tap, err := pass(true)
	if err != nil {
		return nil, err
	}

	out.attempted, out.failed = jU.attempted+jT.attempted, jU.failed+jT.failed
	if out.firstErr = jU.firstErr; out.firstErr == "" {
		out.firstErr = jT.firstErr
	}
	latU, lateU := latencies(dU.open)
	latT, _ := latencies(dT.open)
	out.m.set("trace.overhead_frac", ratio(quantile(latT, 0.5)-quantile(latU, 0.5), quantile(latU, 0.5)), "frac")
	out.m.set("query_p99_ms", quantile(latU, 0.99), "ms")
	out.m.set("throughput_qps", windowedRate(dU.closed, dU.closedT), "1/s")
	out.m.set("failed_frac", ratio(float64(out.failed), float64(out.attempted)), "frac")
	out.m.set("loadgen.lateness_ms_p99", quantile(lateU, 0.99), "ms")

	buildMetrics(st.build, out.m)
	out.m.set("tpserver.boot_ms", ms(st.boot), "ms")
	serverStages(tr, dT, out)
	lookups := counterDelta(dT.before, dT.after, "tpserver_cache_hits_total") +
		counterDelta(dT.before, dT.after, "tpserver_cache_misses_total") +
		counterDelta(dT.before, dT.after, "tpserver_cache_coalesced_total")
	out.m.set("admit.cache_hit_frac", ratio(counterDelta(dT.before, dT.after, "tpserver_cache_hits_total"), lookups), "frac")
	out.m.set("admit.coalesced_frac", ratio(counterDelta(dT.before, dT.after, "tpserver_cache_coalesced_total"), lookups), "frac")
	out.m.set("admit.shed_frac", ratio(counterDelta(dT.before, dT.after, "tpserver_shed_total"), lookups), "frac")

	if w.churn {
		ack, vis := writeLatencies(dU.writes)
		out.m.set("update_ack_p50_ms", quantile(ack, 0.5), "ms")
		out.m.set("update_visible_p50_ms", quantile(vis, 0.5), "ms")
		var lag []float64
		for _, wr := range dU.writes {
			if wr.err == nil {
				lag = append(lag, ms(wr.visible-wr.acked))
			}
		}
		out.m.set("replica.apply_ms_p50", median(lag), "ms")
		out.m.set("replica.lag_epochs_max", float64(dT.wr.lag), "count")
		out.m.set("live.table_present_frac", ratio(float64(dT.table.present), float64(dT.table.samples)), "frac")
		out.m.set("replica.delta_bytes", ratio(float64(tap.bytes), float64(tap.deltas)), "B")
	}

	// The layers, one at a time, in this process.
	p, err := takeApart(st.net, tr, out.m)
	if err != nil {
		return nil, err
	}
	if err := timeQueryProbe(p, seed, 200, tr, out.m); err != nil {
		return nil, err
	}
	if err := requestPathProbes(st.net, dT.list, out.m); err != nil {
		return nil, err
	}
	if w.churn {
		dir, err := e.tempDir()
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		batches := genBatches(seed, 16, st.net)
		if err := updateReplay(st.net, p, batches, w.spec.sel, dir, tr, out.m); err != nil {
			return nil, err
		}
	}

	out.infof("network: %s; %s", w.spec, st.net.Stats())
	out.infof("copies of %.1fs at %g req/s: untraced p50 %.4f ms (n=%d), traced p50 %.4f ms (n=%d)",
		copySeconds, w.rate, quantile(latU, 0.5), len(latU), quantile(latT, 0.5), len(latT))
	if quantile(lateU, 0.99) > w.sloMS {
		out.infof("INVALID RUN: generator lateness p99 exceeds slo_ms")
	}
	if err := finish(e, tr, w.id, seed, out); err != nil {
		return nil, err
	}
	return out, nil
}

// serverStages turns the ?debug=trace blocks of the traced copy's timed
// requests into spans and into the tpserver stage metrics.
func serverStages(tr *tracer, d *driven, out *outcome) {
	var search, lookup, encode, total, queue, overhead, size []float64
	var sumStages, sumTotal float64
	for i := range d.open {
		s := &d.open[i]
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		var body stages
		if json.Unmarshal(s.body, &body) != nil || body.Trace == nil {
			continue
		}
		t := body.Trace
		if t.Cache == "miss" {
			search = append(search, t.SearchMS)
		}
		lookup = append(lookup, t.CacheLookupMS)
		encode = append(encode, t.EncodeMS)
		total = append(total, t.TotalMS)
		queue = append(queue, t.QueueWaitMS)
		overhead = append(overhead, ms(s.done-s.sent)-t.TotalMS)
		size = append(size, float64(len(s.body)))
		sumStages += t.QueueWaitMS + t.CacheLookupMS + t.SearchMS + t.EncodeMS
		sumTotal += t.TotalMS

		// The client saw sent→done; the server says how its share of that
		// divides. The stages are laid end to end from the request's start.
		at := s.sent.Nanoseconds()
		req := tr.add("http.request", 0, i+1, at, s.done-s.sent)
		h := tr.add("tpserver.handler", req, i+1, at, secs(t.TotalMS/1000))
		for _, st := range []struct {
			name string
			ms   float64
		}{{"admit.queue", t.QueueWaitMS}, {"admit.cache", t.CacheLookupMS}, {"transit.Plan", t.SearchMS}, {"apiv1.encode", t.EncodeMS}} {
			tr.add(st.name, h, i+1, at, secs(st.ms/1000))
			at += secs(st.ms / 1000).Nanoseconds()
		}
	}
	out.m.set("tpserver.search_ms_p50", median(search), "ms")
	out.m.set("tpserver.cache_lookup_ms_p50", median(lookup), "ms")
	out.m.set("tpserver.encode_ms_p50", median(encode), "ms")
	out.m.set("tpserver.total_ms_p50", median(total), "ms")
	out.m.set("tpserver.http_overhead_ms_p50", median(overhead), "ms")
	out.m.set("tpserver.response_bytes_p50", median(size), "B")
	out.m.set("tpserver.stage_coverage_frac", ratio(sumStages, sumTotal), "frac")
	out.m.set("admit.queue_wait_ms_p95", quantile(sorted(queue), 0.95), "ms")
	if c := ratio(sumStages, sumTotal); c < 0.9 || c > 1.1 {
		out.infof("NOTE: the four server stages sum to %.1f%% of the handlers' total time, outside 90–110%%", 100*c)
	}
}

// replicationMetrics reads both roles' status documents once the traced
// copy's traffic has stopped.
func (w *serve) replicationMetrics(client *http.Client, st *stack, m metrics) {
	up, err1 := replicationStatus(client, st.updater.base)
	re, err2 := replicationStatus(client, st.front.base)
	if err1 != nil || err2 != nil {
		return // the final-agreement check has already counted this as a failure
	}
	// The replica cold-boots from the updater's snapshot endpoint: one
	// transfer. Anything more is a resync.
	m.set("replica.snapshot_fetches", float64(up.SnapshotsServed), "count")
	m.set("replica.divergences", float64(re.Divergences), "count")
	m.set("replica.reconnects", float64(re.Reconnects), "count")
}
