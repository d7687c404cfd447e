// Observability wiring: the server's obs.Registry (histogram families +
// legacy flat series on GET /metrics), per-query traces (X-Trace-Id,
// Server-Timing, ?debug=trace), and the structured slow-query log. See
// docs/OBSERVABILITY.md for the full contract.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"transit"
	apiv1 "transit/api/v1"
	"transit/internal/admit"
	"transit/internal/catalog"
	"transit/internal/core"
	"transit/internal/obs"
)

// serverObs owns the metric registry and every histogram the request path
// feeds. Registration happens once in newServer/newMux; after that the
// write side is lock-free atomic increments.
type serverObs struct {
	reg *obs.Registry

	// Per-endpoint end-to-end latency, registered by server.count.
	endpointDur map[string]*obs.Histogram
	// Per-Request.Kind end-to-end latency (full handler time).
	kindDur map[transit.Kind]*obs.Histogram

	queueWait   *obs.Histogram // admission-gate queue time
	searchDur   *obs.Histogram // Plan execution inside the gate
	cacheLookup *obs.Histogram // plan time outside queue+search
	settled     *obs.Histogram // labels settled per executed search

	rt runtimeSampler
}

func newServerObs(s *server) *serverObs {
	r := obs.NewRegistry()
	o := &serverObs{
		reg:         r,
		endpointDur: make(map[string]*obs.Histogram),
		kindDur:     make(map[transit.Kind]*obs.Histogram),
		queueWait: r.NewHistogram("tpserver_queue_wait_seconds",
			"Time requests spent queued at the admission gate (zero on the uncontended fast path).",
			obs.DurationBounds()),
		searchDur: r.NewHistogram("tpserver_search_seconds",
			"Query execution time inside the admission gate (cache misses only; hits never search).",
			obs.DurationBounds()),
		cacheLookup: r.NewHistogram("tpserver_cache_lookup_seconds",
			"Plan time outside queueing and search: cache probe, and for hits/coalesced requests the whole answer.",
			obs.DurationBounds()),
		settled: r.NewHistogram("tpserver_search_settled_labels",
			"Labels settled per executed search (cache hits excluded).",
			obs.CountBounds()),
	}
	for _, kind := range transit.Kinds() {
		o.kindDur[kind] = r.NewLabeledHistogram("tpserver_query_duration_seconds",
			"End-to-end query handler latency by request kind.",
			"kind", string(kind), obs.DurationBounds())
	}

	// The pre-histogram flat series keep their exact names and integer
	// rendering so existing dashboards, CI greps and the bench scraper stay
	// valid across the /metrics rewrite.
	r.Gauge("tpserver_snapshot_epoch", "Epoch of the snapshot currently served.",
		func() float64 { return float64(s.defaultLive().Epoch) })
	r.Gauge("tpserver_snapshot_preprocessed", "Whether the served snapshot has a distance table (0/1).",
		func() float64 { return float64(b2i(s.defaultLive().Preprocessed)) })
	r.Counter("tpserver_updates_total", "Applied delay batches.",
		func() float64 { return float64(s.defaultLive().UpdatesTotal) })
	r.Gauge("tpserver_update_last_seconds", "Duration of the last delay batch apply.",
		func() float64 { return s.defaultLive().LastUpdate.Seconds() })
	r.Counter("tpserver_connections_retimed_total", "Connections retimed by delay batches.",
		func() float64 { return float64(s.defaultLive().ConnsRetimed) })
	r.Counter("tpserver_connections_cancelled_total", "Connections cancelled by delay batches.",
		func() float64 { return float64(s.defaultLive().ConnsCancelled) })
	r.Counter("tpserver_repreprocess_total", "Completed distance-table re-preprocessing runs.",
		func() float64 { return float64(s.defaultLive().ReprocessedTotal) })
	r.Counter("tpserver_repreprocess_errors_total", "Failed re-preprocessing runs.",
		func() float64 { return float64(s.defaultLive().ReprocessErrors) })
	r.Gauge("dtable_repreprocess_last_seconds", "Duration of the last repair or rebuild.",
		func() float64 { return s.defaultLive().LastReprocess.Seconds() })
	r.Counter("dtable_repair_seconds_total", "Cumulative wall-clock time spent in repairs and rebuilds.",
		func() float64 { return s.defaultLive().RepairDuration.Seconds() })
	r.Gauge("tpserver_last_epoch_apply_timestamp_seconds",
		"Unix time of the last epoch-advancing delay batch (0 before the first).",
		func() float64 {
			t := s.defaultLive().LastApply
			if t.IsZero() {
				return 0
			}
			return float64(t.UnixNano()) / 1e9
		})
	r.Counter("tpserver_persist_total", "Epoch checkpoints written to the -persist file.",
		func() float64 { return float64(s.defaultLive().PersistsTotal) })
	r.Counter("tpserver_persist_errors_total", "Failed persistence checkpoints.",
		func() float64 { return float64(s.defaultLive().PersistErrors) })
	r.Counter("tpserver_persist_failures_total",
		"Failed persistence checkpoints (alias of tpserver_persist_errors_total for the reliability dashboards).",
		func() float64 { return float64(s.defaultLive().PersistErrors) })
	r.Counter("tpserver_wal_appends_total",
		"Delay batches journaled and fsynced before their ack.",
		func() float64 { return float64(s.defaultLive().WalAppends) })
	r.Counter("tpserver_wal_append_errors_total",
		"Journal appends that failed; the batch was rejected with 503, not lost.",
		func() float64 { return float64(s.defaultLive().WalAppendErrors) })
	r.Counter("tpserver_wal_replayed_batches_total",
		"Journaled batches replayed on top of the persisted checkpoint at boot.",
		func() float64 { return float64(s.defaultLive().WalReplayed) })
	r.Gauge("tpserver_wal_size_bytes",
		"Current write-ahead journal size (0 when journaling is off).",
		func() float64 { return float64(s.defaultLive().WalBytes) })
	r.Counter("tpserver_panics_total",
		"Handler panics recovered by the request fence (each answered with a typed 500).",
		func() float64 { return float64(s.panics.Load()) })
	r.Gauge("tpserver_ready",
		"Whether this instance is accepting traffic (1 ready; 0 starting or draining).",
		func() float64 { return float64(b2i(s.ready.Load() == readyServing)) })
	r.Counter("tpserver_queries_cancelled_total", "Queries abandoned mid-flight (client disconnect or deadline).",
		func() float64 { return float64(s.cancelled.Load()) })
	r.Gauge("tpserver_inflight", "Admitted search weight currently running.",
		func() float64 { return float64(s.gate.Inflight()) })
	r.Gauge("tpserver_admit_queued", "Requests waiting for an admission slot.",
		func() float64 { return float64(s.gate.Queued()) })
	r.Counter("tpserver_admitted_total", "Granted admissions.",
		func() float64 { return float64(s.gate.Admitted()) })
	r.Counter("tpserver_shed_total", "Requests shed by admission control.",
		func() float64 { return float64(s.gate.Shed()) })
	r.Counter("tpserver_cache_hits_total", "Result-cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.Counter("tpserver_cache_misses_total", "Result-cache misses (fills).",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.Counter("tpserver_cache_coalesced_total", "Requests that joined an in-flight identical fill.",
		func() float64 { return float64(s.cache.Stats().Coalesced) })
	r.Gauge("tpserver_cache_entries", "Result-cache entries stored.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	r.Gauge("tpserver_cache_bytes", "Approximate result bytes stored in the cache.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	// Replication series (docs/REPLICATION.md). Registered unconditionally
	// — the accessors are nil-safe and report zero on a server with no
	// replication role — so dashboards can use one query across the fleet.
	r.Gauge("tpserver_replication_lag_epochs",
		"Epochs this replica trails its updater (0 on an updater or while the lag is unknown; see /readyz for syncing).",
		func() float64 { lag, _ := s.follower.Lag(); return float64(lag) })
	r.Gauge("tpserver_replication_connected_replicas",
		"Stream subscribers currently connected to this updater.",
		func() float64 { return float64(s.pub.Subscribers()) })
	r.Counter("tpserver_replication_deltas_sent_total",
		"Epoch deltas written to replica streams (backlog replays included).",
		func() float64 { return float64(s.pub.DeltasSent()) })
	r.Counter("tpserver_replication_deltas_applied_total",
		"Stream deltas this replica applied locally.",
		func() float64 { return float64(s.follower.DeltasApplied()) })
	r.Counter("tpserver_replication_snapshot_fetches_total",
		"Full-snapshot transfers: served to replicas (updater) or fetched for cold boot/resync (replica).",
		func() float64 { return float64(s.pub.SnapshotsServed() + s.follower.SnapshotFetches()) })
	r.Counter("tpserver_replication_reconnects_total",
		"Times this replica re-established its stream after a break.",
		func() float64 { return float64(s.follower.Reconnects()) })
	r.Counter("tpserver_replication_divergences_total",
		"Deltas whose touched-set disagreed with the local apply; each one forced a full resync.",
		func() float64 { return float64(s.follower.Divergences()) })
	r.Counter("tpserver_workspace_pool_gets_total", "Search workspaces checked out of the pool.",
		func() float64 { gets, _ := core.PoolStats(); return float64(gets) })
	r.Counter("tpserver_workspace_pool_puts_total", "Search workspaces returned to the pool.",
		func() float64 { _, puts := core.PoolStats(); return float64(puts) })

	// Catalog-wide lifecycle counters, plus one network="…" labelled series
	// per manifest tenant. Tenants are known at construction, so every
	// series registers exactly once; the sample closures read the catalog's
	// bookkeeping (last-known values for evicted tenants) and never force a
	// load.
	r.Gauge("tpserver_catalog_networks", "Networks in the serving catalog.",
		func() float64 { return float64(s.cat.Metrics().Networks) })
	r.Gauge("tpserver_catalog_resident", "Catalog networks currently loaded.",
		func() float64 { return float64(s.cat.Metrics().Resident) })
	r.Gauge("tpserver_catalog_resident_bytes", "Summed snapshot bytes of the resident networks.",
		func() float64 { return float64(s.cat.Metrics().ResidentBytes) })
	r.Counter("tpserver_catalog_loads_total", "Tenant snapshot loads (cold and reload).",
		func() float64 { return float64(s.cat.Metrics().Loads) })
	r.Counter("tpserver_catalog_evictions_total", "Tenants evicted under the memory budget.",
		func() float64 { return float64(s.cat.Metrics().Evictions) })
	r.Counter("tpserver_catalog_load_errors_total", "Failed tenant loads.",
		func() float64 { return float64(s.cat.Metrics().LoadErrors) })
	r.Counter("tpserver_catalog_load_seconds_total", "Cumulative wall-clock time spent loading tenants.",
		func() float64 { return s.cat.Metrics().LoadDuration.Seconds() })
	for _, name := range s.cat.Names() {
		name := name
		net := func() catalog.NetworkMetrics { m, _ := s.cat.NetworkMetrics(name); return m }
		r.LabeledGauge("tpserver_network_epoch", "Delay epoch per catalog network (frozen while evicted).",
			"network", name, func() float64 { return float64(net().Live.Epoch) })
		r.LabeledGauge("tpserver_network_resident", "Whether the network is currently loaded (0/1).",
			"network", name, func() float64 { return float64(b2i(net().Resident)) })
		r.LabeledGauge("tpserver_network_snapshot_bytes", "Snapshot bytes charged against the memory budget while resident.",
			"network", name, func() float64 { return float64(net().SizeBytes) })
		r.LabeledCounter("tpserver_network_updates_total", "Applied delay batches per network.",
			"network", name, func() float64 { return float64(net().Live.UpdatesTotal) })
		r.LabeledCounter("tpserver_network_loads_total", "Snapshot loads per network.",
			"network", name, func() float64 { return float64(net().Loads) })
		r.LabeledCounter("tpserver_network_evictions_total", "Evictions per network.",
			"network", name, func() float64 { return float64(net().Evictions) })
		r.LabeledCounter("tpserver_network_requests_total", "HTTP requests answered per network.",
			"network", name, func() float64 {
				if c, ok := s.netHits[name]; ok {
					return float64(c.Load())
				}
				return 0
			})
	}

	// Go runtime series. One ReadMemStats per scrape (cached across the
	// gauges of a single scrape by runtimeSampler).
	r.Gauge("go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.Gauge("go_heap_alloc_bytes", "Heap bytes allocated and still in use.",
		func() float64 { return float64(o.rt.get().HeapAlloc) })
	r.Gauge("go_heap_objects", "Live heap objects.",
		func() float64 { return float64(o.rt.get().HeapObjects) })
	r.Counter("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(o.rt.get().PauseTotalNs) / 1e9 })
	r.Counter("go_gc_runs_total", "Completed GC cycles.",
		func() float64 { return float64(o.rt.get().NumGC) })
	return o
}

// endpointSeries registers the endpoint's request counter and latency
// histogram (once, at mux construction) and returns the histogram.
func (o *serverObs) endpointSeries(endpoint string, hits *atomic.Uint64) *obs.Histogram {
	o.reg.LabeledCounter("tpserver_requests_total", "HTTP requests by endpoint.",
		"endpoint", endpoint, func() float64 { return float64(hits.Load()) })
	h := o.reg.NewLabeledHistogram("tpserver_request_duration_seconds",
		"End-to-end HTTP request latency by endpoint.",
		"endpoint", endpoint, obs.DurationBounds())
	o.endpointDur[endpoint] = h
	return h
}

// runtimeSampler caches one runtime.MemStats read for a short window so a
// scrape touching several runtime gauges pays for a single ReadMemStats.
type runtimeSampler struct {
	mu   sync.Mutex
	at   time.Time
	last runtime.MemStats
}

func (rs *runtimeSampler) get() runtime.MemStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if now := time.Now(); now.Sub(rs.at) > 100*time.Millisecond {
		runtime.ReadMemStats(&rs.last)
		rs.at = now
	}
	return rs.last
}

// qtrace accumulates one query's stage timings and effort counters. It is
// written only from the request's own goroutine (Cache.Plan runs the fill
// closure synchronously on the filler's goroutine), so fields need no
// synchronization; the Effort block itself is atomic because a matrix or
// parallel search fans out under it.
type qtrace struct {
	id      string
	kind    transit.Kind
	network string
	epoch   uint64
	start   time.Time

	queueWait   time.Duration
	search      time.Duration
	cacheLookup time.Duration
	encode      time.Duration

	outcome admit.Outcome
	effort  transit.SearchEffort
	debug   bool // ?debug=trace: return the breakdown inline
}

// traceNonce makes trace IDs unique across server restarts; traceSeq
// across requests of one process.
var (
	traceNonce = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	traceSeq atomic.Uint64
)

// traceIDPattern: an inbound X-Trace-Id is honored when it is short and
// header-safe, so callers can stitch server traces into their own.
func sanitizeTraceID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// beginTrace starts a query trace: assigns (or adopts) the trace ID, sets
// the X-Trace-Id response header immediately — error responses carry it
// too — and notes whether the client asked for the inline breakdown.
func (s *server) beginTrace(w http.ResponseWriter, r *http.Request, kind transit.Kind) *qtrace {
	id := sanitizeTraceID(r.Header.Get("X-Trace-Id"))
	if id == "" {
		id = fmt.Sprintf("%s-%x", traceNonce, traceSeq.Add(1))
	}
	w.Header().Set("X-Trace-Id", id)
	return &qtrace{
		id:    id,
		kind:  kind,
		start: time.Now(),
		debug: r.URL.Query().Get("debug") == "trace",
	}
}

// serverTiming renders the stage timings as a Server-Timing header value
// (durations in milliseconds, RFC 8941 ordering: stages in request order).
func (t *qtrace) serverTiming() string {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return fmt.Sprintf("queue;dur=%.3f, cache;dur=%.3f, search;dur=%.3f, encode;dur=%.3f",
		ms(t.queueWait), ms(t.cacheLookup), ms(t.search), ms(t.encode))
}

// wire renders the trace as the ?debug=trace response block.
func (t *qtrace) wire() *apiv1.Trace {
	tr := &apiv1.Trace{
		TraceID:       t.id,
		Network:       t.network,
		Epoch:         t.epoch,
		Cache:         t.outcome.String(),
		QueueWaitMS:   float64(t.queueWait.Microseconds()) / 1000,
		CacheLookupMS: float64(t.cacheLookup.Microseconds()) / 1000,
		SearchMS:      float64(t.search.Microseconds()) / 1000,
		EncodeMS:      float64(t.encode.Microseconds()) / 1000,
		TotalMS:       float64(time.Since(t.start).Microseconds()) / 1000,
	}
	if snap := t.effort.Snapshot(); snap.Rounds > 0 {
		tr.Effort = &snap
	}
	return tr
}

// finishQuery closes out a traced query: per-kind latency histogram, and
// the slow-query log line when the handler exceeded -slow-query. outcome
// is "ok" or the transit error code of the failure.
func (s *server) finishQuery(t *qtrace, outcome string) {
	total := time.Since(t.start)
	if h, ok := s.obs.kindDur[t.kind]; ok {
		h.ObserveDuration(total)
	}
	if s.slowQuery <= 0 || total < s.slowQuery {
		return
	}
	eff := t.effort.Snapshot()
	s.logger.Warn("slow query",
		"trace_id", t.id,
		"kind", string(t.kind),
		"network", t.network,
		"epoch", t.epoch,
		"cache", t.outcome.String(),
		"outcome", outcome,
		"total_ms", float64(total.Microseconds())/1000,
		"queue_wait_ms", float64(t.queueWait.Microseconds())/1000,
		"cache_lookup_ms", float64(t.cacheLookup.Microseconds())/1000,
		"search_ms", float64(t.search.Microseconds())/1000,
		"encode_ms", float64(t.encode.Microseconds())/1000,
		"conns_scanned", eff.ConnsScanned,
		"labels_settled", eff.LabelsSettled,
		"pq_pops", eff.PQPops,
		"rounds", eff.Rounds,
	)
}

// newLogger builds the process logger for -log-format.
func newLogger(format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "", "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return nil, fmt.Errorf("tpserver: unknown -log-format %q (want text or json)", format)
	}
	return slog.New(h), nil
}
