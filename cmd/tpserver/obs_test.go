package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"transit"
	"transit/internal/admit"
	"transit/internal/obs"
)

// TestMetricsExposition drives a few queries and then checks that /metrics
// serves well-formed Prometheus text exposition (the strict parser rejects
// duplicate series, metadata-after-samples, and malformed histograms) with
// every histogram family the dashboards scrape.
func TestMetricsExposition(t *testing.T) {
	s, mux := serverFor(t, hourlyNetwork(t))
	s.cache = admit.NewCache(16, 0)
	s.gate = admit.NewGate(4, 50*time.Millisecond)
	if rec := get(t, mux, "/v1/arrival?from=0&to=1&depart=08:30"); rec.Code != http.StatusOK {
		t.Fatalf("arrival: %d %s", rec.Code, rec.Body.String())
	}
	// Second identical query: a cache hit, so the hit path feeds the
	// cache-lookup histogram without a search.
	if rec := get(t, mux, "/v1/arrival?from=0&to=1&depart=08:30"); rec.Code != http.StatusOK {
		t.Fatalf("arrival (cached): %d %s", rec.Code, rec.Body.String())
	}
	// A different departure misses the cache and runs its own admitted
	// search.
	if rec := post(t, mux, "/v1/arrival", `{"from":0,"to":1,"depart":"09:30"}`); rec.Code != http.StatusOK {
		t.Fatalf("arrival (POST): %d %s", rec.Code, rec.Body.String())
	}

	rec := get(t, mux, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	exp, err := obs.Parse(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, rec.Body.String())
	}

	for _, name := range []string{
		"tpserver_request_duration_seconds",
		"tpserver_query_duration_seconds",
		"tpserver_queue_wait_seconds",
		"tpserver_search_seconds",
		"tpserver_cache_lookup_seconds",
		"tpserver_search_settled_labels",
	} {
		fam, ok := exp.Families[name]
		if !ok {
			t.Errorf("family %s missing", name)
			continue
		}
		if fam.Type != "histogram" {
			t.Errorf("family %s has type %s, want histogram", name, fam.Type)
		}
	}

	// The per-endpoint and per-kind histograms saw the traffic above.
	snap, ok := exp.Families["tpserver_request_duration_seconds"].
		HistogramSnapshot(map[string]string{"endpoint": "v1_arrival"})
	if !ok || snap.Count != 3 {
		t.Errorf("endpoint histogram count = %d (ok=%v), want 3", snap.Count, ok)
	}
	snap, ok = exp.Families["tpserver_query_duration_seconds"].
		HistogramSnapshot(map[string]string{"kind": string(transit.KindEarliestArrival)})
	if !ok || snap.Count != 3 {
		t.Errorf("kind histogram count = %d (ok=%v), want 3", snap.Count, ok)
	}
	// Queue wait is observed once per admitted search: two misses, one hit.
	qsnap, ok := exp.Families["tpserver_queue_wait_seconds"].HistogramSnapshot(nil)
	if !ok || qsnap.Count != 2 {
		t.Errorf("queue wait count = %d (ok=%v), want 2 (hits skip the gate)", qsnap.Count, ok)
	}

	// Legacy flat series keep their exact names and values.
	if v, ok := exp.Value("tpserver_snapshot_epoch"); !ok || v != 0 {
		t.Errorf("tpserver_snapshot_epoch = %v (ok=%v), want 0", v, ok)
	}
	if v, ok := exp.Value("tpserver_cache_hits_total"); !ok || v != 1 {
		t.Errorf("tpserver_cache_hits_total = %v (ok=%v), want 1", v, ok)
	}
	for _, name := range []string{"go_goroutines", "go_heap_alloc_bytes",
		"tpserver_workspace_pool_gets_total", "tpserver_last_epoch_apply_timestamp_seconds"} {
		if _, ok := exp.Value(name); !ok {
			t.Errorf("runtime series %s missing", name)
		}
	}
}

// TestTraceHeaders: every query answer carries X-Trace-Id, /v1 answers also
// carry the Server-Timing stage breakdown, and a well-formed inbound trace
// ID is adopted while a malformed one is replaced.
func TestTraceHeaders(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))

	rec := get(t, mux, "/v1/arrival?from=0&to=1&depart=08:30")
	if rec.Code != http.StatusOK {
		t.Fatalf("arrival: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Trace-Id") == "" {
		t.Error("missing X-Trace-Id")
	}
	st := rec.Header().Get("Server-Timing")
	for _, stage := range []string{"queue;dur=", "cache;dur=", "search;dur=", "encode;dur="} {
		if !strings.Contains(st, stage) {
			t.Errorf("Server-Timing %q missing stage %q", st, stage)
		}
	}

	// Error responses are traced too.
	rec = get(t, mux, "/v1/arrival?from=0&to=99&depart=08:30")
	if rec.Code == http.StatusOK {
		t.Fatal("expected error status")
	}
	if rec.Header().Get("X-Trace-Id") == "" || rec.Header().Get("Server-Timing") == "" {
		t.Error("error response lost trace headers")
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/arrival?from=0&to=1&depart=08:30", nil)
	req.Header.Set("X-Trace-Id", "caller-trace.1")
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if got := w.Header().Get("X-Trace-Id"); got != "caller-trace.1" {
		t.Errorf("inbound trace ID not adopted: got %q", got)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/arrival?from=0&to=1&depart=08:30", nil)
	req.Header.Set("X-Trace-Id", "bad id with spaces")
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if got := w.Header().Get("X-Trace-Id"); got == "bad id with spaces" || got == "" {
		t.Errorf("malformed inbound trace ID not replaced: got %q", got)
	}
}

// TestDebugTrace: ?debug=trace returns the inline stage breakdown with the
// search-effort counters of the query that ran.
func TestDebugTrace(t *testing.T) {
	s, mux := serverFor(t, hourlyNetwork(t))
	s.cache = admit.NewCache(16, 0)

	rec := get(t, mux, "/v1/arrival?from=0&to=1&depart=08:30&debug=trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("arrival: %d %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Trace *struct {
			TraceID string  `json:"trace_id"`
			Cache   string  `json:"cache"`
			TotalMS float64 `json:"total_ms"`
			Effort  *struct {
				ConnsScanned  int64 `json:"conns_scanned"`
				LabelsSettled int64 `json:"labels_settled"`
				Rounds        int64 `json:"rounds"`
			} `json:"effort"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatalf("no trace block in %s", rec.Body.String())
	}
	if out.Trace.TraceID != rec.Header().Get("X-Trace-Id") {
		t.Errorf("trace_id %q != header %q", out.Trace.TraceID, rec.Header().Get("X-Trace-Id"))
	}
	if out.Trace.Cache != "miss" {
		t.Errorf("cache = %q, want miss", out.Trace.Cache)
	}
	if out.Trace.Effort == nil {
		t.Fatal("no effort block on a query that searched")
	}
	if out.Trace.Effort.Rounds == 0 || out.Trace.Effort.ConnsScanned == 0 {
		t.Errorf("empty effort counters: %+v", *out.Trace.Effort)
	}

	// A cache hit reports outcome "hit" and no effort (no search ran).
	// Decode into a zero value: Unmarshal would leave the first response's
	// effort in place for a field the second response omits.
	rec = get(t, mux, "/v1/arrival?from=0&to=1&depart=08:30&debug=trace")
	hit := out
	hit.Trace = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &hit); err != nil {
		t.Fatal(err)
	}
	if hit.Trace == nil || hit.Trace.Cache != "hit" {
		t.Fatalf("second query trace = %+v, want cache hit", hit.Trace)
	}
	if hit.Trace.Effort != nil {
		t.Errorf("cache hit carries effort block: %+v", *hit.Trace.Effort)
	}

	// Without ?debug=trace the body has no trace key (wire compatibility).
	rec = get(t, mux, "/v1/arrival?from=0&to=1&depart=09:30")
	if strings.Contains(rec.Body.String(), `"trace"`) {
		t.Errorf("undebugged response leaks trace block: %s", rec.Body.String())
	}
}

// TestSlowQueryLog: with -slow-query set below the query's duration, the
// structured log records the stage breakdown and effort counters.
func TestSlowQueryLog(t *testing.T) {
	s, mux := serverFor(t, hourlyNetwork(t))
	var buf bytes.Buffer
	s.logger = slog.New(slog.NewJSONHandler(&buf, nil))
	s.slowQuery = time.Nanosecond // everything is slow

	if rec := get(t, mux, "/v1/arrival?from=0&to=1&depart=08:30"); rec.Code != http.StatusOK {
		t.Fatalf("arrival: %d %s", rec.Code, rec.Body.String())
	}
	var entry map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("slow-query log is not one JSON object: %v\n%s", err, buf.String())
	}
	if entry["msg"] != "slow query" {
		t.Errorf("msg = %v", entry["msg"])
	}
	for _, key := range []string{"trace_id", "kind", "cache", "outcome", "total_ms",
		"queue_wait_ms", "cache_lookup_ms", "search_ms", "encode_ms",
		"conns_scanned", "labels_settled", "rounds"} {
		if _, ok := entry[key]; !ok {
			t.Errorf("slow-query log missing %q: %v", key, entry)
		}
	}
	if entry["kind"] != string(transit.KindEarliestArrival) {
		t.Errorf("kind = %v", entry["kind"])
	}
	if entry["outcome"] != "ok" {
		t.Errorf("outcome = %v", entry["outcome"])
	}

	// Below the threshold nothing is logged.
	buf.Reset()
	s.slowQuery = time.Hour
	get(t, mux, "/v1/arrival?from=0&to=1&depart=09:30")
	if buf.Len() != 0 {
		t.Errorf("fast query logged: %s", buf.String())
	}
}

// TestNewLogger covers the -log-format switch.
func TestNewLogger(t *testing.T) {
	for _, ok := range []string{"", "text", "json"} {
		if _, err := newLogger(ok); err != nil {
			t.Errorf("newLogger(%q): %v", ok, err)
		}
	}
	if _, err := newLogger("xml"); err == nil {
		t.Error("newLogger(xml) accepted")
	}
}

func TestSanitizeTraceID(t *testing.T) {
	cases := map[string]string{
		"":                      "",
		"abc-DEF_1.2":           "abc-DEF_1.2",
		"has space":             "",
		"semi;colon":            "",
		strings.Repeat("x", 65): "",
		strings.Repeat("x", 64): strings.Repeat("x", 64),
	}
	for in, want := range cases {
		if got := sanitizeTraceID(in); got != want {
			t.Errorf("sanitizeTraceID(%q) = %q, want %q", in, got, want)
		}
	}
}
