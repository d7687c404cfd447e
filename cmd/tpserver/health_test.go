package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"transit"
	apiv1 "transit/api/v1"
	"transit/internal/faultfs"
	"transit/internal/live"
)

// TestReadyzLifecycle walks the readiness states: a freshly built server is
// starting (503), a serving one answers 200 with the epoch, a draining one
// is 503 again — while /healthz (liveness) says "ok" throughout.
func TestReadyzLifecycle(t *testing.T) {
	s, mux := serverFor(t, hourlyNetwork(t))
	probe := func() (int, apiv1.HealthResponse) {
		rec := get(t, mux, "/readyz")
		var resp apiv1.HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("readyz body %q: %v", rec.Body.String(), err)
		}
		return rec.Code, resp
	}

	if code, resp := probe(); code != http.StatusServiceUnavailable || resp.Status != "starting" {
		t.Fatalf("before serving: got %d %q, want 503 starting", code, resp.Status)
	}
	s.ready.Store(readyServing)
	if code, resp := probe(); code != http.StatusOK || resp.Status != "ready" {
		t.Fatalf("serving: got %d %q, want 200 ready", code, resp.Status)
	}
	s.ready.Store(readyDraining)
	if code, resp := probe(); code != http.StatusServiceUnavailable || resp.Status != "draining" {
		t.Fatalf("draining: got %d %q, want 503 draining", code, resp.Status)
	}
	if rec := get(t, mux, "/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz while draining: got %d %q, want 200 ok", rec.Code, rec.Body.String())
	}
}

// TestPanicRecovery poisons the query path and checks the fence: the
// request gets a typed 500 envelope under code "internal", the panic is
// counted, and the next (healthy) request is answered normally by the same
// process.
func TestPanicRecovery(t *testing.T) {
	s := newServer(live.NewRegistry(hourlyNetwork(t), live.Config{Policy: live.ServeUnpruned}), 1)
	h := s.handler()
	s.planHook = func(context.Context) { panic("query poisoned") }

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/arrival?from=0&to=1&at=08:00", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: got %d, want 500", rec.Code)
	}
	var resp apiv1.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("500 body %q: %v", rec.Body.String(), err)
	}
	if resp.Error.Code != string(transit.CodeInternal) {
		t.Fatalf("error code %q, want %q", resp.Error.Code, transit.CodeInternal)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	s.planHook = nil
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/arrival?from=0&to=1&at=08:00", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy request after a panic: got %d (%s), want 200", rec.Code, rec.Body.String())
	}
}

// TestPanicRecoveryAbortHandler: http.ErrAbortHandler is net/http's own
// abort idiom, not a defect — it must pass through the fence uncounted.
func TestPanicRecoveryAbortHandler(t *testing.T) {
	s, _ := serverFor(t, hourlyNetwork(t))
	fence := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if rec := recover(); rec != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler to pass through", rec)
		}
		if got := s.panics.Load(); got != 0 {
			t.Errorf("panics counter = %d, want 0 for an aborted response", got)
		}
	}()
	fence.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
}

// TestDelaysJournalFailure injects a journal append failure under POST
// /delays: the batch must be rejected with 503 (retryable — nothing was
// applied, the epoch did not move), and once the fault clears the same
// batch must apply normally.
func TestDelaysJournalFailure(t *testing.T) {
	m := faultfs.NewMem()
	reg := live.NewRegistry(hourlyNetwork(t), live.Config{Policy: live.ServeUnpruned, FS: m})
	if _, err := reg.RecoverJournal("state.wal"); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := newServer(reg, 1)
	mux := newMux(s)

	m.SetPlan(faultfs.Plan{FailStep: 1, Err: errors.New("disk full")})
	rec := post(t, mux, "/delays", `{"ops":[{"train":"h08","delay_min":5}]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("journal failure: got %d (%s), want 503", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "journal") {
		t.Fatalf("503 body %q does not name the journal", rec.Body.String())
	}
	if epoch := reg.Snapshot().Epoch; epoch != 0 {
		t.Fatalf("epoch advanced to %d on a failed append", epoch)
	}
	if m := reg.Metrics(); m.WalAppendErrors != 1 {
		t.Fatalf("WalAppendErrors = %d, want 1", m.WalAppendErrors)
	}

	m.SetPlan(faultfs.Plan{})
	rec = post(t, mux, "/delays", `{"ops":[{"train":"h08","delay_min":5}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry after fault cleared: got %d (%s), want 200", rec.Code, rec.Body.String())
	}
	if epoch := reg.Snapshot().Epoch; epoch != 1 {
		t.Fatalf("epoch = %d after retry, want 1", epoch)
	}
}

// TestMetricsReliabilityFamilies asserts the new reliability series are
// exposed on /metrics with the WAL counters live: an applied batch shows up
// under tpserver_wal_appends_total and the journal size gauge moves.
func TestMetricsReliabilityFamilies(t *testing.T) {
	m := faultfs.NewMem()
	reg := live.NewRegistry(hourlyNetwork(t), live.Config{Policy: live.ServeUnpruned, FS: m})
	if _, err := reg.RecoverJournal("state.wal"); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := newServer(reg, 1)
	s.ready.Store(readyServing)
	mux := newMux(s)

	if rec := post(t, mux, "/delays", `{"ops":[{"train":"h08","delay_min":5}]}`); rec.Code != http.StatusOK {
		t.Fatalf("delays: got %d (%s)", rec.Code, rec.Body.String())
	}
	body := get(t, mux, "/metrics").Body.String()
	for _, want := range []string{
		"tpserver_wal_appends_total 1",
		"tpserver_wal_append_errors_total 0",
		"tpserver_wal_replayed_batches_total 0",
		"tpserver_persist_failures_total 0",
		"tpserver_panics_total 0",
		"tpserver_ready 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(body, "tpserver_wal_size_bytes") {
		t.Errorf("metrics missing tpserver_wal_size_bytes")
	}
	// The gauge must reflect a non-empty journal: header (8 bytes) + frame.
	var size int64
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "tpserver_wal_size_bytes "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			size = n
		}
	}
	if size <= 8 {
		t.Errorf("tpserver_wal_size_bytes = %d, want > 8 (header) after one append", size)
	}
}
