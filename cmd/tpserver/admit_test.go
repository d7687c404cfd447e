package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"transit"
	"transit/internal/admit"
)

// blockFirstPlan installs a planHook that parks the first admitted search
// until release is closed; later searches pass through.
func blockFirstPlan(s *server) (entered, release chan struct{}) {
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	s.planHook = func(context.Context) {
		once.Do(func() { close(entered) })
		<-release
	}
	return entered, release
}

func pollUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestV1OverloadShedding(t *testing.T) {
	s, mux := serverFor(t, hourlyNetwork(t))
	s.gate = admit.NewGate(1, time.Millisecond)
	entered, release := blockFirstPlan(s)

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		first <- get(t, mux, "/v1/profile?from=0&to=1")
	}()
	<-entered // the single slot is now held by a running search

	for i := 0; i < 5; i++ {
		rec := get(t, mux, "/v1/arrival?from=0&to=1&depart=07:00")
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("overloaded request %d: status %d, want 429", i, rec.Code)
		}
		if ra := rec.Header().Get("Retry-After"); ra == "" {
			t.Fatal("429 without Retry-After header")
		}
		assertErrorCode(t, rec, transit.CodeOverloaded)
	}
	// Every query kind runs through the same gate.
	rec := get(t, mux, "/v1/journey?from=0&to=1&depart=07:00")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded journey: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("journey 429 without Retry-After header")
	}

	close(release)
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("admitted request: status %d body %s", rec.Code, rec.Body)
	}
	if got := s.gate.Shed(); got != 6 {
		t.Fatalf("Shed = %d, want 6", got)
	}
	mrec := get(t, mux, "/metrics")
	if !strings.Contains(mrec.Body.String(), "tpserver_shed_total 6") {
		t.Fatalf("metrics missing shed count:\n%s", mrec.Body)
	}
	if !strings.Contains(mrec.Body.String(), "tpserver_inflight 0") {
		t.Fatalf("metrics inflight not back to zero:\n%s", mrec.Body)
	}
}

func TestV1CacheCoalescing(t *testing.T) {
	s, mux := serverFor(t, hourlyNetwork(t))
	s.cache = admit.NewCache(16, 0)
	entered, release := blockFirstPlan(s)

	const n = 8
	body := `{"from":0,"to":1,"depart":"07:40"}`
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader fills
		defer wg.Done()
		recs[0] = post(t, mux, "/v1/journey", body)
	}()
	<-entered
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = post(t, mux, "/v1/journey", body)
		}(i)
	}
	pollUntil(t, func() bool { return s.cache.Stats().Waiting == n-1 })
	close(release)
	wg.Wait()

	want := normalizeV1(t, recs[0].Body.Bytes())
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, rec.Code, rec.Body)
		}
		if got := normalizeV1(t, rec.Body.Bytes()); got != want {
			t.Fatalf("request %d body differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
	st := s.cache.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 {
		t.Fatalf("cache stats = %+v, want 1 miss / %d coalesced", st, n-1)
	}
	mrec := get(t, mux, "/metrics")
	if !strings.Contains(mrec.Body.String(), "tpserver_cache_coalesced_total 7") {
		t.Fatalf("metrics missing coalesced count:\n%s", mrec.Body)
	}
}

func TestV1CacheEpochInvalidation(t *testing.T) {
	s, mux := serverFor(t, hourlyNetwork(t))
	s.cache = admit.NewCache(16, 0)

	const q = "/v1/arrival?from=0&to=1&depart=07:50"
	r1 := get(t, mux, q)
	r2 := get(t, mux, q)
	if r1.Code != http.StatusOK || r2.Code != http.StatusOK {
		t.Fatalf("status %d/%d, want 200/200", r1.Code, r2.Code)
	}
	if r1.Body.String() != r2.Body.String() {
		t.Fatalf("cached answer differs from fresh:\n%s\n%s", r1.Body, r2.Body)
	}
	if st := s.cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats before bump = %+v, want 1 hit / 1 miss", st)
	}
	if !strings.Contains(r1.Body.String(), `"08:30"`) {
		t.Fatalf("expected 08:30 arrival before delay, got %s", r1.Body)
	}

	// Delay the 08:00 train by 20 minutes: epoch bumps, the cached 08:30
	// answer must never be served again.
	drec := post(t, mux, "/delays", `{"ops":[{"train":"h08","delay_min":20}]}`)
	if drec.Code != http.StatusOK {
		t.Fatalf("delays: status %d body %s", drec.Code, drec.Body)
	}
	r3 := get(t, mux, q)
	if r3.Code != http.StatusOK {
		t.Fatalf("post-bump status %d", r3.Code)
	}
	if !strings.Contains(r3.Body.String(), `"08:50"`) {
		t.Fatalf("stale cached answer served across epoch bump: %s", r3.Body)
	}
	if st := s.cache.Stats(); st.Misses != 2 {
		t.Fatalf("stats after bump = %+v, want 2 misses (recompute)", st)
	}

	// Byte-identical to a never-cached server with the same delay applied.
	s2, mux2 := serverFor(t, hourlyNetwork(t))
	if s2.cache != nil {
		t.Fatal("control server unexpectedly has a cache")
	}
	post(t, mux2, "/delays", `{"ops":[{"train":"h08","delay_min":20}]}`)
	fresh := get(t, mux2, q)
	// Normalized: the two answers come from independent searches, so the
	// query_ms timing field legitimately differs.
	if normalizeV1(t, r3.Body.Bytes()) != normalizeV1(t, fresh.Body.Bytes()) {
		t.Fatalf("cached-path answer differs from uncached:\n%s\n%s", r3.Body, fresh.Body)
	}
}

func TestV1PreCancelledNeverAdmitted(t *testing.T) {
	s, mux := serverFor(t, hourlyNetwork(t))
	s.gate = admit.NewGate(4, time.Millisecond)
	s.cache = admit.NewCache(16, 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, url := range []string{"/v1/arrival?from=0&to=1&depart=07:00", "/v1/journey?from=0&to=1&depart=07:00"} {
		req := httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != 499 {
			t.Fatalf("%s: status %d, want 499", url, rec.Code)
		}
	}
	if s.gate.Admitted() != 0 || s.gate.Shed() != 0 {
		t.Fatalf("pre-cancelled request touched the gate: admitted %d shed %d",
			s.gate.Admitted(), s.gate.Shed())
	}
	if st := s.cache.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("pre-cancelled request touched the cache: %+v", st)
	}
	if s.cancelled.Load() != 2 {
		t.Fatalf("cancelled metric = %d, want 2", s.cancelled.Load())
	}
}
