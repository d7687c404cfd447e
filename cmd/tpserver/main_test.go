package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"transit"
	apiv1 "transit/api/v1"
	"transit/internal/live"
	"transit/internal/replica"
)

func serverFor(t *testing.T, n *transit.Network) (*server, *http.ServeMux) {
	t.Helper()
	s := newServer(live.NewRegistry(n, live.Config{Policy: live.ServeUnpruned}), 1)
	return s, newMux(s)
}

func testServer(t *testing.T) (*server, *http.ServeMux) {
	t.Helper()
	n, err := transit.Generate("oahu", 0.06, 3)
	if err != nil {
		t.Fatal(err)
	}
	return serverFor(t, n)
}

// hourlyNetwork is a deterministic two-station network: trains "h" leave A
// hourly 06:00–22:00 and reach B 30 minutes later.
func hourlyNetwork(t testing.TB) *transit.Network {
	t.Helper()
	tb := transit.NewTimetableBuilder(0)
	a := tb.AddStation("A", 2)
	b := tb.AddStation("B", 2)
	for h := 6; h <= 22; h++ {
		if err := tb.AddTrain(fmt.Sprintf("h%02d", h), []transit.StationID{a, b},
			transit.Ticks(h*60), []transit.Ticks{30}, 0); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func get(t *testing.T, mux *http.ServeMux, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

func post(t *testing.T, mux *http.ServeMux, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

func arrivalAt(t *testing.T, mux *http.ServeMux, from, to int, at string) string {
	t.Helper()
	rec := get(t, mux, fmt.Sprintf("/v1/arrival?from=%d&to=%d&depart=%s", from, to, at))
	if rec.Code != http.StatusOK {
		t.Fatalf("arrival status %d: %s", rec.Code, rec.Body.String())
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["reachable"] != true {
		t.Fatalf("unreachable: %v", out)
	}
	return out["arrive"].(string)
}

func TestStationsEndpoint(t *testing.T) {
	s, mux := testServer(t)
	rec := get(t, mux, "/v1/stations")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out apiv1.StationsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	want := s.cat.Resident(s.defaultNet).Snapshot().Net.NumStations()
	if len(out.Stations) != want {
		t.Fatalf("stations = %d, want %d", len(out.Stations), want)
	}
	if out.Stations[0].ID != 0 || out.Stations[0].Name == "" {
		t.Fatalf("station 0 malformed: %+v", out.Stations[0])
	}
}

func TestArrivalEndpoint(t *testing.T) {
	_, mux := testServer(t)
	rec := get(t, mux, "/v1/arrival?from=0&to=5&depart=08:15")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["reachable"] != true {
		t.Fatalf("response: %v", out)
	}
	if _, ok := out["arrive"].(string); !ok {
		t.Fatalf("no arrive field: %v", out)
	}
	// Bad inputs.
	for _, url := range []string{
		"/v1/arrival?from=0",                       // missing to
		"/v1/arrival?from=0&to=99999&depart=08:00", // bad station
		"/v1/arrival?from=x&to=5&depart=08:00",     // no station of that name
		"/v1/arrival?from=0&to=5&depart=27:99",     // bad time
	} {
		if rec := get(t, mux, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, mux := testServer(t)
	rec := get(t, mux, "/v1/profile?from=0&to=7")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Connections []struct {
			Depart  string `json:"depart"`
			Arrive  string `json:"arrive"`
			Minutes int    `json:"minutes"`
		} `json:"connections"`
		QueryMS float64 `json:"query_ms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Connections) == 0 {
		t.Fatal("no connections returned")
	}
	for _, c := range out.Connections {
		if c.Minutes <= 0 || c.Depart == "" || c.Arrive == "" {
			t.Fatalf("malformed connection: %+v", c)
		}
	}
}

func TestJourneyEndpoint(t *testing.T) {
	_, mux := testServer(t)
	rec := get(t, mux, "/v1/journey?from=0&to=7&depart=08:00")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Transfers int `json:"transfers"`
		Legs      []struct {
			Train  string `json:"train"`
			Depart string `json:"depart"`
			Arrive string `json:"arrive"`
		} `json:"legs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Legs) == 0 || out.Transfers != len(out.Legs)-1 {
		t.Fatalf("journey malformed: %+v", out)
	}
}

func TestLoadValidation(t *testing.T) {
	if _, err := load("", "", "", 0); err == nil {
		t.Fatal("empty source spec accepted")
	}
	if _, err := load("", "", "oahu", 0.05); err != nil {
		t.Fatalf("generate source failed: %v", err)
	}
	if _, err := load("/nonexistent/file.tt", "", "", 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestArrivalUnreachable(t *testing.T) {
	// A two-station builder network where B never connects back to A.
	tb := transit.NewTimetableBuilder(0)
	a := tb.AddStation("A", 1)
	bb := tb.AddStation("B", 1)
	if err := tb.AddTrain("t", []transit.StationID{a, bb}, 480, []transit.Ticks{10}, 0); err != nil {
		t.Fatal(err)
	}
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, mux := serverFor(t, n)
	rec := get(t, mux, fmt.Sprintf("/v1/arrival?from=%d&to=%d&depart=08:00", bb, a))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["reachable"] != false {
		t.Fatalf("unreachable pair reported reachable: %v", out)
	}
}

func TestDelaysEndpointChangesAnswers(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))
	if got := arrivalAt(t, mux, 0, 1, "08:00"); got != "08:30" {
		t.Fatalf("pre-delay arrival %s, want 08:30", got)
	}
	// Delay the 08:00 train by 20 minutes: the 08:00 traveller now rides it
	// at 08:20 and arrives 08:50.
	rec := post(t, mux, "/delays", `{"ops":[{"train":"h08","delay_min":20}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("delays status %d: %s", rec.Code, rec.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["epoch"].(float64) != 1 || resp["conns_retimed"].(float64) != 1 {
		t.Fatalf("delay response: %v", resp)
	}
	if got := arrivalAt(t, mux, 0, 1, "08:00"); got != "08:50" {
		t.Fatalf("post-delay arrival %s, want 08:50", got)
	}
	// Cancel it: the traveller falls through to the 09:00 train.
	rec = post(t, mux, "/delays", `{"ops":[{"train":"h08","cancel":true}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", rec.Code, rec.Body.String())
	}
	if got := arrivalAt(t, mux, 0, 1, "08:00"); got != "09:30" {
		t.Fatalf("post-cancel arrival %s, want 09:30", got)
	}
	// /version reflects the swaps.
	rec = get(t, mux, "/version")
	if rec.Code != http.StatusOK {
		t.Fatalf("version status %d", rec.Code)
	}
	var ver map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &ver); err != nil {
		t.Fatal(err)
	}
	if ver["epoch"].(float64) != 2 {
		t.Fatalf("version epoch %v, want 2", ver["epoch"])
	}
}

func TestDelaysEndpointValidation(t *testing.T) {
	s, mux := serverFor(t, hourlyNetwork(t))
	for body, want := range map[string]int{
		`not json`:                             http.StatusBadRequest,
		`{"ops":[]}`:                           http.StatusBadRequest,
		`{"ops":[{"route":99,"delay_min":5}]}`: http.StatusBadRequest, // unknown route
		`{"ops":[{"from":"27:99","delay_min":5}]}`: http.StatusBadRequest, // bad clock
		`{"ops":[{"train":"h08","delay_min":5}]}`:  http.StatusOK,
		`{"ops":[{"train":"no-such-train"}]}`:      http.StatusOK, // no-op batch is fine
		// A mistyped field used to decode to a no-op answered with 200.
		`{"ops":[{"route":0,"delay_mins":10}]}`:                http.StatusBadRequest,
		`{"op":[{"route":0,"delay_min":10}]}`:                  http.StatusBadRequest,
		`{"ops":[{"route":0,"delay_min":10}]} {"ops":[]}`:      http.StatusBadRequest, // trailing data
		`{"ops":[{"route":0,"delay_min":10}]} trailing`:        http.StatusBadRequest,
		"{\"ops\":[{\"train\":\"h09\",\"delay_min\":5}]}\n \n": http.StatusOK, // trailing whitespace is not data
	} {
		before := s.defaultLive().Epoch
		rec := post(t, mux, "/delays", body)
		if rec.Code != want {
			t.Errorf("body %q: status %d, want %d (%s)", body, rec.Code, want, rec.Body.String())
		}
		if after := s.defaultLive().Epoch; want != http.StatusOK && after != before {
			t.Errorf("body %q: rejected batch moved the epoch %d -> %d", body, before, after)
		}
	}
	// Method guard: GET /delays must not exist.
	if rec := get(t, mux, "/delays"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /delays status %d, want 405", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))
	arrivalAt(t, mux, 0, 1, "08:00")
	arrivalAt(t, mux, 0, 1, "09:00")
	post(t, mux, "/delays", `{"ops":[{"train":"h08","delay_min":5}]}`)
	rec := get(t, mux, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"tpserver_snapshot_epoch 1",
		"tpserver_updates_total 1",
		"tpserver_connections_retimed_total 1",
		`tpserver_requests_total{endpoint="v1_arrival"} 2`,
		`tpserver_requests_total{endpoint="delays"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestConcurrentDelaysAndQueries is the live-update integration test the CI
// race job runs: a real HTTP server on a synthetic network, concurrent
// /v1/arrival readers racing /delays writers. It asserts no 5xx, race
// cleanliness (under -race), and that the post-update answer reflects the
// accumulated delay.
func TestConcurrentDelaysAndQueries(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const (
		readers = 8
		queries = 40
		batches = 20 // sequential posts of +1 min each to the 08:00 train
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers*queries+batches)

	wg.Add(1)
	go func() { // writer: 20 batches of +1 minute
		defer wg.Done()
		for i := 0; i < batches; i++ {
			resp, err := http.Post(srv.URL+"/delays", "application/json",
				strings.NewReader(`{"ops":[{"train":"h08","delay_min":1}]}`))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				errs <- fmt.Errorf("delays returned %d", resp.StatusCode)
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				resp, err := http.Get(srv.URL + "/v1/arrival?from=0&to=1&depart=08:00")
				if err != nil {
					errs <- err
					return
				}
				var out map[string]any
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					errs <- fmt.Errorf("arrival returned %d", resp.StatusCode)
					continue
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All 20 one-minute delays accumulated: the 08:00 train now departs
	// 08:20 and arrives 08:50.
	if got := arrivalAt(t, mux, 0, 1, "08:00"); got != "08:50" {
		t.Fatalf("final arrival %s, want 08:50 after 20×1min delays", got)
	}
	resp, err := http.Get(srv.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ver map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ver); err != nil {
		t.Fatal(err)
	}
	if ver["epoch"].(float64) != batches {
		t.Fatalf("final epoch %v, want %d", ver["epoch"], batches)
	}
}

// TestAsyncRepairServing drives the full repair loop through the HTTP
// surface: a preprocessed network serves, POST /delays swaps the patched
// snapshot in immediately, the background *repair* restores the distance
// table under the same epoch, and /metrics reports the dtable repair
// counters.
func TestAsyncRepairServing(t *testing.T) {
	sel := transit.TransferSelection{Fraction: 1}
	opt := transit.Options{RepairMaxDirty: 1}
	n, _, err := hourlyNetwork(t).Preprocess(sel, opt)
	if err != nil {
		t.Fatal(err)
	}
	reg := live.NewRegistry(n, live.Config{Policy: live.ReprocessAsync, Selection: sel, Options: opt})
	defer reg.Close()
	s := newServer(reg, 1)
	mux := newMux(s)

	rec := post(t, mux, "/delays", `{"ops":[{"train":"h08","delay_min":15}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /delays: %d %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !reg.Snapshot().Preprocessed() {
		if time.Now().After(deadline) {
			t.Fatal("async repair never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec = get(t, mux, "/v1/arrival?from=0&to=1&depart=08:00")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"arrive":"08:45"`) {
		t.Fatalf("post-repair arrival: %d %s", rec.Code, rec.Body)
	}
	rec = get(t, mux, "/metrics")
	body := rec.Body.String()
	for _, want := range []string{"dtable_repairs_total 1", "dtable_full_rebuilds_total 0", "dtable_rows_repaired_total", "dtable_repreprocess_last_seconds"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRouteTableMatchesDocs keeps one HTTP surface: every pattern the
// package registers on the mux appears in docs/API.md's route table and
// vice versa, each documented route really reaches its handler, and the
// four pre-/v1 query routes are gone.
func TestRouteTableMatchesDocs(t *testing.T) {
	// Registered: every mux.HandleFunc pattern in the package source — the
	// mux does not list its patterns, and reading the source also sees
	// routes a role-less server (catalog mode) would skip.
	registered := map[string]bool{}
	callRE := regexp.MustCompile(`mux\.HandleFunc\("([^"]+)"`)
	for _, file := range []string{"main.go", "v1.go", "replication.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range callRE.FindAllSubmatch(src, -1) {
			registered[string(m[1])] = true
		}
	}
	// Documented: "METHOD /path" rows of the fenced route blocks. A GET|POST
	// row is a method-less mux pattern (the handler accepts exactly those).
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(GET\|POST|GET|POST) +(/\S+)`).FindAllSubmatch(doc, -1) {
		pattern := string(m[1]) + " " + string(m[2])
		if string(m[1]) == "GET|POST" {
			pattern = string(m[2])
		}
		documented[pattern] = true
	}
	if len(registered) == 0 {
		t.Fatal("found no mux.HandleFunc call in the package source")
	}
	for p := range registered {
		if !documented[p] {
			t.Errorf("%q is registered on the mux but missing from docs/API.md's route table", p)
		}
	}
	for p := range documented {
		if !registered[p] {
			t.Errorf("%q is in docs/API.md's route table but not registered on the mux", p)
		}
	}

	// An updater registers every route; each documented one must dispatch
	// to exactly its own pattern.
	s := newServer(live.NewRegistry(hourlyNetwork(t), live.Config{Policy: live.ServeUnpruned}), 1)
	s.pub = replica.NewPublisher(0, 1)
	defer s.pub.Close()
	mux := newMux(s)
	for pattern := range documented {
		method, path := http.MethodGet, pattern
		if i := strings.IndexByte(pattern, ' '); i >= 0 {
			method, path = pattern[:i], pattern[i+1:]
		}
		req := httptest.NewRequest(method, strings.ReplaceAll(path, "{network}", defaultNetworkName), nil)
		if _, got := mux.Handler(req); got != pattern {
			t.Errorf("%s %s dispatches to %q, want %q", method, path, got, pattern)
		}
	}
	for _, path := range []string{"/arrival?from=0&to=1&at=08:00", "/profile?from=0&to=1", "/journey?from=0&to=1&at=08:00", "/stations"} {
		if rec := get(t, mux, path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (removed with the pre-/v1 surface)", path, rec.Code)
		}
	}
}
