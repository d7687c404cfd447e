package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"transit"
)

// normalizeV1 parses a /v1 JSON body and zeroes the only nondeterministic
// field (query_ms), so bodies can be compared byte-for-byte against
// goldens.
func normalizeV1(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if _, ok := m["query_ms"]; ok {
		m["query_ms"] = 0
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// golden asserts status and the normalized body.
func golden(t *testing.T, rec *httptest.ResponseRecorder, wantStatus int, want string) {
	t.Helper()
	if rec.Code != wantStatus {
		t.Fatalf("status %d, want %d: %s", rec.Code, wantStatus, rec.Body.String())
	}
	if got := normalizeV1(t, rec.Body.Bytes()); got != want {
		t.Fatalf("body mismatch\ngot:  %s\nwant: %s", got, want)
	}
}

// TestV1ArrivalGolden pins the /v1/arrival wire format, POST and GET, by
// ID and by name, reachable and not.
func TestV1ArrivalGolden(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))
	// JSON object key order is canonicalized by normalizeV1 (map marshal
	// sorts keys), so the goldens are built the same way.
	want := canonical(t, `{"from":{"id":0,"name":"A"},"to":{"id":1,"name":"B"},"depart":"08:15","reachable":true,"arrive":"09:30","minutes":75,"query_ms":0}`)

	golden(t, post(t, mux, "/v1/arrival", `{"from":0,"to":"B","depart":"08:15"}`), 200, want)
	golden(t, get(t, mux, "/v1/arrival?from=0&to=1&at=08:15"), 200, want)
	golden(t, get(t, mux, "/v1/arrival?from=A&to=B&depart=08:15"), 200, want)

	// B has no outgoing trains: unreachable, still a 200 (absence of a
	// connection is an answer, not an error).
	wantUnreachable := canonical(t, `{"from":{"id":1,"name":"B"},"to":{"id":0,"name":"A"},"depart":"08:15","reachable":false,"minutes":0,"query_ms":0}`)
	golden(t, post(t, mux, "/v1/arrival", `{"from":1,"to":0,"depart":"08:15"}`), 200, wantUnreachable)
}

// TestV1ProfileGolden pins /v1/profile: all 17 hourly connections.
func TestV1ProfileGolden(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))
	var conns []string
	for h := 6; h <= 22; h++ {
		conns = append(conns, fmt.Sprintf(`{"depart":"%02d:00","arrive":"%02d:30","minutes":30}`, h, h))
	}
	want := canonical(t, `{"from":{"id":0,"name":"A"},"to":{"id":1,"name":"B"},"connections":[`+
		strings.Join(conns, ",")+`],"walk_minutes":-1,"query_ms":0}`)
	golden(t, post(t, mux, "/v1/profile", `{"from":"A","to":"B"}`), 200, want)
	golden(t, get(t, mux, "/v1/profile?from=0&to=1"), 200, want)
}

// TestV1JourneyGolden pins /v1/journey, success and the unreachable error
// envelope.
func TestV1JourneyGolden(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))
	want := canonical(t, `{"from":{"id":0,"name":"A"},"to":{"id":1,"name":"B"},"depart":"10:05","transfers":0,"legs":[
		{"train":"h11","from":{"id":0,"name":"A"},"depart":"11:00","to":{"id":1,"name":"B"},"arrive":"11:30","stops":1}
	],"query_ms":0}`)
	golden(t, post(t, mux, "/v1/journey", `{"from":0,"to":1,"depart":"10:05"}`), 200, want)

	rec := post(t, mux, "/v1/journey", `{"from":1,"to":0,"depart":"10:05"}`)
	if rec.Code != 404 {
		t.Fatalf("unreachable journey: status %d: %s", rec.Code, rec.Body.String())
	}
	assertErrorCode(t, rec, transit.CodeUnreachable)
}

// TestV1ParetoGolden pins /v1/pareto on the single-ride network.
func TestV1ParetoGolden(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))
	want := canonical(t, `{"from":{"id":0,"name":"A"},"to":{"id":1,"name":"B"},"depart":"07:45","max_transfers":2,
		"choices":[{"transfers":0,"arrive":"08:30","minutes":45}],"query_ms":0}`)
	golden(t, post(t, mux, "/v1/pareto", `{"from":0,"to":1,"depart":"07:45","max_transfers":2}`), 200, want)
	golden(t, get(t, mux, "/v1/pareto?from=0&to=1&depart=07:45&max_transfers=2"), 200, want)
}

// TestV1MatrixGolden pins /v1/matrix, including the self-pair zero and the
// unreachable -1.
func TestV1MatrixGolden(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))
	want := canonical(t, `{"depart":"08:00","sources":[{"id":0,"name":"A"},{"id":1,"name":"B"}],
		"targets":[{"id":0,"name":"A"},{"id":1,"name":"B"}],
		"minutes":[[0,30],[-1,0]],"query_ms":0}`)
	golden(t, post(t, mux, "/v1/matrix", `{"sources":[0,"B"],"targets":["A",1],"depart":"08:00"}`), 200, want)

	// GET is not accepted for the batch endpoint.
	if rec := get(t, mux, "/v1/matrix?from=0"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/matrix: status %d", rec.Code)
	}
}

// TestV1StationsGolden pins GET /v1/stations.
func TestV1StationsGolden(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))
	want := canonical(t, `{"stations":[
		{"id":0,"name":"A","transfer_min":2,"x":0,"y":0},
		{"id":1,"name":"B","transfer_min":2,"x":0,"y":0}
	]}`)
	golden(t, get(t, mux, "/v1/stations"), 200, want)
}

// assertErrorCode decodes the error envelope and checks its code.
func assertErrorCode(t *testing.T, rec *httptest.ResponseRecorder, code transit.ErrorCode) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Field   string `json:"field"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error envelope is not JSON: %v\n%s", err, rec.Body.String())
	}
	if env.Error.Code != string(code) {
		t.Fatalf("error code %q, want %q (%s)", env.Error.Code, code, rec.Body.String())
	}
	if env.Error.Message == "" {
		t.Fatalf("error envelope without message: %s", rec.Body.String())
	}
}

// TestV1ErrorCodes exercises every machine-readable error code reachable
// over the wire, with its HTTP status.
func TestV1ErrorCodes(t *testing.T) {
	_, mux := serverFor(t, hourlyNetwork(t))
	cases := []struct {
		name   string
		do     func() *httptest.ResponseRecorder
		status int
		code   transit.ErrorCode
	}{
		{"missing from", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/arrival", `{"to":1}`)
		}, 400, transit.CodeInvalidRequest},
		{"bad body", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/arrival", `{"from":`)
		}, 400, transit.CodeInvalidRequest},
		{"unknown field", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/arrival", `{"from":0,"to":1,"teleport":true}`)
		}, 400, transit.CodeInvalidRequest},
		{"unknown station name", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/arrival", `{"from":"Nowhere","to":1}`)
		}, 400, transit.CodeUnknownStation},
		{"station out of range", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/arrival", `{"from":7,"to":1}`)
		}, 400, transit.CodeStationRange},
		{"bad time", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/arrival", `{"from":0,"to":1,"depart":"noonish"}`)
		}, 400, transit.CodeBadTime},
		// Clock values that do not fit below Infinity: the largest day count
		// that still parses lands past it with its hours, and bigger ones
		// used to wrap around int32 into a valid-looking time.
		{"depart past the representable range", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/arrival", `{"from":0,"to":1,"depart":"745654:01:04"}`)
		}, 400, transit.CodeBadTime},
		{"journey depart wrapping int32", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/journey", `{"from":0,"to":1,"depart":"3000000:00:00"}`)
		}, 400, transit.CodeBadTime},
		{"matrix depart wrapping int32", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/matrix", `{"sources":[0],"targets":[1],"depart":"17895698:00"}`)
		}, 400, transit.CodeBadTime},
		{"window on arrival", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/arrival", `{"from":0,"to":1,"window_from":"08:00","window_to":"10:00"}`)
		}, 400, transit.CodeBadWindow},
		{"transfers on profile", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/profile", `{"from":0,"to":1,"max_transfers":3}`)
		}, 400, transit.CodeBadTransfers},
		{"pareto budget out of range", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/pareto", `{"from":0,"to":1,"max_transfers":99}`)
		}, 400, transit.CodeBadTransfers},
		{"matrix without targets", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/matrix", `{"sources":[0],"depart":"08:00"}`)
		}, 400, transit.CodeInvalidRequest},
		{"journey unreachable", func() *httptest.ResponseRecorder {
			return post(t, mux, "/v1/journey", `{"from":1,"to":0,"depart":"08:00"}`)
		}, 404, transit.CodeUnreachable},
	}
	for _, tc := range cases {
		rec := tc.do()
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
		}
		assertErrorCode(t, rec, tc.code)
	}
}

// TestV1CancelledClient sends a request whose context is already cancelled
// — the HTTP shape of a client that disconnected — and expects the typed
// cancellation envelope plus a tick of queries_cancelled_total.
func TestV1CancelledClient(t *testing.T) {
	s, mux := serverFor(t, hourlyNetwork(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/profile",
		strings.NewReader(`{"from":0,"to":1}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("status %d, want 499: %s", rec.Code, rec.Body.String())
	}
	assertErrorCode(t, rec, transit.CodeCancelled)
	if got := s.cancelled.Load(); got != 1 {
		t.Fatalf("queries_cancelled_total = %d, want 1", got)
	}
	// The metric is exported.
	metrics := get(t, mux, "/metrics").Body.String()
	if !strings.Contains(metrics, "tpserver_queries_cancelled_total 1") {
		t.Fatalf("metric missing from /metrics:\n%s", metrics)
	}
}

// TestV1DeadlineExceeded runs a deliberately oversized matrix under a 1 ms
// deadline on a larger network; the search must answer with the deadline
// envelope and be counted. The plan hook holds the search until the
// deadline has passed, since a busy host can delay Go's timers past a whole
// search; core's TestCancel* tests cancel searches that are running.
func TestV1DeadlineExceeded(t *testing.T) {
	n, err := transit.Generate("oahu", 0.35, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, mux := serverFor(t, n)
	s.planHook = func(ctx context.Context) { <-ctx.Done() }
	var sources []string
	for i := 0; i < n.NumStations(); i++ {
		sources = append(sources, fmt.Sprintf("%d", i))
	}
	body := fmt.Sprintf(`{"sources":[%s],"targets":[%s],"depart":"08:00"}`,
		strings.Join(sources, ","), strings.Join(sources[:3], ","))
	req := httptest.NewRequest(http.MethodPost, "/v1/matrix", strings.NewReader(body))
	req.Header.Set(deadlineHeader, "1")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != 504 {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	assertErrorCode(t, rec, transit.CodeDeadlineExceeded)
	if s.cancelled.Load() == 0 {
		t.Fatal("queries_cancelled_total not incremented")
	}
}

// canonical re-marshals a JSON literal through a map, giving the same key
// order normalizeV1 produces.
func canonical(t *testing.T, s string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(s), &m); err != nil {
		t.Fatalf("bad golden literal: %v\n%s", err, s)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
