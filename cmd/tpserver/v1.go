// The versioned /v1 JSON API: typed request/response structs (api/v1), a
// structured error envelope with machine-readable codes, per-request
// deadlines, and context cancellation threaded into the search loops. The
// wire format is specified in docs/API.md.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"transit"
	apiv1 "transit/api/v1"
)

// deadlineHeader is the client-supplied per-request deadline in
// milliseconds. It can shorten the server default (-query-timeout), never
// extend it.
const deadlineHeader = "X-Deadline-Ms"

// maxMatrixCells bounds a /v1/matrix batch (sources × targets): a matrix
// request is the one endpoint whose cost the client controls
// quadratically.
const maxMatrixCells = 16384

// queryContext derives the context a query runs under: the request's own
// context (cancelled when the client disconnects), bounded by the client
// deadline header or the server default.
func (s *server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	timeout := s.queryTimeout
	if h := r.Header.Get(deadlineHeader); h != "" {
		if ms, err := strconv.Atoi(h); err == nil && ms > 0 {
			d := time.Duration(ms) * time.Millisecond
			if timeout <= 0 || d < timeout {
				timeout = d
			}
		}
	}
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// v1Error writes the structured error envelope and counts abandoned
// queries. Overload rejections additionally carry the Retry-After back-off
// header.
func (s *server) v1Error(w http.ResponseWriter, err error) {
	code := transit.ErrorCodeOf(err)
	if code == transit.CodeCancelled || code == transit.CodeDeadlineExceeded {
		s.cancelled.Add(1)
	}
	setRetryAfter(w, err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(apiv1.HTTPStatus(code))
	if err := json.NewEncoder(w).Encode(apiv1.NewErrorResponse(err)); err != nil {
		slog.Error("tpserver: encode error envelope failed", "err", err)
	}
}

// v1TraceError is v1Error for a traced query: the stage timings collected
// so far still travel on Server-Timing, and the failure closes out the
// trace (per-kind histogram + slow-query log) under the error's code.
func (s *server) v1TraceError(w http.ResponseWriter, tr *qtrace, err error) {
	w.Header().Set("Server-Timing", tr.serverTiming())
	s.v1Error(w, err)
	s.finishQuery(tr, string(transit.ErrorCodeOf(err)))
}

// stationRefParam turns a query parameter into a station reference: all
// digits means ID, anything else an exact name.
func stationRefParam(v string) *apiv1.StationRef {
	if v == "" {
		return nil
	}
	if id, err := strconv.Atoi(v); err == nil {
		ref := apiv1.ByID(id)
		return &ref
	}
	ref := apiv1.ByName(v)
	return &ref
}

// decodePlanRequest builds the wire request from a GET query string or a
// POST JSON body (unknown fields rejected).
func decodePlanRequest(w http.ResponseWriter, r *http.Request) (*apiv1.PlanRequest, error) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		p := &apiv1.PlanRequest{
			From:       stationRefParam(q.Get("from")),
			To:         stationRefParam(q.Get("to")),
			Depart:     q.Get("depart"),
			WindowFrom: q.Get("window_from"),
			WindowTo:   q.Get("window_to"),
		}
		if p.Depart == "" {
			p.Depart = q.Get("at") // legacy-compatible alias
		}
		if mt := q.Get("max_transfers"); mt != "" {
			v, err := strconv.Atoi(mt)
			if err != nil {
				return nil, &transit.Error{
					Code: transit.CodeBadTransfers, Field: "max_transfers",
					Message: fmt.Sprintf("bad max_transfers %q", mt),
				}
			}
			p.MaxTransfers = v
		}
		return p, nil
	case http.MethodPost:
		p := &apiv1.PlanRequest{}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(p); err != nil {
			return nil, &transit.Error{
				Code:    transit.CodeInvalidRequest,
				Message: "bad request body: " + err.Error(),
			}
		}
		return p, nil
	default:
		return nil, &transit.Error{
			Code: transit.CodeInvalidRequest, Message: "use GET or POST",
		}
	}
}

// v1Query is the shared handler shape of the /v1 query endpoints: decode,
// resolve against the current snapshot, Plan under the request context,
// render.
func (s *server) v1Query(kind transit.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := s.beginTrace(w, r, kind)
		// A client that already hung up gets no admission slot and no cache
		// fill: reject before any work is priced or queued.
		if err := r.Context().Err(); err != nil {
			s.v1TraceError(w, tr, err)
			return
		}
		h, err := s.acquire(r)
		if err != nil {
			s.v1TraceError(w, tr, err)
			return
		}
		defer h.Release()
		tr.network = h.Name()
		snap := h.Registry().Snapshot() // one load: the whole request sees this version
		n := snap.Net
		preq, err := decodePlanRequest(w, r)
		if err != nil {
			s.v1TraceError(w, tr, err)
			return
		}
		req, err := preq.Resolve(n, kind, transit.Options{Threads: s.threads})
		if err != nil {
			s.v1TraceError(w, tr, err)
			return
		}
		if kind == transit.KindMatrix && len(req.Sources)*len(req.Targets) > maxMatrixCells {
			s.v1TraceError(w, tr, &transit.Error{
				Code: transit.CodeInvalidRequest, Field: "sources",
				Message: fmt.Sprintf("matrix of %d×%d cells exceeds the %d-cell limit",
					len(req.Sources), len(req.Targets), maxMatrixCells),
			})
			return
		}
		ctx, cancel := s.queryContext(r)
		defer cancel()
		res, err := s.plan(ctx, h.Name(), snap, req, tr)
		if err != nil {
			s.v1TraceError(w, tr, err)
			return
		}
		var body any
		switch kind {
		case transit.KindEarliestArrival:
			body, err = apiv1.NewArrivalResponse(n, req, res)
		case transit.KindProfile:
			body, err = apiv1.NewProfileResponse(n, req, res)
		case transit.KindJourney:
			body, err = apiv1.NewJourneyResponse(n, req, res)
		case transit.KindPareto:
			body, err = apiv1.NewParetoResponse(n, req, res)
		case transit.KindMatrix:
			body, err = apiv1.NewMatrixResponse(n, req, res)
		}
		if err != nil {
			s.v1TraceError(w, tr, err)
			return
		}
		// Marshal once, timed — the encode stage. json.Marshal + "\n" is
		// byte-identical to the json.Encoder output the endpoint used
		// before, so golden wire tests are unaffected.
		encStart := time.Now()
		buf, err := json.Marshal(body)
		tr.encode = time.Since(encStart)
		if err != nil {
			s.v1TraceError(w, tr, transit.NewError(transit.CodeInternal, "response encoding failed", err))
			return
		}
		if tr.debug {
			// ?debug=trace: attach the stage breakdown (including the first
			// encode's duration) and re-marshal.
			if b, ok := body.(interface{ SetTrace(*apiv1.Trace) }); ok {
				b.SetTrace(tr.wire())
				if buf2, err := json.Marshal(body); err == nil {
					buf = buf2
				}
			}
		}
		w.Header().Set("Server-Timing", tr.serverTiming())
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
		w.Write([]byte{'\n'})
		s.finishQuery(tr, "ok")
	}
}

// v1Stations serves the station list.
func (s *server) v1Stations(w http.ResponseWriter, r *http.Request) {
	h, err := s.acquire(r)
	if err != nil {
		s.v1Error(w, err)
		return
	}
	defer h.Release()
	writeJSON(w, apiv1.NewStationsResponse(h.Registry().Snapshot().Net))
}

// v1Networks lists the catalog: every tenant the server can answer for,
// with residency, epoch and size. Cold tenants are reported without being
// loaded.
func (s *server) v1Networks(w http.ResponseWriter, r *http.Request) {
	resp := &apiv1.NetworksResponse{}
	for _, name := range s.cat.Names() {
		m, ok := s.cat.NetworkMetrics(name)
		if !ok {
			continue
		}
		resp.Networks = append(resp.Networks, apiv1.NetworkInfo{
			Name:          name,
			Default:       name == s.defaultNet,
			Resident:      m.Resident,
			Epoch:         m.Live.Epoch,
			SnapshotBytes: m.SizeBytes,
		})
	}
	writeJSON(w, resp)
}

// registerV1 wires the /v1 routes into the mux. Every query route exists
// twice: un-prefixed (answered by the default network, as before the
// catalog) and under /v1/{network}/ addressing a tenant by name. The two
// pattern sets are disjoint by segment count, so the mux never conflicts.
func registerV1(mux *http.ServeMux, s *server) {
	mux.HandleFunc("/v1/arrival", s.count("v1_arrival", s.v1Query(transit.KindEarliestArrival)))
	mux.HandleFunc("/v1/profile", s.count("v1_profile", s.v1Query(transit.KindProfile)))
	mux.HandleFunc("/v1/journey", s.count("v1_journey", s.v1Query(transit.KindJourney)))
	mux.HandleFunc("/v1/pareto", s.count("v1_pareto", s.v1Query(transit.KindPareto)))
	mux.HandleFunc("POST /v1/matrix", s.count("v1_matrix", s.v1Query(transit.KindMatrix)))
	mux.HandleFunc("GET /v1/stations", s.count("v1_stations", s.v1Stations))
	mux.HandleFunc("GET /v1/networks", s.count("v1_networks", s.v1Networks))
	mux.HandleFunc("/v1/{network}/arrival", s.count("v1_network_arrival", s.v1Query(transit.KindEarliestArrival)))
	mux.HandleFunc("/v1/{network}/profile", s.count("v1_network_profile", s.v1Query(transit.KindProfile)))
	mux.HandleFunc("/v1/{network}/journey", s.count("v1_network_journey", s.v1Query(transit.KindJourney)))
	mux.HandleFunc("/v1/{network}/pareto", s.count("v1_network_pareto", s.v1Query(transit.KindPareto)))
	mux.HandleFunc("POST /v1/{network}/matrix", s.count("v1_network_matrix", s.v1Query(transit.KindMatrix)))
	mux.HandleFunc("GET /v1/{network}/stations", s.count("v1_network_stations", s.v1Stations))
}

// legacyError renders an error the way the unversioned endpoints that
// remain (/delays, /version) always did — plain text, no envelope — while
// sharing the status mapping and the cancellation metric with /v1.
func (s *server) legacyError(w http.ResponseWriter, err error) {
	code := transit.ErrorCodeOf(err)
	if code == transit.CodeCancelled || code == transit.CodeDeadlineExceeded {
		s.cancelled.Add(1)
	}
	setRetryAfter(w, err)
	msg := err.Error()
	msg = strings.TrimPrefix(msg, "transit: ")
	http.Error(w, msg, apiv1.HTTPStatus(code))
}
