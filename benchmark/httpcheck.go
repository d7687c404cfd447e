package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"transit"
	apiv1 "transit/api/v1"
)

// An HTTP answer is compared in normal form: the response decoded into its
// api/v1 type with the fields that legitimately differ between two correct
// answers (query_ms, the debug trace block) cleared, then re-encoded. A 404
// is a correct answer when the model agrees the target is unreachable, so
// its normal form is the error code.

// normalize brings a server response to normal form and reports the station
// ids it echoes.
func normalize(kind transit.Kind, status int, body []byte) (norm string, from, to int, err error) {
	if status == http.StatusNotFound {
		var er apiv1.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			return "", 0, 0, fmt.Errorf("undecodable 404 body: %w", err)
		}
		return "404:" + er.Error.Code, -1, -1, nil
	}
	if status != http.StatusOK {
		return "", 0, 0, fmt.Errorf("status %d: %.200s", status, body)
	}
	var v any
	switch kind {
	case transit.KindEarliestArrival:
		r := &apiv1.ArrivalResponse{}
		if err = json.Unmarshal(body, r); err == nil {
			r.QueryMS, r.Trace = 0, nil
			from, to, v = r.From.ID, r.To.ID, r
		}
	case transit.KindJourney:
		r := &apiv1.JourneyResponse{}
		if err = json.Unmarshal(body, r); err == nil {
			r.QueryMS, r.Trace = 0, nil
			from, to, v = r.From.ID, r.To.ID, r
		}
	case transit.KindProfile:
		r := &apiv1.ProfileResponse{}
		if err = json.Unmarshal(body, r); err == nil {
			r.QueryMS, r.Trace = 0, nil
			from, to, v = r.From.ID, r.To.ID, r
		}
	default:
		err = fmt.Errorf("no normal form for %s", kind)
	}
	if err != nil {
		return "", 0, 0, fmt.Errorf("undecodable body: %w", err)
	}
	b, err := json.Marshal(v)
	return string(b), from, to, err
}

// answer is the model's answer to q on network n as tpserver would send it:
// status and encoded body.
func answer(n *transit.Network, q query) (status int, body []byte, err error) {
	req := q.request()
	res, err := n.Plan(context.Background(), req)
	var v any
	switch {
	case transit.ErrorCodeOf(err) == transit.CodeUnreachable:
		status, v, err = http.StatusNotFound, apiv1.NewErrorResponse(err), nil
	case err != nil:
		return 0, nil, err
	case q.Kind == transit.KindEarliestArrival:
		v, err = apiv1.NewArrivalResponse(n, req, res)
	case q.Kind == transit.KindJourney:
		v, err = apiv1.NewJourneyResponse(n, req, res)
	case q.Kind == transit.KindProfile:
		v, err = apiv1.NewProfileResponse(n, req, res)
	default:
		err = fmt.Errorf("no /v1 rendering for %s", q.Kind)
	}
	if err != nil {
		return 0, nil, err
	}
	if status == 0 {
		status = http.StatusOK
	}
	body, err = json.Marshal(v)
	return status, body, err
}

// expected is the normal form of the model's answer to q on network n.
func expected(n *transit.Network, q query) (string, error) {
	status, body, err := answer(n, q)
	if err != nil {
		return "", err
	}
	norm, _, _, err := normalize(q.Kind, status, body)
	return norm, err
}

type oracleKey struct {
	epoch uint64
	q     query
}

// verifyHTTP checks the answers of an HTTP phase against the model: models[e]
// is the network after the first e delay batches (a single entry when there
// are none). Every answer must be a well-formed 200 or 404 that echoes the
// stations asked for. A seeded sample of the shots, as many as take at most
// maxOracle distinct model computations, is compared in normal form with the
// model's answer at some epoch of the shot's window. ok, when non-nil, is set
// per shot to whether it passed.
func verifyHTTP(models []*transit.Network, list []query, shots []shot, seed int64, maxOracle, workers int, ok []bool) verdict {
	var v verdict
	norms := make([]string, len(shots))
	for i := range shots {
		s := &shots[i]
		q := list[s.qi%len(list)]
		v.checked++
		if s.err != nil {
			v.fail("shot %d (%+v): %v", i, q, s.err)
			continue
		}
		norm, from, to, err := normalize(q.Kind, s.status, s.body)
		switch {
		case err != nil:
			v.fail("shot %d (%+v): %v", i, q, err)
		case from >= 0 && (from != int(q.From) || to != int(q.To)):
			v.fail("shot %d (%+v): answer is for %d→%d", i, q, from, to)
		default:
			norms[i] = norm
			if ok != nil {
				ok[i] = true
			}
		}
	}

	// Choose the sample: shots in seeded order until their windows need more
	// than maxOracle distinct model answers.
	order := rngFor(seed, "verify-http").Perm(len(shots))
	need := make(map[oracleKey]string)
	var sample []int
	for _, i := range order {
		if norms[i] == "" {
			continue
		}
		s := &shots[i]
		var add []oracleKey
		for e := s.epochLo; e <= s.epochHi && int(e) < len(models); e++ {
			k := oracleKey{e, list[s.qi%len(list)]}
			if _, have := need[k]; !have {
				add = append(add, k)
			}
		}
		if len(need)+len(add) > maxOracle {
			continue
		}
		for _, k := range add {
			need[k] = ""
		}
		sample = append(sample, i)
	}

	keys := make([]oracleKey, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	answers := make([]string, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				answers[j], errs[j] = expected(models[keys[j].epoch], keys[j].q)
			}
		}()
	}
	for j := range keys {
		next <- j
	}
	close(next)
	wg.Wait()
	for j, k := range keys {
		if errs[j] != nil {
			v.fail("model answer for %+v at epoch %d: %v", k.q, k.epoch, errs[j])
		}
		need[k] = answers[j]
	}
	v.oracle = len(keys)

	for _, i := range sample {
		s := &shots[i]
		q := list[s.qi%len(list)]
		match := false
		for e := s.epochLo; e <= s.epochHi && int(e) < len(models); e++ {
			if need[oracleKey{e, q}] == norms[i] {
				match = true
				break
			}
		}
		if !match {
			v.fail("shot %d (%+v): answer %.300s is not the model's at any epoch in [%d,%d], e.g. %.300s",
				i, q, norms[i], s.epochLo, s.epochHi, need[oracleKey{s.epochLo, q}])
			if ok != nil {
				ok[i] = false
			}
		}
	}
	return v
}
