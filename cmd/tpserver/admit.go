// Admission control and result caching: every query endpoint answers
// through s.plan, which composes the epoch-keyed cache (outside) with the
// weighted admission gate (inside). Cache hits and coalesced waiters never
// consume an admission slot — only searches that actually run do — so under
// a spike of popular queries the cache absorbs most of the load and the
// gate sheds the excess early with 429 + Retry-After instead of letting
// latency collapse for everyone.
package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"transit"
	"transit/internal/admit"
	"transit/internal/live"
)

// plan answers req against snap — a snapshot of the named network —
// through cache and gate. The snapshot is pinned by the caller (one
// Registry.Snapshot() load per request, under a catalog handle), and
// (network, epoch) keys the cache: a delay batch bumps that network's
// epoch and every cached answer for it stops matching instantly, while
// other tenants' entries are untouched.
//
// When tr is non-nil the request is traced: its Effort block rides on
// Request.Options (cache-key-neutral — CacheKey ignores Options), the
// gate reports the queue wait, and the search is timed. The stage
// histograms are fed either way. Cache.Plan runs the fill closure on this
// goroutine, so the closure may write tr without synchronization; for
// coalesced requests the closure never runs and the whole wait on the
// leader lands in the cache-lookup stage.
func (s *server) plan(ctx context.Context, network string, snap *live.Snapshot, req transit.Request, tr *qtrace) (*transit.Result, error) {
	planStart := time.Now()
	if tr != nil {
		tr.epoch = snap.Epoch
		req.Options.Effort = &tr.effort
	}
	do := func(ctx context.Context, req transit.Request) (*transit.Result, error) {
		release, wait, err := s.gate.AcquireWait(ctx, admitWeight(req))
		if tr != nil {
			tr.queueWait = wait
		}
		s.obs.queueWait.ObserveDuration(wait)
		if err != nil {
			var ov *admit.Overload
			if errors.As(err, &ov) {
				return nil, transit.NewError(transit.CodeOverloaded,
					"server overloaded: too many concurrent searches", err)
			}
			return nil, err // the queued caller itself went away
		}
		defer release()
		if s.planHook != nil {
			s.planHook(ctx)
		}
		searchStart := time.Now()
		res, err := snap.Net.Plan(ctx, req)
		d := time.Since(searchStart)
		if tr != nil {
			tr.search = d
		}
		s.obs.searchDur.ObserveDuration(d)
		return res, err
	}
	res, outcome, err := s.cache.Plan(ctx, network, snap.Epoch, req, do)
	if tr != nil {
		tr.outcome = outcome
		lookup := time.Since(planStart) - tr.queueWait - tr.search
		if lookup < 0 {
			lookup = 0
		}
		tr.cacheLookup = lookup
		s.obs.cacheLookup.ObserveDuration(lookup)
		if tr.effort.Rounds.Load() > 0 {
			s.obs.settled.Observe(float64(tr.effort.LabelsSettled.Load()))
		}
	}
	return res, err
}

// admitWeight prices a request in admission units: a matrix batch runs one
// search per source, everything else is a single search. The gate clamps
// to its capacity, so an oversized batch still admits (alone) rather than
// deadlocking.
func admitWeight(req transit.Request) int64 {
	if req.Kind == transit.KindMatrix && len(req.Sources) > 1 {
		return int64(len(req.Sources))
	}
	return 1
}

// setRetryAfter adds the Retry-After back-off header when err carries an
// admission-gate rejection (whole seconds, at least one — the HTTP form of
// *Overload.RetryAfter).
func setRetryAfter(w http.ResponseWriter, err error) {
	var ov *admit.Overload
	if !errors.As(err, &ov) {
		return
	}
	secs := int(math.Ceil(ov.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}
