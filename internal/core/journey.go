package core

import (
	"errors"
	"fmt"
	"time"

	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// ErrUnreachable is returned by JourneySearch when no path at all leads
// from the source to the target.
var ErrUnreachable = errors.New("core: target unreachable")

// JourneySearch runs the smallest profile search whose result still holds
// the itinerary a whole-period OneToAll would give for a traveller at the
// source at time depart: the first point of the reduced profile
// dist(S, T, ·) at or after depart, which is the connection that leaves
// latest among those arriving earliest. Set opts.TrackParents to extract it.
//
// The timetable is periodic, so depart is taken at its time point τ ∈ Π.
// A point query gives the earliest arrival a* = dist(S, T, τ). Earliest
// arrival never decreases with the departure (FIFO), and a connection
// leaving at τ + π or later cannot arrive by a* (one period earlier it would
// leave at or after τ and arrive at a* − π), so the wanted connection c
// leaves in [τ, min(a*, τ + π)): today when a* < π, and otherwise tomorrow
// exactly if dist(S, T, π) is still a* — one more point query. Its time
// point (its effective departure wrapped into the period, which for a walk
// into a train just after midnight is late in the evening) is then in
// [τ, min(a*, π−1)] or in [0, min(a*−π, τ−1)], and one search over the seed
// connections in that window, keeping no label after a* (oneToAll),
// contains it. Of the labels at T within the bound all arrive at a*, so
// connection reduction keeps the latest one, c, and the extraction picks it
// whatever the requested time.
//
// The itinerary is the whole-period one, not merely as good. Both searches
// search c by itself from the same seed, after every connection that leaves
// later, and refuse a label of c whose key is no better than the bound at
// its node: the earliest arrival there of any later connection of the
// search (spcs.go). Induction from the latest connection down shows that
// every label at or below a* is created with the same key in both, except
// where a connection one search has and the other lacks sets the bound. Such
// a connection that refused a label on an itinerary bringing c to T at a*,
// or one of that label's equally good parents, reaches it no later than c,
// hence T by a* too: it leaves later than c, and c would not be the latest
// such departure (or a* not the earliest arrival). A label beyond the bound
// refuses nothing at or below it. The labels on c's best itineraries and
// their equally good parents are therefore created in both searches with
// the same keys; which parent a label keeps depends on the order its
// predecessors settled in c's own queue, and equal keys surface in the
// reverse of their push order whatever else is queued (pq.RadixHeap), so
// that is the same as well. (With Threads > 1 the two searches partition
// conn(S) differently, and of two connections that leave and arrive together
// either may be kept.)
//
// Where walking alone beats every train (and for S = T) the point query is
// lower than any train arrival and the bounded search finds nothing at T;
// the whole-period search then answers as it always did. The returned Run
// sums the point queries and every profile search; each of them has already
// reported itself to opts.Effort.
func (ws *Workspace) JourneySearch(env QueryEnv, source, target timetable.StationID, depart timeutil.Ticks, opts QueryOptions) (*ProfileResult, error) {
	g := env.Graph
	if g == nil {
		return nil, fmt.Errorf("core: QueryEnv.Graph is nil")
	}
	if depart < 0 {
		return nil, fmt.Errorf("core: negative departure time %d", depart)
	}
	start := time.Now()
	pi := g.TT.Period.Len()
	tau := g.TT.Period.Wrap(depart)

	var before stats.Counters // the work done ahead of the search returned
	pt, err := ws.EarliestArrival(env, source, target, tau, opts)
	if err != nil {
		return nil, err
	}
	before.Add(pt.Run.Total)
	aStar := pt.ArrT[0]
	if aStar.IsInf() {
		return nil, ErrUnreachable
	}
	from, to, until := tau, aStar, aStar
	if aStar >= pi {
		to = pi - 1
		next, err := ws.EarliestArrival(env, source, target, pi, opts)
		if err != nil {
			return nil, err
		}
		before.Add(next.Run.Total)
		if next.ArrT[0] == aStar && tau > 0 {
			from, to, until = 0, timeutil.Min(aStar-pi, tau-1), aStar-pi
		}
	}

	res, err := ws.oneToAll(g, source, from, to, until, opts.Options)
	if err != nil {
		return nil, err
	}
	if !res.reaches(target) {
		before.Add(res.Run.Total)
		if res, err = ws.oneToAll(g, source, 0, timeutil.Infinity, timeutil.Infinity, opts.Options); err != nil {
			return nil, err
		}
	}
	res.Run.Total.Add(before)
	res.Run.PerThread[0].Add(before) // the earlier phases ran on one thread
	res.Run.Elapsed = time.Since(start)
	return res, nil
}

// reaches reports whether any seed connection has a label at station t.
func (r *ProfileResult) reaches(t timetable.StationID) bool {
	for i := range r.Conns {
		if !r.StationArrival(t, i).IsInf() {
			return true
		}
	}
	return false
}
