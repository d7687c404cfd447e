package transit

import "transit/internal/core"

// ParetoChoice is one point of the arrival-time / number-of-transfers
// Pareto frontier for a given departure.
type ParetoChoice struct {
	Transfers int
	Arrival   Ticks
}

// ParetoProfiles is the result of a multi-criteria one-to-all profile
// search: for every station, the full Pareto trade-off between arrival
// time and number of transfers, for all departure times at once.
type ParetoProfiles struct {
	n   *Network
	res *core.ParetoResult
}

// Source returns the search's source station.
func (p *ParetoProfiles) Source() StationID { return p.res.Source }

// MaxTransfers returns the search's transfer budget.
func (p *ParetoProfiles) MaxTransfers() int { return p.res.MaxTransfers }

// Stats returns the work counters of the run.
func (p *ParetoProfiles) Stats() QueryStats {
	return QueryStats{
		SettledConnections: p.res.Run.Total.SettledConns,
		MaxThreadSettled:   p.res.Run.MaxThreadSettled(),
		QueueOps:           p.res.Run.Total.QueuePushes + p.res.Run.Total.QueuePops,
		Elapsed:            p.res.Run.Elapsed,
	}
}

// Choices returns the Pareto frontier for traveling to dst when departing
// at dep: each entry needs one more transfer and arrives strictly earlier
// than the previous. Empty means dst is unreachable within the budget.
func (p *ParetoProfiles) Choices(dst StationID, dep Ticks) ([]ParetoChoice, error) {
	if err := p.n.checkStation(dst); err != nil {
		return nil, err
	}
	set, err := p.res.ParetoSet(dst, dep)
	if err != nil {
		return nil, err
	}
	out := make([]ParetoChoice, len(set))
	for i, c := range set {
		out[i] = ParetoChoice{Transfers: c.Transfers, Arrival: c.Arrival}
	}
	return out, nil
}

// To extracts the profile to dst under a transfer budget u (arrivals using
// at most u transfers).
func (p *ParetoProfiles) To(dst StationID, u int) (*Profile, error) {
	if err := p.n.checkStation(dst); err != nil {
		return nil, err
	}
	fn, err := p.res.StationProfile(dst, u)
	if err != nil {
		return nil, err
	}
	return &Profile{Source: p.res.Source, Target: dst, fn: fn, period: p.n.tt.Period, walkOnly: p.res.WalkOnly(dst)}, nil
}
