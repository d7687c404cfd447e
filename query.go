package transit

import (
	"fmt"
	"time"

	"transit/internal/core"
	"transit/internal/timetable"
	"transit/internal/timeutil"
	"transit/internal/ttf"
)

// Options tunes query execution. The zero value is a sensible default: one
// thread, no journey tracking, one preprocessing worker, no effort block.
type Options struct {
	// Threads is the number of parallel workers (goroutines) the profile
	// search partitions conn(S) over; values < 1 mean 1.
	Threads int
	// TrackJourneys records parent links so AllProfiles.Journey can
	// reconstruct itineraries (slightly more memory per query).
	TrackJourneys bool
	// PreprocessWorkers bounds how many distance-table rows (source
	// stations) Preprocess computes concurrently; values < 1 mean 1, the
	// paper's setup, where parallelism lives inside each one-to-all run
	// (Threads). Workers pull rows from a shared chunked queue and each
	// reuses one pooled search workspace.
	PreprocessWorkers int
	// Effort, when non-nil, receives the query's search-work counters
	// (connections scanned, labels settled, priority-queue traffic). The
	// block is caller-owned and atomic, so one Effort can be shared across
	// the worker goroutines of a matrix or parallel profile query. Nil —
	// the default — costs nothing.
	Effort *SearchEffort
}

// sourceParallelism returns the effective PreprocessWorkers value.
func (o Options) sourceParallelism() int {
	if o.PreprocessWorkers < 1 {
		return 1
	}
	return o.PreprocessWorkers
}

func (o Options) core() core.Options {
	return core.Options{Threads: o.Threads, TrackParents: o.TrackJourneys, Effort: o.Effort}
}

// Profile is the travel-time profile between two stations: for every
// departure time of the period, the best connection. It wraps the reduced
// piecewise-linear distance function dist(S, T, ·).
type Profile struct {
	Source, Target StationID
	fn             *ttf.Function
	period         timeutil.Period
	// walkOnly is the pure walking time over footpaths (Infinity when not
	// walkable); factored into EarliestArrival/TravelTime.
	walkOnly Ticks
}

// ConnectionPoint is one relevant departure of a profile.
type ConnectionPoint struct {
	Departure Ticks // departure time point at the source
	Arrival   Ticks // absolute arrival time at the target
}

// Connections lists the profile's relevant departures in departure order —
// exactly the connections a travel-information system would display for
// "all day".
func (p *Profile) Connections() []ConnectionPoint {
	pts := p.fn.Points()
	out := make([]ConnectionPoint, len(pts))
	for i, pt := range pts {
		out[i] = ConnectionPoint{Departure: pt.Dep, Arrival: pt.Arr()}
	}
	return out
}

// EarliestArrival returns the earliest arrival when departing at the
// absolute time dep, or Infinity if the target is unreachable.
func (p *Profile) EarliestArrival(dep Ticks) Ticks {
	if p.Source == p.Target {
		return dep
	}
	best := Infinity
	if !p.walkOnly.IsInf() {
		best = dep + p.walkOnly
	}
	if a := p.fn.EvalArrival(dep); a < best {
		best = a
	}
	return best
}

// TravelTime returns the door-to-door travel time (wait + ride) when
// departing at dep.
func (p *Profile) TravelTime(dep Ticks) Ticks {
	if p.Source == p.Target {
		return 0
	}
	a := p.EarliestArrival(dep)
	if a.IsInf() {
		return Infinity
	}
	return a - dep
}

// NextDeparture returns the best connection point for a traveler present at
// the source at time dep, with the wait until boarding.
func (p *Profile) NextDeparture(dep Ticks) (ConnectionPoint, Ticks, error) {
	if p.fn.Empty() {
		return ConnectionPoint{}, Infinity, fmt.Errorf("transit: %d→%d unreachable", p.Source, p.Target)
	}
	pt, wait := p.fn.NextDeparture(dep)
	return ConnectionPoint{Departure: pt.Dep, Arrival: pt.Arr()}, wait, nil
}

// WalkOnly returns the pure walking time between the endpoints over
// footpaths, or Infinity when not walkable.
func (p *Profile) WalkOnly() Ticks { return p.walkOnly }

// Empty reports whether the target is unreachable at all times (not even
// on foot).
func (p *Profile) Empty() bool { return p.fn.Empty() && p.walkOnly.IsInf() }

// QueryStats reports the work of one query, mirroring the paper's metrics.
type QueryStats struct {
	// SettledConnections is the number of (node, connection) labels settled
	// (summed over threads): station labels popped from the queue, plus the
	// route-node records the trip scans write, or, under a distance table,
	// the route-node labels popped.
	SettledConnections int64
	// MaxThreadSettled is the critical-path work of the slowest thread.
	MaxThreadSettled int64
	// QueueOps counts pushes plus pops.
	QueueOps int64
	// Elapsed is the query wall time.
	Elapsed time.Duration
	// Local/TableHit report the station-to-station query classification.
	Local    bool
	TableHit bool
}

// PreprocessStats reports the cost of distance-table preprocessing,
// matching the Prepro columns of the paper's Table 2.
type PreprocessStats struct {
	TransferStations int
	Elapsed          time.Duration
	// TableBytes estimates the stored profiles' footprint (the paper's
	// table-size figure).
	TableBytes int64
	// Rows is the table's row count.
	Rows int
	// Deprecated: always Rows. The table is rebuilt after every delay
	// batch; kept until benchmark/ stops reading it (ROADMAP (f)).
	RowsRepaired int
	// Deprecated: always 0, see RowsRepaired.
	RowsWindowed int
	// Deprecated: always true, see RowsRepaired.
	FullRebuild bool
}

// AllProfiles is the result of a one-to-all profile search.
type AllProfiles struct {
	n   *Network
	res *core.ProfileResult
}

// Source returns the search's source station.
func (a *AllProfiles) Source() StationID { return a.res.Source }

// Stats returns the work counters of the run.
func (a *AllProfiles) Stats() QueryStats { return queryStats(&a.res.Run) }

// To extracts the profile to one target station.
func (a *AllProfiles) To(dst StationID) (*Profile, error) {
	if err := a.n.checkStation(dst); err != nil {
		return nil, err
	}
	fn, err := a.res.StationProfile(dst)
	if err != nil {
		return nil, err
	}
	return &Profile{Source: a.res.Source, Target: dst, fn: fn, period: a.n.tt.Period, walkOnly: a.res.WalkOnly(dst)}, nil
}

// EarliestArrival evaluates the profile to dst at departure time dep.
func (a *AllProfiles) EarliestArrival(dst StationID, dep Ticks) Ticks {
	return a.res.EarliestArrival(dst, dep)
}

// Journey reconstructs the itinerary to dst for a departure at dep. The
// search must have been run with Options.TrackJourneys. When many journeys
// from the same source are needed, run Plan once with KindOneToAll and
// Options.TrackJourneys and call Journey on its result for each of them,
// instead of one KindJourney request per itinerary.
func (a *AllProfiles) Journey(dst StationID, dep Ticks) (*Journey, error) {
	if err := a.n.checkStation(dst); err != nil {
		return nil, err
	}
	fn, err := a.res.StationProfile(dst)
	if err != nil {
		return nil, err
	}
	if fn.Empty() {
		return nil, unreachable(a.res.Source, dst)
	}
	pt, _ := fn.NextDeparture(dep)
	// Find the connection index whose departure point and duration realize
	// this profile point. The profile keeps departures wrapped into the
	// period; a walk-seeded connection's effective departure may be negative.
	idx := -1
	for i, d := range a.res.Deps {
		if a.n.tt.Period.Wrap(d) != pt.Dep {
			continue
		}
		arr := a.res.StationArrival(dst, i)
		if !arr.IsInf() && arr-d == pt.W {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("transit: internal error: profile point (%d,%d) has no matching label", pt.Dep, pt.W)
	}
	rides, err := a.res.JourneyConnections(dst, idx)
	if err != nil {
		return nil, err
	}
	return a.n.journeyFromConnections(rides, dep)
}

// unreachable is the error of a journey between stations no train connects.
func unreachable(src, dst StationID) error {
	return fmt.Errorf("transit: %d→%d unreachable", src, dst)
}

func (n *Network) checkStation(s StationID) error {
	if int(s) < 0 || int(s) >= n.tt.NumStations() {
		return errf(CodeStationRange, "station", "station %d out of range [0,%d)", s, n.tt.NumStations())
	}
	return nil
}

// journeyFromConnections groups ridden elementary connections into legs.
func (n *Network) journeyFromConnections(rides []timetable.ConnID, requestedDep Ticks) (*Journey, error) {
	if len(rides) == 0 {
		return nil, fmt.Errorf("transit: empty journey")
	}
	j := &Journey{RequestedDeparture: requestedDep}
	var cur *Leg
	for _, id := range rides {
		c := n.tt.Connections[id]
		if cur == nil || cur.train != c.Train {
			if cur != nil {
				j.Legs = append(j.Legs, *cur)
			}
			cur = &Leg{
				train:     c.Train,
				Train:     n.tt.Trains[c.Train].Name,
				From:      c.From,
				FromName:  n.tt.Stations[c.From].Name,
				Departure: c.Dep,
			}
		}
		cur.To = c.To
		cur.ToName = n.tt.Stations[c.To].Name
		cur.Arrival = c.Arr
		cur.Stops++
	}
	j.Legs = append(j.Legs, *cur)
	return j, nil
}

// Journey is a reconstructed itinerary: a sequence of train legs with
// transfers between them.
type Journey struct {
	RequestedDeparture Ticks
	Legs               []Leg
}

// Leg is one train ride within a journey.
type Leg struct {
	train     timetable.TrainID
	Train     string
	From      StationID
	FromName  string
	To        StationID
	ToName    string
	Departure Ticks // departure time point at From
	Arrival   Ticks // absolute arrival time at To
	Stops     int   // number of elementary connections ridden
}

// Transfers returns the number of train changes.
func (j *Journey) Transfers() int { return len(j.Legs) - 1 }

// String renders the journey compactly.
func (j *Journey) String() string {
	s := ""
	for i, l := range j.Legs {
		if i > 0 {
			s += " ⇄ "
		}
		s += fmt.Sprintf("%s (%s %d→%d)", l.Train, l.FromName, l.Departure, l.Arrival)
	}
	return s
}
