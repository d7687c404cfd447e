// Package transit is a Go library for computing best connections in public
// transportation networks. It implements the parallel self-pruning
// connection-setting profile-search algorithm of Delling, Katz and Pajor
// ("Parallel Computation of Best Connections in Public Transportation
// Networks", IPDPS 2010) together with the station-to-station accelerations
// of that paper: stopping criterion, distance-table pruning over transfer
// stations, and target pruning.
//
// The central object is a Network, built from a timetable (loaded from
// GTFS, the library's own text format, or the synthetic generator). All
// queries run through one unified, context-aware entry point:
//
//	res, err := net.Plan(ctx, transit.Request{Kind: transit.KindProfile, From: a, To: b})
//
// Request kinds cover the paper's queries and their batch forms —
// earliest-arrival (time-query), journey, station-to-station profile,
// one-to-all (optionally windowed), multi-criteria pareto, and matrix
// (many-to-many earliest arrivals). Plan honors ctx cancellation and
// deadlines inside the search loops and reports failures as typed *Error
// values with machine-readable codes; cmd/tpserver exposes the same
// requests over the versioned /v1 JSON API (docs/API.md).
//
// Preprocess accelerates repeated station-to-station queries with a
// distance table between automatically selected transfer stations.
//
// # Dynamic updates
//
// Networks are immutable; delay feeds produce new networks. ApplyUpdates
// applies a batch of train-level DelayOps (delays and cancellations,
// selected by train name, route class and/or departure window) by patching
// only the touched connection and ride-edge slices, sharing everything else
// with the receiver, so in-flight queries on the old network stay valid.
// That snapshot discipline is what internal/live builds on to serve delay
// ingestion under live traffic (cmd/tpserver's POST /delays): queries
// always read one consistent version, updates swap the next version in
// atomically. Updates invalidate a distance table — the patched network
// returns Preprocessed() == false — so serving systems re-preprocess
// (asynchronously, in live.Registry) or run unpruned.
package transit

import (
	"fmt"
	"io"

	"transit/internal/core"
	"transit/internal/dtable"
	"transit/internal/gen"
	"transit/internal/graph"
	"transit/internal/gtfs"
	"transit/internal/stationgraph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// Ticks is a point in time or duration in timetable ticks (minutes by
// default). See FormatClock/ParseClock for rendering.
type Ticks = timeutil.Ticks

// Infinity is the "unreachable" sentinel for times and durations.
const Infinity = timeutil.Infinity

// StationID identifies a station of a Network.
type StationID = timetable.StationID

// Station describes a stop of the network.
type Station = timetable.Station

// Network is an immutable, query-ready public transportation network. All
// methods are safe for concurrent use; per-query state lives on the stack
// of each call.
type Network struct {
	tt *timetable.Timetable
	g  *graph.Graph
	sg *stationgraph.Graph

	byName map[string]StationID

	// Preprocessing artifacts (nil until Preprocess is called). A Network
	// with preprocessing is still immutable: Preprocess returns a new
	// wrapper sharing the base data.
	table *dtable.Table

	// patched marks networks produced by dynamic updates (ApplyUpdates, or a
	// snapshot restored at epoch > 0): their times differ
	// from the base schedule's. WriteSnapshot records it in the header's
	// patched flag and LoadSnapshot restores it.
	patched bool
}

// NewNetwork builds the query structures (time-dependent graph of the
// realistic model, station graph) for a validated timetable.
func NewNetwork(tt *timetable.Timetable) *Network {
	n := &Network{
		tt:     tt,
		g:      graph.Build(tt),
		sg:     stationgraph.Build(tt),
		byName: make(map[string]StationID, len(tt.Stations)),
	}
	for _, s := range tt.Stations {
		if _, dup := n.byName[s.Name]; !dup {
			n.byName[s.Name] = s.ID
		}
	}
	return n
}

// LoadGTFS reads a GTFS feed directory into a Network.
func LoadGTFS(dir string) (*Network, error) {
	tt, err := gtfs.Load(dir)
	if err != nil {
		return nil, err
	}
	return NewNetwork(tt), nil
}

// ReadNetwork parses a timetable in the library's text format into a
// Network. (The binary encoding travels only inside snapshots: LoadSnapshot.)
func ReadNetwork(r io.Reader) (*Network, error) {
	tt, err := timetable.Read(r)
	if err != nil {
		return nil, err
	}
	return NewNetwork(tt), nil
}

// WriteTimetable serializes the network's timetable in the library's text
// format (human-readable, diffable).
func (n *Network) WriteTimetable(w io.Writer) error { return timetable.Write(w, n.tt) }

// Generate builds a synthetic network. Family is one of "oahu",
// "losangeles", "washington", "germany", "europe" — structural analogues of
// the paper's five evaluation inputs (see the internal/gen package
// comment). Scale 1.0 is the default laptop-friendly size; seed 0 picks a
// per-family default.
func Generate(family string, scale float64, seed int64) (*Network, error) {
	cfg, err := gen.FamilyConfig(gen.Family(family), scale, seed)
	if err != nil {
		return nil, err
	}
	tt, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return NewNetwork(tt), nil
}

// GenerateFamilies lists the synthetic family names in the paper's order.
func GenerateFamilies() []string {
	fams := gen.Families()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = string(f)
	}
	return out
}

// Timetable exposes the underlying validated timetable.
func (n *Network) Timetable() *timetable.Timetable { return n.tt }

// NumStations returns the number of stations.
func (n *Network) NumStations() int { return n.tt.NumStations() }

// Station returns a station by ID.
func (n *Network) Station(id StationID) Station { return n.tt.Stations[id] }

// StationByName finds a station by exact name.
func (n *Network) StationByName(name string) (StationID, bool) {
	id, ok := n.byName[name]
	return id, ok
}

// Period returns the timetable period π (1440 for minute-of-day networks).
func (n *Network) Period() Ticks { return n.tt.Period.Len() }

// FormatClock renders an absolute tick value as a clock time.
func (n *Network) FormatClock(t Ticks) string { return n.tt.Period.FormatClock(t) }

// ParseClock parses "HH:MM" (or "D:HH:MM") into ticks.
func ParseClock(s string) (Ticks, error) { return timeutil.ParseClock(s) }

// Stats summarizes the network.
func (n *Network) Stats() string {
	return fmt.Sprintf("%v; graph: %v", n.tt.Stats(), n.g.Stats())
}

// TransferSelection names a transfer-station selection strategy for
// Preprocess.
type TransferSelection struct {
	// Fraction selects the top fraction (0 < f ≤ 1) of stations by
	// contraction importance (the paper's contraction strategy).
	Fraction float64
	// MinDegree, when > 0, instead selects all stations with station-graph
	// degree greater than this value (the paper's "deg > k" strategy).
	MinDegree int
}

// Preprocess computes a distance table between transfer stations selected
// by the given strategy, returning a new Network that shares all base data
// and answers station-to-station queries with the Section 4 prunings.
// Preprocessing cost is reported through PreprocessStats. A dynamic update
// invalidates the table; serving systems preprocess the updated network
// again (internal/live does, after every delay batch).
func (n *Network) Preprocess(sel TransferSelection, opt Options) (*Network, *PreprocessStats, error) {
	var marked []bool
	switch {
	case sel.MinDegree > 0:
		marked = n.sg.SelectByDegree(sel.MinDegree)
	case sel.Fraction > 0 && sel.Fraction <= 1:
		keep := int(float64(n.tt.NumStations()) * sel.Fraction)
		if keep < 1 {
			keep = 1
		}
		marked = n.sg.SelectByContraction(keep)
	default:
		return nil, nil, fmt.Errorf("transit: invalid transfer selection %+v", sel)
	}
	pre, err := core.BuildDistanceTable(n.g, marked, opt.core(), opt.sourceParallelism())
	if err != nil {
		return nil, nil, err
	}
	n2 := *n
	n2.table = pre.Table
	rows := pre.Table.NumTransfer()
	return &n2, &PreprocessStats{
		TransferStations: rows,
		Elapsed:          pre.Elapsed,
		TableBytes:       pre.SizeBytes,
		Rows:             rows,
		RowsRepaired:     rows,
		FullRebuild:      true,
	}, nil
}

// Repreprocess preprocesses n from scratch; base and touched are ignored.
//
// Deprecated: use n.Preprocess(sel, opt). Kept for benchmark/ (frozen by
// BENCHMARK.json).
func (n *Network) Repreprocess(base *Network, touched []TouchedConn, sel TransferSelection, opt Options) (*Network, *PreprocessStats, error) {
	return n.Preprocess(sel, opt)
}

// Preprocessed reports whether this Network carries a distance table.
func (n *Network) Preprocessed() bool { return n.table != nil }
