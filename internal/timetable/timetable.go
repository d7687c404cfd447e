// Package timetable implements the periodic timetable (C, S, Z, Π, T) from
// the paper's preliminaries: stations S with minimum transfer times T,
// trains Z, elementary connections C over a periodic set of time points Π.
// It derives the route partition (trains grouped by identical station
// sequences, the basis of the realistic time-dependent model) and the
// per-station outgoing connection sets conn(S) that drive the
// connection-setting algorithm.
package timetable

import (
	"encoding/binary"
	"fmt"
	"slices"

	"transit/internal/csr"
	"transit/internal/timeutil"
)

// StationID identifies a station; IDs are dense indices into Timetable.Stations.
type StationID int32

// TrainID identifies a train; IDs are dense indices into Timetable.Trains.
type TrainID int32

// RouteID identifies a route (an equivalence class of trains running through
// the same station sequence); dense indices into Timetable.Routes().
type RouteID int32

// ConnID identifies an elementary connection; dense indices into
// Timetable.Connections.
type ConnID int32

// NoStation is the invalid station sentinel.
const NoStation StationID = -1

// Station is a stop of the network together with its minimum transfer time
// T(S) required to change between trains.
type Station struct {
	ID       StationID
	Name     string
	Transfer timeutil.Ticks
	// X, Y are layout coordinates in arbitrary units; used by generators
	// and for human-readable output, never by the algorithms.
	X, Y float64
}

// Train is a vehicle of the timetable. Its elementary connections are the
// Connection entries carrying its TrainID, in temporal order.
type Train struct {
	ID   TrainID
	Name string
}

// Footpath is a walking link between two distinct stations, usable at any
// time: arriving at From at time t, one reaches To at t + Walk. Footpaths
// are directed; add both directions for a symmetric link.
type Footpath struct {
	From StationID
	To   StationID
	Walk timeutil.Ticks
}

// Connection is an elementary connection c = (Z, S_dep, S_arr, τ_dep, τ_arr):
// train Z goes from From to To, departing at the time point Dep ∈ Π and
// arriving at the absolute time Arr ≥ Dep (which may exceed the period for
// overnight hops).
type Connection struct {
	ID    ConnID
	Train TrainID
	From  StationID
	To    StationID
	Dep   timeutil.Ticks
	Arr   timeutil.Ticks
}

// Duration returns the travel time Δ(τ_dep, τ_arr) of the connection.
func (c Connection) Duration() timeutil.Ticks { return c.Arr - c.Dep }

// Route is an equivalence class of trains that run through the same sequence
// of stations.
type Route struct {
	ID       RouteID
	Stations []StationID // the common station sequence
	Trains   []TrainID   // trains of this route
}

// Timetable is a validated periodic timetable with derived route partition
// and outgoing-connection indexes. Construct with New; the struct is
// immutable afterwards and safe for concurrent readers.
//
// Every per-station and per-train index is a CSR: its rows are windows of
// one backing array, filled by one counting pass over the dense IDs.
type Timetable struct {
	Period      timeutil.Period
	Stations    []Station
	Trains      []Train
	Connections []Connection
	Footpaths   []Footpath

	routes       []Route
	trainRoute   []RouteID
	outgoing     [][]ConnID // conn(S) per station, by (Dep, ID)
	incoming     [][]ConnID // reverse: connections arriving at S, by (Arr, ID)
	footpathsOut [][]Footpath
	trainConns   [][]ConnID           // per train: its connections in ID (temporal) order
	trainsByName map[string][]TrainID // exact-name train lookup for dynamic updates
}

// New validates the raw timetable data, derives routes and connection
// indexes, and returns the immutable Timetable. The input slices are
// retained (not copied); callers must not modify them afterwards.
//
// Validation enforces: dense IDs matching slice positions, non-negative
// transfer and walking times, stations that exist, departures within Π,
// arrivals no earlier than departures, and per-train path consistency (each
// hop starts where the previous ended). A train's hops are its connections
// in ID order; their times are not compared, since a departure time point
// of Π can always be lifted past the previous hop's arrival.
func New(period timeutil.Period, stations []Station, trains []Train, conns []Connection) (*Timetable, error) {
	return NewWithFootpaths(period, stations, trains, conns, nil)
}

// NewWithFootpaths builds a timetable that additionally carries walking
// links between stations.
func NewWithFootpaths(period timeutil.Period, stations []Station, trains []Train, conns []Connection, footpaths []Footpath) (*Timetable, error) {
	tt := &Timetable{
		Period:      period,
		Stations:    stations,
		Trains:      trains,
		Connections: conns,
		Footpaths:   footpaths,
	}
	if err := tt.validate(); err != nil {
		return nil, err
	}
	ids := make([]ConnID, len(conns))
	for i := range ids {
		ids[i] = ConnID(i)
	}
	tt.trainConns = csr.Group(len(trains), ids, func(id ConnID) int32 { return int32(conns[id].Train) })
	for z, hops := range tt.trainConns {
		for h := 1; h < len(hops); h++ {
			prev, cur := &conns[hops[h-1]], &conns[hops[h]]
			if cur.From != prev.To {
				return nil, fmt.Errorf("timetable: train %d jumps from station %d to %d between connections %d and %d",
					z, prev.To, cur.From, prev.ID, cur.ID)
			}
		}
	}
	tt.deriveRoutes()
	tt.buildConnIndexes()
	return tt, nil
}

// validate checks every record on its own; the per-train path check runs on
// the train rows once they are built.
func (tt *Timetable) validate() error {
	for i, s := range tt.Stations {
		if int(s.ID) != i {
			return fmt.Errorf("timetable: station %d has ID %d, want dense IDs", i, s.ID)
		}
		if s.Transfer < 0 {
			return fmt.Errorf("timetable: station %q has negative transfer time %d", s.Name, s.Transfer)
		}
	}
	for i, z := range tt.Trains {
		if int(z.ID) != i {
			return fmt.Errorf("timetable: train %d has ID %d, want dense IDs", i, z.ID)
		}
	}
	nS, nZ := StationID(len(tt.Stations)), TrainID(len(tt.Trains))
	for i, c := range tt.Connections {
		if int(c.ID) != i {
			return fmt.Errorf("timetable: connection %d has ID %d, want dense IDs", i, c.ID)
		}
		if c.Train < 0 || c.Train >= nZ {
			return fmt.Errorf("timetable: connection %d references unknown train %d", i, c.Train)
		}
		if c.From < 0 || c.From >= nS || c.To < 0 || c.To >= nS {
			return fmt.Errorf("timetable: connection %d references unknown station (%d→%d)", i, c.From, c.To)
		}
		if c.From == c.To {
			return fmt.Errorf("timetable: connection %d is a self-loop at station %d", i, c.From)
		}
		if !tt.Period.Valid(c.Dep) {
			return fmt.Errorf("timetable: connection %d departs at %d outside Π=[0,%d)", i, c.Dep, tt.Period.Len())
		}
		if c.Arr < c.Dep {
			return fmt.Errorf("timetable: connection %d arrives at %d before departing at %d", i, c.Arr, c.Dep)
		}
	}
	for i, f := range tt.Footpaths {
		if f.From < 0 || f.From >= nS || f.To < 0 || f.To >= nS {
			return fmt.Errorf("timetable: footpath %d references unknown station (%d→%d)", i, f.From, f.To)
		}
		if f.From == f.To {
			return fmt.Errorf("timetable: footpath %d is a self-loop at station %d", i, f.From)
		}
		if f.Walk < 0 {
			return fmt.Errorf("timetable: footpath %d has negative walking time %d", i, f.Walk)
		}
	}
	return nil
}

// byTime returns the IDs of the live (not cancelled) connections ordered
// by (indexTime, ID): a stable LSD radix sort on 11-bit digits of the time
// that stops at the largest time's top digit, so a minute-of-day timetable
// sorts in one or two counting passes.
func byTime(conns []Connection, byArr bool) []ConnID {
	const bits = 11
	ids := make([]ConnID, 0, len(conns))
	var top timeutil.Ticks
	for i := range conns {
		if c := &conns[i]; !c.Arr.IsInf() {
			ids = append(ids, ConnID(i))
			top = max(top, indexTime(c, byArr))
		}
	}
	tmp := make([]ConnID, len(ids))
	var count [1 << bits]int32
	for shift := 0; shift == 0 || top>>shift > 0; shift += bits {
		clear(count[:])
		for _, id := range ids {
			count[indexTime(&conns[id], byArr)>>shift&(1<<bits-1)]++
		}
		sum := int32(0)
		for d, n := range count {
			count[d], sum = sum, sum+n
		}
		for _, id := range ids {
			d := indexTime(&conns[id], byArr) >> shift & (1<<bits - 1)
			tmp[count[d]] = id
			count[d]++
		}
		ids, tmp = tmp, ids
	}
	return ids
}

// indexTime is the time an index row is ordered by: the departure in
// conn(S), the arrival in the incoming rows. Both are non-negative int32s
// for a live connection.
func indexTime(c *Connection, byArr bool) timeutil.Ticks {
	if byArr {
		return c.Arr
	}
	return c.Dep
}

// deriveRoutes partitions the trains into routes: two trains are equivalent
// if they run through the same sequence of stations. Routes are numbered in
// order of their first train; their station sequences are windows of one
// array and their trains one CSR.
func (tt *Timetable) deriveRoutes() {
	index := make(map[string]RouteID)
	tt.trainRoute = make([]RouteID, len(tt.Trains))
	var key []byte // the station sequence, 4 bytes per station
	var seqs []StationID
	seqStart := []int32{0}
	for z, ids := range tt.trainConns {
		key = key[:0]
		if len(ids) > 0 {
			key = binary.LittleEndian.AppendUint32(key, uint32(tt.Connections[ids[0]].From))
			for _, id := range ids {
				key = binary.LittleEndian.AppendUint32(key, uint32(tt.Connections[id].To))
			}
		}
		r, ok := index[string(key)]
		if !ok {
			r = RouteID(len(seqStart) - 1)
			index[string(key)] = r
			for i := 0; i < len(key); i += 4 {
				seqs = append(seqs, StationID(binary.LittleEndian.Uint32(key[i:])))
			}
			seqStart = append(seqStart, int32(len(seqs)))
		}
		tt.trainRoute[z] = r
	}
	zs := make([]TrainID, len(tt.Trains))
	for z := range zs {
		zs[z] = TrainID(z)
	}
	trains := csr.Group(len(seqStart)-1, zs, func(z TrainID) int32 { return int32(tt.trainRoute[z]) })
	tt.routes = make([]Route, len(trains))
	for r := range tt.routes {
		tt.routes[r] = Route{ID: RouteID(r), Stations: seqs[seqStart[r]:seqStart[r+1]:seqStart[r+1]], Trains: trains[r]}
	}
}

// buildConnIndexes derives conn(S), the incoming rows, the footpath rows
// and the name lookup. Cancelled connections (see Patch) keep their dense
// ID slot but are left out of the query indexes, so searches never board
// them. Grouping the connections in (time, ID) order leaves every row
// sorted.
func (tt *Timetable) buildConnIndexes() {
	conns := tt.Connections
	nS := len(tt.Stations)
	tt.outgoing = csr.Group(nS, byTime(conns, false), func(id ConnID) int32 { return int32(conns[id].From) })
	tt.incoming = csr.Group(nS, byTime(conns, true), func(id ConnID) int32 { return int32(conns[id].To) })
	tt.footpathsOut = csr.Group(nS, tt.Footpaths, func(f Footpath) int32 { return int32(f.From) })
	tt.trainsByName = make(map[string][]TrainID, len(tt.Trains))
	for _, z := range tt.Trains {
		tt.trainsByName[z.Name] = append(tt.trainsByName[z.Name], z.ID)
	}
}

// sortRow orders one index row by indexTime, ties on ID, through packed
// time<<32 | id keys.
func sortRow(row []ConnID, conns []Connection, byArr bool) {
	keys := make([]uint64, len(row))
	for i, id := range row {
		keys[i] = uint64(indexTime(&conns[id], byArr))<<32 | uint64(id)
	}
	slices.Sort(keys)
	for i, k := range keys {
		row[i] = ConnID(uint32(k))
	}
}

// FootpathsFrom returns the walking links departing from s (shared slice).
func (tt *Timetable) FootpathsFrom(s StationID) []Footpath { return tt.footpathsOut[s] }

// Routes returns the route partition.
func (tt *Timetable) Routes() []Route { return tt.routes }

// RouteOf returns the route the train belongs to.
func (tt *Timetable) RouteOf(z TrainID) RouteID { return tt.trainRoute[z] }

// Outgoing returns conn(S): all elementary connections departing from S,
// ordered non-decreasingly by departure time point. The slice is shared and
// must not be modified.
func (tt *Timetable) Outgoing(s StationID) []ConnID { return tt.outgoing[s] }

// Incoming returns the connections arriving at S ordered by arrival time.
func (tt *Timetable) Incoming(s StationID) []ConnID { return tt.incoming[s] }

// TrainConnections returns the connections of train z in temporal (ID)
// order, including cancelled ones. The slice is shared and must not be
// modified.
func (tt *Timetable) TrainConnections(z TrainID) []ConnID { return tt.trainConns[z] }

// TrainsByName returns the trains carrying the exact name (names need not
// be unique). The slice is shared and must not be modified.
func (tt *Timetable) TrainsByName(name string) []TrainID { return tt.trainsByName[name] }

// Cancelled reports whether a connection was cancelled by a dynamic update
// (see Patch). Cancelled connections keep their dense ID slot and carry an
// infinite arrival, but are excluded from the outgoing/incoming indexes.
func (tt *Timetable) Cancelled(id ConnID) bool { return tt.Connections[id].Arr.IsInf() }

// NumStations, NumTrains, NumConnections report the timetable sizes.
func (tt *Timetable) NumStations() int    { return len(tt.Stations) }
func (tt *Timetable) NumTrains() int      { return len(tt.Trains) }
func (tt *Timetable) NumConnections() int { return len(tt.Connections) }

// ConnectionsPerStation returns the density measure the paper uses to
// distinguish local bus networks from railway networks.
func (tt *Timetable) ConnectionsPerStation() float64 {
	if len(tt.Stations) == 0 {
		return 0
	}
	return float64(len(tt.Connections)) / float64(len(tt.Stations))
}

// Stats summarizes the timetable for logging and the benchmark harness.
type Stats struct {
	Stations        int
	Trains          int
	Routes          int
	Connections     int
	ConnsPerStation float64
}

// Stats returns summary statistics.
func (tt *Timetable) Stats() Stats {
	return Stats{
		Stations:        tt.NumStations(),
		Trains:          tt.NumTrains(),
		Routes:          len(tt.routes),
		Connections:     tt.NumConnections(),
		ConnsPerStation: tt.ConnectionsPerStation(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("%d stations, %d trains, %d routes, %d connections (%.1f conns/station)",
		s.Stations, s.Trains, s.Routes, s.Connections, s.ConnsPerStation)
}
