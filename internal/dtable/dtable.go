// Package dtable implements the distance table D of Section 4: for a set of
// transfer stations S_trans, the full profile distance D(S, T, ·) between
// every ordered pair, precomputed by running the parallel one-to-all
// profile search from each transfer station. D(S, T, τ) is the arrival time
// at T when departing S at τ, without any transfer times at S and T.
//
// The table holds no pointer per profile: each row is one arena of reduced
// connection points, the profiles to every target back to back, delimited by
// CSR offsets. A row costs one allocation to build and to load, and D is a
// binary search over a sub-slice of it.
//
// A table is valid for the schedule it was built from only: after a dynamic
// delay/cancellation batch the caller builds a new one (internal/live does
// this after every batch). See docs/PREPROCESSING.md.
package dtable

import (
	"errors"
	"fmt"
	"sync"

	"transit/internal/timetable"
	"transit/internal/timeutil"
	"transit/internal/ttf"
)

// StationProfiler is the slice of a one-to-all profile result that dtable
// needs to fill one row: AppendStationProfile appends the reduced profile to
// station t to dst (ttf.AppendReduced) and returns the extended slice. The
// core package provides the implementation.
type StationProfiler interface {
	AppendStationProfile(dst []ttf.Point, t timetable.StationID) ([]ttf.Point, error)
}

// RowSearcher runs one-to-all profile searches for one worker goroutine.
// Search results may borrow the searcher's memory: they are consumed (row
// profiles extracted) before the next Search call, and Close releases the
// searcher's resources (e.g. returns a pooled workspace).
type RowSearcher interface {
	Search(source timetable.StationID) (StationProfiler, error)
	Close()
}

// SearchFactory creates one RowSearcher per worker; dtable does not import
// core (which imports dtable for query pruning), so the core package
// provides factories at call sites.
type SearchFactory func() (RowSearcher, error)

// Table is the precomputed distance table over the transfer stations.
// Immutable after Build; safe for concurrent readers.
type Table struct {
	period timeutil.Period
	// index maps a station to its dense transfer index, or -1.
	index []int32
	// stations lists the transfer stations in increasing ID order.
	stations []timetable.StationID
	// rows[i] is the arena of row i: the reduced profiles from stations[i]
	// to stations[0], stations[1], … back to back.
	rows [][]ttf.Point
	// off holds len(stations)+1 offsets per row: the profile from
	// stations[i] to stations[j] is rows[i][off[i*(n+1)+j]:off[i*(n+1)+j+1]].
	off []int32
}

// newTable returns a table over the given transfer stations with its row
// slots and offsets allocated and no row filled.
func newTable(period timeutil.Period, numStations int, stations []timetable.StationID) *Table {
	t := &Table{period: period, index: make([]int32, numStations), stations: stations}
	for s := range t.index {
		t.index[s] = -1
	}
	for i, s := range stations {
		t.index[s] = int32(i)
	}
	n := len(stations)
	t.rows = make([][]ttf.Point, n)
	t.off = make([]int32, n*(n+1))
	return t
}

// rowOff returns the n+1 offsets of row i into rows[i].
func (t *Table) rowOff(i int) []int32 {
	n := len(t.stations)
	return t.off[i*(n+1) : (i+1)*(n+1)]
}

// points returns the reduced profile from stations[i] to stations[j], in
// place.
func (t *Table) points(i, j int) []ttf.Point {
	k := i*(len(t.stations)+1) + j
	return t.rows[i][t.off[k]:t.off[k+1]]
}

// runRows runs the searcher pool over rows [0, n), applying fn to each.
// Work is distributed over a chunked index channel so a slow row (a hub
// station with a huge conn(S)) does not serialize the tail; each worker owns
// one RowSearcher and one scratch point buffer for its whole lifetime, so
// search workspaces and reduction space are reused across rows instead of
// allocated per row. fn returns the scratch buffer, as far as it grew it.
func runRows(n, parallelism int, factory SearchFactory, fn func(i int, s RowSearcher, scratch []ttf.Point) ([]ttf.Point, error)) error {
	if n == 0 {
		return nil
	}
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > n {
		parallelism = n
	}
	chunk := n / (parallelism * 8)
	if chunk < 1 {
		chunk = 1
	}
	type span struct{ lo, hi int }
	chunks := make(chan span)
	go func() {
		for lo := 0; lo < n; lo += chunk {
			chunks <- span{lo, min(lo+chunk, n)}
		}
		close(chunks)
	}()
	errs := make([]error, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := factory()
			if err != nil {
				errs[w] = err
				// Drain so the feeding goroutine never blocks forever.
				for range chunks {
				}
				return
			}
			defer s.Close()
			var scratch []ttf.Point
			for ch := range chunks {
				for i := ch.lo; i < ch.hi; i++ {
					if scratch, err = fn(i, s, scratch); err != nil {
						errs[w] = err
						for range chunks {
						}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// buildRow fills row i from one search: every target's profile is reduced
// into the worker's scratch buffer, and the row keeps one exact-size copy.
func (t *Table) buildRow(i int, s RowSearcher, scratch []ttf.Point) ([]ttf.Point, error) {
	res, err := s.Search(t.stations[i])
	if err != nil {
		return scratch, err
	}
	off := t.rowOff(i)
	scratch = scratch[:0]
	for j, to := range t.stations {
		off[j] = int32(len(scratch))
		if scratch, err = res.AppendStationProfile(scratch, to); err != nil {
			return scratch, err
		}
	}
	off[len(t.stations)] = int32(len(scratch))
	// Not slices.Clone: a clone of an empty scratch would still point into it.
	t.rows[i] = make([]ttf.Point, len(scratch))
	copy(t.rows[i], scratch)
	return scratch, nil
}

// Build precomputes the table for the marked transfer stations by running a
// one-to-all profile search from each of them, with up to parallelism
// worker goroutines pulling rows from a shared chunked queue.
func Build(period timeutil.Period, numStations int, isTransfer []bool, parallelism int, factory SearchFactory) (*Table, error) {
	if len(isTransfer) != numStations {
		return nil, fmt.Errorf("dtable: isTransfer has %d entries for %d stations", len(isTransfer), numStations)
	}
	if factory == nil {
		return nil, fmt.Errorf("dtable: nil search factory")
	}
	var stations []timetable.StationID
	for s, ok := range isTransfer {
		if ok {
			stations = append(stations, timetable.StationID(s))
		}
	}
	t := newTable(period, numStations, stations)
	if err := runRows(len(t.stations), parallelism, factory, t.buildRow); err != nil {
		return nil, err
	}
	return t, nil
}

// NumTransfer returns |S_trans|.
func (t *Table) NumTransfer() int { return len(t.stations) }

// Stations returns the transfer stations in increasing ID order (shared
// slice; do not modify).
func (t *Table) Stations() []timetable.StationID { return t.stations }

// IsTransfer reports whether s is a transfer station. Unknown station IDs
// are simply not transfer stations.
func (t *Table) IsTransfer(s timetable.StationID) bool {
	return int(s) >= 0 && int(s) < len(t.index) && t.index[s] >= 0
}

// Profile returns the reduced profile function from one transfer station to
// another; both must be transfer stations. The function is built on demand
// from a copy of the stored points.
func (t *Table) Profile(from, to timetable.StationID) (*ttf.Function, error) {
	if !t.IsTransfer(from) || !t.IsTransfer(to) {
		return nil, fmt.Errorf("dtable: %d→%d not a transfer-station pair", from, to)
	}
	f, err := ttf.New(t.period, t.points(int(t.index[from]), int(t.index[to])))
	if err != nil {
		return nil, err
	}
	f.Reduce()
	return f, nil
}

// D returns the arrival time at `to` when departing `from` at the absolute
// time at: the paper's D(S, T, τ). From == to answers `at` (you are already
// there). Both stations must be transfer stations; this is a hot inner-loop
// call, so violations panic rather than allocate errors.
func (t *Table) D(from, to timetable.StationID, at timeutil.Ticks) timeutil.Ticks {
	if at.IsInf() {
		return timeutil.Infinity
	}
	fi, ti := t.index[from], t.index[to]
	if fi < 0 || ti < 0 {
		panic(fmt.Sprintf("dtable: D(%d,%d) on non-transfer station", from, to))
	}
	if fi == ti {
		return at
	}
	p, wait := ttf.NextPoint(t.period, t.points(int(fi), int(ti)), at)
	if wait.IsInf() {
		return timeutil.Infinity
	}
	return at + wait + p.W
}

// SizeBytes estimates the memory footprint of the stored profiles: eight
// bytes per connection point (the figure the paper reports in MiB).
func (t *Table) SizeBytes() int64 {
	var pts int64
	for _, row := range t.rows {
		pts += int64(len(row))
	}
	return pts * 8
}
