package dtable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"transit/internal/timetable"
	"transit/internal/timeutil"
	"transit/internal/ttf"
)

// ErrProvenanceIncompatible marks a structurally valid provenance section
// written with incompatible parameters (e.g. a different ReachBuckets);
// readers skip it — the table still serves, only repair falls back.
var ErrProvenanceIncompatible = errors.New("dtable: provenance incompatible with this build")

// Distance-table section body (little endian), the SecDistanceTable payload
// of the snapshot container (docs/SNAPSHOT_FORMAT.md):
//
//	period  int32
//	numStations int32            (of the network the table was built for)
//	numTransfer int32
//	stations    [numTransfer]int32
//	for each ordered pair (i, j), row-major:
//	  numPoints int32
//	  points    [numPoints]{dep int32, w int32}

// WriteSection serializes the table body without magic framing — the form
// the snapshot container embeds (and checksums) as its distance-table
// section. numStations must be the station count of the network the table
// belongs to; ReadSection validates it on load.
func WriteSection(w io.Writer, t *Table, numStations int) error {
	put := func(v int32) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := put(int32(t.period.Len())); err != nil {
		return err
	}
	if err := put(int32(numStations)); err != nil {
		return err
	}
	if err := put(int32(len(t.stations))); err != nil {
		return err
	}
	for _, s := range t.stations {
		if err := put(int32(s)); err != nil {
			return err
		}
	}
	for _, row := range t.prof {
		for _, f := range row {
			pts := f.Points()
			if err := put(int32(len(pts))); err != nil {
				return err
			}
			for _, p := range pts {
				if err := put(int32(p.Dep)); err != nil {
					return err
				}
				if err := put(int32(p.W)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ReadSection parses a table section body, validating it against the
// expected station count of the network it will be attached to.
func ReadSection(r io.Reader, wantStations int) (*Table, error) {
	get := func() (int32, error) {
		var v int32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	pi, err := get()
	if err != nil {
		return nil, err
	}
	if pi <= 0 {
		return nil, fmt.Errorf("dtable: non-positive period %d", pi)
	}
	period := timeutil.NewPeriod(timeutil.Ticks(pi))
	numStations, err := get()
	if err != nil {
		return nil, err
	}
	if int(numStations) != wantStations {
		return nil, fmt.Errorf("dtable: table built for %d stations, network has %d", numStations, wantStations)
	}
	numTransfer, err := get()
	if err != nil {
		return nil, err
	}
	if numTransfer < 0 || numTransfer > numStations {
		return nil, fmt.Errorf("dtable: invalid transfer count %d", numTransfer)
	}
	t := &Table{period: period, index: make([]int32, numStations)}
	for i := range t.index {
		t.index[i] = -1
	}
	t.stations = make([]timetable.StationID, numTransfer)
	for i := range t.stations {
		v, err := get()
		if err != nil {
			return nil, err
		}
		if v < 0 || v >= numStations {
			return nil, fmt.Errorf("dtable: transfer station %d out of range", v)
		}
		if t.index[v] >= 0 {
			return nil, fmt.Errorf("dtable: duplicate transfer station %d", v)
		}
		t.stations[i] = timetable.StationID(v)
		t.index[v] = int32(i)
	}
	t.prof = make([][]*ttf.Function, numTransfer)
	for i := range t.prof {
		row := make([]*ttf.Function, numTransfer)
		for j := range row {
			n, err := get()
			if err != nil {
				return nil, err
			}
			if n < 0 || n > 1<<24 {
				return nil, fmt.Errorf("dtable: implausible point count %d", n)
			}
			pts := make([]ttf.Point, n)
			for p := range pts {
				dep, err := get()
				if err != nil {
					return nil, err
				}
				w, err := get()
				if err != nil {
					return nil, err
				}
				pts[p] = ttf.Point{Dep: timeutil.Ticks(dep), W: timeutil.Ticks(w)}
			}
			f, err := ttf.New(period, pts)
			if err != nil {
				return nil, fmt.Errorf("dtable: profile (%d,%d): %w", i, j, err)
			}
			f.Reduce() // stored reduced; re-reducing is a cheap no-op pass
			row[j] = f
		}
		t.prof[i] = row
	}
	return t, nil
}

// Provenance section body (little endian), the SecTableProvenance payload
// of the snapshot container — optional, only written for repair-base tables
// (provenance present, not derived):
//
//	numTransfer int32            (must match the table section)
//	numTrains   int32            (of the network the table was built for)
//	numRoutes   int32            (of the network the table was built for)
//	buckets     int32            (ReachBuckets of the writing build)
//	for each row:
//	  walkLen int32
//	  walk    [walkLen]int32
//	  used    [ceil(numTrains/64)]uint64
//	  reach   [numRoutes * ReachBuckets/64]uint64

// WriteProvenanceSection serializes the table's repair provenance. The
// table must be a repair base (HasProvenance and not Derived).
func WriteProvenanceSection(w io.Writer, t *Table) error {
	if !t.HasProvenance() {
		return fmt.Errorf("dtable: table has no serializable provenance")
	}
	put := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := put(int32(len(t.stations))); err != nil {
		return err
	}
	if err := put(int32(t.numTrains)); err != nil {
		return err
	}
	if err := put(int32(t.numRoutes)); err != nil {
		return err
	}
	if err := put(int32(ReachBuckets)); err != nil {
		return err
	}
	for _, p := range t.prov {
		if err := put(int32(len(p.Walk))); err != nil {
			return err
		}
		for _, s := range p.Walk {
			if err := put(int32(s)); err != nil {
				return err
			}
		}
		if err := put(p.Used); err != nil {
			return err
		}
		if err := put(p.Reach); err != nil {
			return err
		}
	}
	return nil
}

// ReadProvenanceSection parses a provenance section and attaches it to a
// table read from the same snapshot, validating shape against the table and
// the network's station and route counts. A bucket-count mismatch (written
// by a build with a different ReachBuckets) rejects the section; callers
// treat that like an absent section and fall back to full rebuilds.
func ReadProvenanceSection(r io.Reader, t *Table, numStations, numTrains, numRoutes int) error {
	get := func() (int32, error) {
		var v int32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	nt, err := get()
	if err != nil {
		return err
	}
	if int(nt) != len(t.stations) {
		return fmt.Errorf("dtable: provenance for %d rows, table has %d", nt, len(t.stations))
	}
	nz, err := get()
	if err != nil {
		return err
	}
	if int(nz) != numTrains {
		return fmt.Errorf("dtable: provenance built for %d trains, network has %d", nz, numTrains)
	}
	nr, err := get()
	if err != nil {
		return err
	}
	if int(nr) != numRoutes {
		return fmt.Errorf("dtable: provenance built for %d routes, network has %d", nr, numRoutes)
	}
	buckets, err := get()
	if err != nil {
		return err
	}
	if buckets != ReachBuckets {
		return fmt.Errorf("%w: provenance uses %d reach buckets, this build uses %d",
			ErrProvenanceIncompatible, buckets, ReachBuckets)
	}
	usedWords := (numTrains + 63) / 64
	prov := make([]*RowProvenance, len(t.stations))
	for i := range prov {
		wl, err := get()
		if err != nil {
			return err
		}
		if wl < 0 || int(wl) > numStations {
			return fmt.Errorf("dtable: provenance row %d has implausible walk length %d", i, wl)
		}
		p := &RowProvenance{
			Used:  make([]uint64, usedWords),
			Reach: make([]uint64, numRoutes*reachWords),
			Walk:  make([]timetable.StationID, wl),
		}
		for j := range p.Walk {
			v, err := get()
			if err != nil {
				return err
			}
			if v < 0 || int(v) >= numStations {
				return fmt.Errorf("dtable: provenance row %d walks to unknown station %d", i, v)
			}
			if j > 0 && timetable.StationID(v) <= p.Walk[j-1] {
				// walksTo binary-searches this list; unsorted data would
				// silently miss seed hits and corrupt the dirty test.
				return fmt.Errorf("dtable: provenance row %d walk list not strictly ascending", i)
			}
			p.Walk[j] = timetable.StationID(v)
		}
		if err := binary.Read(r, binary.LittleEndian, p.Used); err != nil {
			return err
		}
		if err := binary.Read(r, binary.LittleEndian, p.Reach); err != nil {
			return err
		}
		prov[i] = p
	}
	t.prov = prov
	t.numTrains = numTrains
	t.numRoutes = numRoutes
	return nil
}
