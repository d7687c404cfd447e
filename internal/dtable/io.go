package dtable

import (
	"encoding/binary"
	"fmt"
	"io"

	"transit/internal/timetable"
	"transit/internal/timeutil"
	"transit/internal/ttf"
)

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
