package dtable

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

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
//	stations    [numTransfer]int32   (strictly increasing)
//	for each ordered pair (i, j), row-major:
//	  numPoints int32
//	  points    [numPoints]{dep int32, w int32}   (reduced, ttf.CheckCanonical)
//
// A row's pairs are back to back, exactly the layout of the row's arena
// behind a count per target, so rows are written and read whole.

// WriteSection serializes the table body without magic framing — the form
// the snapshot container embeds (and checksums) as its distance-table
// section. numStations must be the station count of the network the table
// belongs to; ReadSection validates it on load.
func WriteSection(w io.Writer, t *Table, numStations int) error {
	le := binary.LittleEndian
	n := len(t.stations)
	buf := make([]byte, 0, 4*(3+n))
	buf = le.AppendUint32(buf, uint32(t.period.Len()))
	buf = le.AppendUint32(buf, uint32(numStations))
	buf = le.AppendUint32(buf, uint32(n))
	for _, s := range t.stations {
		buf = le.AppendUint32(buf, uint32(s))
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for i, row := range t.rows {
		off := t.rowOff(i)
		buf = buf[:0]
		for j := 0; j < n; j++ {
			buf = le.AppendUint32(buf, uint32(off[j+1]-off[j]))
			for _, p := range row[off[j]:off[j+1]] {
				buf = le.AppendUint32(buf, uint32(p.Dep))
				buf = le.AppendUint32(buf, uint32(p.W))
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadSection parses a table section body, validating it against the
// expected station count of the network it will be attached to. Every count
// is bounded by the bytes left before anything is allocated for it, so a
// hostile section costs at most a few times its own size. Each profile must
// be canonical (ttf.CheckCanonical): the loader verifies the reduced form
// rather than re-deriving it, so an accepted section re-encodes to the same
// bytes.
func ReadSection(p []byte, wantStations int) (*Table, error) {
	le := binary.LittleEndian
	pos := 0
	get := func(what string) (int32, error) {
		if len(p)-pos < 4 {
			return 0, fmt.Errorf("dtable: reading %s: %w", what, io.ErrUnexpectedEOF)
		}
		v := int32(le.Uint32(p[pos:]))
		pos += 4
		return v, nil
	}
	pi, err := get("period")
	if err != nil {
		return nil, err
	}
	if pi <= 0 {
		return nil, fmt.Errorf("dtable: non-positive period %d", pi)
	}
	period := timeutil.NewPeriod(timeutil.Ticks(pi))
	numStations, err := get("station count")
	if err != nil {
		return nil, err
	}
	if int(numStations) != wantStations {
		return nil, fmt.Errorf("dtable: table built for %d stations, network has %d", numStations, wantStations)
	}
	nt, err := get("transfer count")
	if err != nil {
		return nil, err
	}
	// Each transfer station takes 4 bytes and each of its nt pairs at
	// least a 4-byte point count.
	if nt < 0 || nt > numStations || int64(nt)*(int64(nt)+1)*4 > int64(len(p)-pos) {
		return nil, fmt.Errorf("dtable: transfer count %d does not fit %d stations and %d bytes", nt, numStations, len(p)-pos)
	}
	n := int(nt)
	stations := make([]timetable.StationID, n)
	for i := range stations {
		v, _ := get("transfer station") // the count check left room for it
		if v < 0 || v >= numStations {
			return nil, fmt.Errorf("dtable: transfer station %d out of range", v)
		}
		if i > 0 && timetable.StationID(v) <= stations[i-1] {
			return nil, fmt.Errorf("dtable: transfer station %d not after %d", v, stations[i-1])
		}
		stations[i] = timetable.StationID(v)
	}
	t := newTable(period, int(numStations), stations)
	for i := range t.rows {
		// First pass: the row's point counts, each bounded by the bytes
		// left, give its offsets and its arena's exact size.
		off := t.rowOff(i)
		q, total := pos, 0
		for j := 0; j < n; j++ {
			if len(p)-q < 4 {
				return nil, fmt.Errorf("dtable: profile (%d,%d): %w", i, j, io.ErrUnexpectedEOF)
			}
			c := int32(le.Uint32(p[q:]))
			q += 4
			if c < 0 || int64(c)*8 > int64(len(p)-q) {
				return nil, fmt.Errorf("dtable: profile (%d,%d): %d points with %d bytes left", i, j, c, len(p)-q)
			}
			off[j] = int32(total)
			total += int(c)
			q += 8 * int(c)
			if total > math.MaxInt32 {
				return nil, fmt.Errorf("dtable: row %d holds more than %d points", i, math.MaxInt32)
			}
		}
		off[n] = int32(total)
		// Second pass: decode the points into the arena and check each
		// profile is the reduced form.
		row := make([]ttf.Point, total)
		for j := 0; j < n; j++ {
			pos += 4
			pts := row[off[j]:off[j+1]]
			for k := range pts {
				pts[k] = ttf.Point{Dep: timeutil.Ticks(int32(le.Uint32(p[pos:]))), W: timeutil.Ticks(int32(le.Uint32(p[pos+4:])))}
				pos += 8
			}
			if err := ttf.CheckCanonical(period, pts); err != nil {
				return nil, fmt.Errorf("dtable: profile (%d,%d): %w", i, j, err)
			}
		}
		t.rows[i] = row
	}
	if pos != len(p) {
		return nil, fmt.Errorf("dtable: %d trailing bytes after the last profile", len(p)-pos)
	}
	return t, nil
}
