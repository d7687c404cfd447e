package stationgraph

import (
	"encoding/binary"
	"fmt"
	"slices"

	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// Station-graph section body (little endian), the SecStationGraph payload of
// the snapshot container (docs/SNAPSHOT_FORMAT.md):
//
//	n        int32            number of stations
//	offsets  [n+1]int32       CSR offsets into the forward arc array
//	arcs     [offsets[n]]{to int32, w int32}
//
// Only the forward adjacency is stored; the reverse adjacency and the degree
// array are derived on load, so the section stays flat and mmap-friendly.

// AppendSection appends the station graph's section body to dst (no magic,
// no checksum — the snapshot container frames and checksums it).
func AppendSection(dst []byte, g *Graph) []byte {
	m := 0
	for _, row := range g.out {
		m += len(row)
	}
	le := binary.LittleEndian
	b := slices.Grow(dst, 4*(g.n+2)+8*m)
	b = le.AppendUint32(b, uint32(g.n))
	off := 0
	for _, row := range g.out {
		b = le.AppendUint32(b, uint32(off))
		off += len(row)
	}
	b = le.AppendUint32(b, uint32(off))
	for _, row := range g.out {
		for _, a := range row {
			b = le.AppendUint32(b, uint32(a.To))
			b = le.AppendUint32(b, uint32(a.W))
		}
	}
	return b
}

// ReadSection parses a station-graph section body, rebuilding the reverse
// adjacency and the degree array from the stored forward CSR. The station
// and arc counts are checked against the bytes left before anything is
// allocated for them, and the section must end with its last arc.
func ReadSection(data []byte) (*Graph, error) {
	le := binary.LittleEndian
	if len(data) < 4 {
		return nil, fmt.Errorf("stationgraph: station count truncated")
	}
	n := int32(le.Uint32(data))
	p := data[4:]
	if n < 0 || 4*(int64(n)+1) > int64(len(p)) {
		return nil, fmt.Errorf("stationgraph: %d stations' offsets do not fit in %d bytes", n, len(p))
	}
	offsets := make([]int32, n+1)
	for i := range offsets {
		offsets[i] = int32(le.Uint32(p[4*i:]))
		if (i == 0 && offsets[0] != 0) || (i > 0 && offsets[i] < offsets[i-1]) {
			return nil, fmt.Errorf("stationgraph: offsets[%d] = %d: offsets must start at 0 and never decrease", i, offsets[i])
		}
	}
	p = p[4*(n+1):]
	if m := offsets[n]; 8*int64(m) != int64(len(p)) {
		return nil, fmt.Errorf("stationgraph: %d arcs do not match the %d bytes left", m, len(p))
	}
	arcs := make([]Arc, offsets[n])
	for i := range arcs {
		to, w := int32(le.Uint32(p[8*i:])), int32(le.Uint32(p[8*i+4:]))
		if to < 0 || to >= n {
			return nil, fmt.Errorf("stationgraph: arc %d targets station %d of %d", i, to, n)
		}
		if w < 0 {
			return nil, fmt.Errorf("stationgraph: arc %d has negative weight %d", i, w)
		}
		arcs[i] = Arc{To: timetable.StationID(to), W: timeutil.Ticks(w)}
	}
	for s := int32(0); s < n; s++ {
		row := arcs[offsets[s]:offsets[s+1]]
		for i := 1; i < len(row); i++ {
			if row[i].To <= row[i-1].To {
				return nil, fmt.Errorf("stationgraph: station %d arcs not strictly sorted", s)
			}
		}
	}
	return newGraph(offsets, arcs), nil
}
