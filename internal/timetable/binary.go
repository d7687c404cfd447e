package timetable

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"transit/internal/timeutil"
)

// Binary timetable format v1 (little endian) — the timetable section
// payload of the snapshot container (docs/SNAPSHOT_FORMAT.md); it is not a
// file format of its own, the text format is the one interchange format:
//
//	magic    [8]byte "TTBLBIN1"
//	period   int32
//	nStations, nTrains, nConnections int32
//	stations: {nameLen uint16, name []byte, transfer int32, x, y float64}
//	trains:   {nameLen uint16, name []byte}
//	connections: {train, from, to, dep, arr int32}
//	nFootpaths int32 (absent in sections written before footpaths existed)
//	footpaths: {from, to, walk int32}

var binMagic = [8]byte{'T', 'T', 'B', 'L', 'B', 'I', 'N', '1'}

// The fixed sizes of the records; a station's and a train's are without
// their names.
const (
	stationBytes  = 2 + 4 + 8 + 8
	trainBytes    = 2
	connBytes     = 5 * 4
	footpathBytes = 3 * 4
)

// AppendBinary appends the timetable's binary v1 encoding to dst. Names
// longer than 65535 bytes are cut to that length.
func AppendBinary(dst []byte, tt *Timetable) []byte {
	size := len(binMagic) + 16 + stationBytes*len(tt.Stations) + trainBytes*len(tt.Trains) +
		connBytes*len(tt.Connections) + 4 + footpathBytes*len(tt.Footpaths)
	for _, s := range tt.Stations {
		size += min(len(s.Name), math.MaxUint16)
	}
	for _, z := range tt.Trains {
		size += min(len(z.Name), math.MaxUint16)
	}
	le := binary.LittleEndian
	b := slices.Grow(dst, size)
	b = append(b, binMagic[:]...)
	for _, v := range [4]int{int(tt.Period.Len()), len(tt.Stations), len(tt.Trains), len(tt.Connections)} {
		b = le.AppendUint32(b, uint32(v))
	}
	putStr := func(s string) {
		s = s[:min(len(s), math.MaxUint16)]
		b = le.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	for _, s := range tt.Stations {
		putStr(s.Name)
		b = le.AppendUint32(b, uint32(s.Transfer))
		b = le.AppendUint64(b, math.Float64bits(s.X))
		b = le.AppendUint64(b, math.Float64bits(s.Y))
	}
	for _, z := range tt.Trains {
		putStr(z.Name)
	}
	for _, c := range tt.Connections {
		for _, v := range [5]int32{int32(c.Train), int32(c.From), int32(c.To), int32(c.Dep), int32(c.Arr)} {
			b = le.AppendUint32(b, uint32(v))
		}
	}
	b = le.AppendUint32(b, uint32(len(tt.Footpaths)))
	for _, f := range tt.Footpaths {
		for _, v := range [3]int32{int32(f.From), int32(f.To), int32(f.Walk)} {
			b = le.AppendUint32(b, uint32(v))
		}
	}
	return b
}

// ParseBinary parses and validates a binary v1 timetable. Every count is
// checked against the bytes left before anything is allocated for it, and
// the section must end where its last record does.
func ParseBinary(data []byte) (*Timetable, error) {
	le := binary.LittleEndian
	if len(data) < len(binMagic) || [8]byte(data[:8]) != binMagic {
		return nil, fmt.Errorf("timetable: bad binary magic %q", data[:min(len(data), 8)])
	}
	p := data[8:]
	if len(p) < 16 {
		return nil, fmt.Errorf("timetable: header truncated (%d of 16 bytes)", len(p))
	}
	pi := int32(le.Uint32(p))
	if pi <= 0 {
		return nil, fmt.Errorf("timetable: non-positive period %d", pi)
	}
	nS, nZ, nC := int32(le.Uint32(p[4:])), int32(le.Uint32(p[8:])), int32(le.Uint32(p[12:]))
	p = p[16:]
	if nS < 0 || nZ < 0 || nC < 0 ||
		stationBytes*int64(nS)+trainBytes*int64(nZ)+connBytes*int64(nC) > int64(len(p)) {
		return nil, fmt.Errorf("timetable: %d stations, %d trains and %d connections do not fit in %d bytes", nS, nZ, nC, len(p))
	}
	name := func(what string, i int) (string, error) {
		if len(p) < 2 {
			return "", fmt.Errorf("timetable: %s %d truncated", what, i)
		}
		n := int(le.Uint16(p))
		if len(p) < 2+n {
			return "", fmt.Errorf("timetable: %s %d name truncated", what, i)
		}
		s := string(p[2 : 2+n])
		p = p[2+n:]
		return s, nil
	}
	stations := make([]Station, nS)
	for i := range stations {
		s, err := name("station", i)
		if err != nil {
			return nil, err
		}
		if len(p) < stationBytes-2 {
			return nil, fmt.Errorf("timetable: station %d truncated", i)
		}
		stations[i] = Station{
			ID:       StationID(i),
			Name:     s,
			Transfer: timeutil.Ticks(int32(le.Uint32(p))),
			X:        math.Float64frombits(le.Uint64(p[4:])),
			Y:        math.Float64frombits(le.Uint64(p[12:])),
		}
		p = p[stationBytes-2:]
	}
	trains := make([]Train, nZ)
	for i := range trains {
		s, err := name("train", i)
		if err != nil {
			return nil, err
		}
		trains[i] = Train{ID: TrainID(i), Name: s}
	}
	if connBytes*int64(nC) > int64(len(p)) {
		return nil, fmt.Errorf("timetable: %d connections do not fit in %d bytes", nC, len(p))
	}
	conns := make([]Connection, nC)
	for i := range conns {
		conns[i] = Connection{
			ID:    ConnID(i),
			Train: TrainID(int32(le.Uint32(p))),
			From:  StationID(int32(le.Uint32(p[4:]))),
			To:    StationID(int32(le.Uint32(p[8:]))),
			Dep:   timeutil.Ticks(int32(le.Uint32(p[12:]))),
			Arr:   timeutil.Ticks(int32(le.Uint32(p[16:]))),
		}
		p = p[connBytes:]
	}
	var footpaths []Footpath
	if len(p) > 0 {
		if len(p) < 4 {
			return nil, fmt.Errorf("timetable: footpath count truncated")
		}
		nF := int32(le.Uint32(p))
		p = p[4:]
		if nF < 0 || footpathBytes*int64(nF) != int64(len(p)) {
			return nil, fmt.Errorf("timetable: %d footpaths do not match the %d bytes left", nF, len(p))
		}
		footpaths = make([]Footpath, nF)
		for i := range footpaths {
			footpaths[i] = Footpath{
				From: StationID(int32(le.Uint32(p))),
				To:   StationID(int32(le.Uint32(p[4:]))),
				Walk: timeutil.Ticks(int32(le.Uint32(p[8:]))),
			}
			p = p[footpathBytes:]
		}
	}
	return NewWithFootpaths(timeutil.NewPeriod(timeutil.Ticks(pi)), stations, trains, conns, footpaths)
}
