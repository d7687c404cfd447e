package timetable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

var binMagic = [8]byte{'T', 'T', 'B', 'L', 'B', 'I', 'N', '1'}

// WriteBinary serializes the timetable in the binary v1 format.
func WriteBinary(w io.Writer, tt *Timetable) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	put := func(v int32) error { return binary.Write(bw, binary.LittleEndian, v) }
	putStr := func(s string) error {
		if len(s) > math.MaxUint16 {
			s = s[:math.MaxUint16]
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := put(int32(tt.Period.Len())); err != nil {
		return err
	}
	for _, n := range []int{len(tt.Stations), len(tt.Trains), len(tt.Connections)} {
		if err := put(int32(n)); err != nil {
			return err
		}
	}
	for _, s := range tt.Stations {
		if err := putStr(s.Name); err != nil {
			return err
		}
		if err := put(int32(s.Transfer)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, s.X); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, s.Y); err != nil {
			return err
		}
	}
	for _, z := range tt.Trains {
		if err := putStr(z.Name); err != nil {
			return err
		}
	}
	for _, c := range tt.Connections {
		for _, v := range [5]int32{int32(c.Train), int32(c.From), int32(c.To), int32(c.Dep), int32(c.Arr)} {
			if err := put(v); err != nil {
				return err
			}
		}
	}
	if err := put(int32(len(tt.Footpaths))); err != nil {
		return err
	}
	for _, f := range tt.Footpaths {
		for _, v := range [3]int32{int32(f.From), int32(f.To), int32(f.Walk)} {
			if err := put(v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses and validates a binary v1 timetable.
func ReadBinary(r io.Reader) (*Timetable, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("timetable: reading magic: %w", err)
	}
	if m != binMagic {
		return nil, fmt.Errorf("timetable: bad binary magic %q", m)
	}
	return readBinaryBody(br)
}

func readBinaryBody(br *bufio.Reader) (*Timetable, error) {
	get := func() (int32, error) {
		var v int32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	getStr := func() (string, error) {
		var n uint16
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	pi, err := get()
	if err != nil {
		return nil, err
	}
	if pi <= 0 {
		return nil, fmt.Errorf("timetable: non-positive period %d", pi)
	}
	var counts [3]int32
	for i := range counts {
		if counts[i], err = get(); err != nil {
			return nil, err
		}
		if counts[i] < 0 || counts[i] > 1<<28 {
			return nil, fmt.Errorf("timetable: implausible count %d", counts[i])
		}
	}
	stations := make([]Station, counts[0])
	for i := range stations {
		name, err := getStr()
		if err != nil {
			return nil, err
		}
		tr, err := get()
		if err != nil {
			return nil, err
		}
		var x, y float64
		if err := binary.Read(br, binary.LittleEndian, &x); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &y); err != nil {
			return nil, err
		}
		stations[i] = Station{ID: StationID(i), Name: name, Transfer: timeutil.Ticks(tr), X: x, Y: y}
	}
	trains := make([]Train, counts[1])
	for i := range trains {
		name, err := getStr()
		if err != nil {
			return nil, err
		}
		trains[i] = Train{ID: TrainID(i), Name: name}
	}
	conns := make([]Connection, counts[2])
	for i := range conns {
		var v [5]int32
		for j := range v {
			if v[j], err = get(); err != nil {
				return nil, err
			}
		}
		conns[i] = Connection{
			ID:    ConnID(i),
			Train: TrainID(v[0]),
			From:  StationID(v[1]),
			To:    StationID(v[2]),
			Dep:   timeutil.Ticks(v[3]),
			Arr:   timeutil.Ticks(v[4]),
		}
	}
	// Footpath section; absent in files written before footpaths existed.
	var footpaths []Footpath
	if nFoot, err := get(); err == nil {
		if nFoot < 0 || nFoot > 1<<28 {
			return nil, fmt.Errorf("timetable: implausible footpath count %d", nFoot)
		}
		footpaths = make([]Footpath, nFoot)
		for i := range footpaths {
			var v [3]int32
			for j := range v {
				if v[j], err = get(); err != nil {
					return nil, err
				}
			}
			footpaths[i] = Footpath{From: StationID(v[0]), To: StationID(v[1]), Walk: timeutil.Ticks(v[2])}
		}
	}
	return NewWithFootpaths(timeutil.NewPeriod(timeutil.Ticks(pi)), stations, trains, conns, footpaths)
}
