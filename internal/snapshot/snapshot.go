package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"transit/internal/dtable"
	"transit/internal/stationgraph"
	"transit/internal/timetable"
)

// Magic identifies a snapshot file. The trailing "\r\n" catches text-mode
// line-ending translation, PNG-style.
var Magic = [8]byte{'T', 'P', 'S', 'N', 'A', 'P', '\r', '\n'}

// Version is the container format version this build writes and the only
// one it reads. Additive changes (new section IDs) do not bump it; layout
// changes of the header or of an existing section do.
const Version uint32 = 1

// Section IDs. See docs/SNAPSHOT_FORMAT.md for each payload's layout. ID 5
// is retired: builds before PR 25 wrote the distance table's repair
// provenance there. Read skips it like any unknown ID; never reuse it.
const (
	SecTimetable     uint32 = 1
	SecStationGraph  uint32 = 2
	SecDistanceTable uint32 = 3
	SecLiveState     uint32 = 4
)

// maxSections bounds the section table of a well-formed snapshot; it is far
// above anything this package writes and exists only to fail fast on
// corrupted or hostile headers.
const maxSections = 256

// maxSectionBytes bounds a single section payload (1 GiB).
const maxSectionBytes = 1 << 30

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64 and
// arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Data is the decoded content of a snapshot: everything needed to
// reconstruct a query-ready network without re-running preprocessing.
type Data struct {
	// TT is the validated timetable (required).
	TT *timetable.Timetable
	// SG is the condensed station graph; Read rebuilds it from TT when the
	// section is absent, so it is never nil on a successful load.
	SG *stationgraph.Graph
	// Table is the distance table, nil when the snapshot carries none.
	Table *dtable.Table
	// Epoch and Created are the live-serving provenance (SecLiveState):
	// epoch 0 is a freshly built network, higher epochs count applied
	// dynamic-update batches.
	Epoch   uint64
	Created time.Time
	// Patched marks a network whose schedule was changed by dynamic
	// updates; it is set for every epoch > 0, and additionally covers
	// patched networks snapshotted without live provenance, so the loader
	// can keep refusing stale preprocessing for them.
	Patched bool
}

// Live-state flag bits.
const flagPatched uint64 = 1 << 0

func sectionName(id uint32) string {
	switch id {
	case SecTimetable:
		return "timetable"
	case SecStationGraph:
		return "station-graph"
	case SecDistanceTable:
		return "distance-table"
	case SecLiveState:
		return "live-state"
	default:
		return fmt.Sprintf("unknown(%d)", id)
	}
}

// Write serializes d as a snapshot container: header, section table, then
// the section payloads in table order. Sections are buffered to compute
// lengths and checksums up front, so w receives one sequential stream.
func Write(w io.Writer, d *Data) error {
	if d.TT == nil {
		return fmt.Errorf("snapshot: no timetable to write")
	}
	type section struct {
		id      uint32
		payload []byte
	}
	var secs []section
	add := func(id uint32, enc func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			return fmt.Errorf("snapshot: encoding %s section: %w", sectionName(id), err)
		}
		if buf.Len() > maxSectionBytes {
			return fmt.Errorf("snapshot: %s section exceeds %d bytes", sectionName(id), maxSectionBytes)
		}
		secs = append(secs, section{id: id, payload: buf.Bytes()})
		return nil
	}
	if err := add(SecTimetable, func(w io.Writer) error {
		return timetable.WriteBinary(w, d.TT)
	}); err != nil {
		return err
	}
	if d.SG != nil {
		if err := add(SecStationGraph, func(w io.Writer) error {
			return stationgraph.WriteSection(w, d.SG)
		}); err != nil {
			return err
		}
	}
	if d.Table != nil {
		if err := add(SecDistanceTable, func(w io.Writer) error {
			return dtable.WriteSection(w, d.Table, d.TT.NumStations())
		}); err != nil {
			return err
		}
	}
	created := d.Created
	if created.IsZero() {
		created = time.Now()
	}
	if err := add(SecLiveState, func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, d.Epoch); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, created.UnixNano()); err != nil {
			return err
		}
		var flags uint64
		if d.Patched || d.Epoch > 0 {
			flags |= flagPatched
		}
		return binary.Write(w, binary.LittleEndian, flags)
	}); err != nil {
		return err
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(Magic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, Version); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(secs))); err != nil {
		return err
	}
	for _, s := range secs {
		if err := binary.Write(bw, binary.LittleEndian, s.id); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, crc32.Checksum(s.payload, crcTable)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(s.payload))); err != nil {
			return err
		}
	}
	for _, s := range secs {
		if _, err := bw.Write(s.payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses and validates a snapshot container. Every known section's CRC
// is verified before its payload is decoded; unknown section IDs are
// skipped for forward compatibility. The timetable section is required.
func Read(r io.Reader) (*Data, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if m != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a snapshot file?)", m)
	}
	var version, nSections uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("snapshot: reading version: %w", err)
	}
	if version != Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads version %d)", version, Version)
	}
	if err := binary.Read(br, binary.LittleEndian, &nSections); err != nil {
		return nil, fmt.Errorf("snapshot: reading section count: %w", err)
	}
	if nSections == 0 || nSections > maxSections {
		return nil, fmt.Errorf("snapshot: implausible section count %d", nSections)
	}
	type entry struct {
		id     uint32
		crc    uint32
		length uint64
	}
	entries := make([]entry, nSections)
	seen := make(map[uint32]bool, nSections)
	for i := range entries {
		e := &entries[i]
		if err := binary.Read(br, binary.LittleEndian, &e.id); err != nil {
			return nil, fmt.Errorf("snapshot: reading section table: %w", err)
		}
		if err := binary.Read(br, binary.LittleEndian, &e.crc); err != nil {
			return nil, fmt.Errorf("snapshot: reading section table: %w", err)
		}
		if err := binary.Read(br, binary.LittleEndian, &e.length); err != nil {
			return nil, fmt.Errorf("snapshot: reading section table: %w", err)
		}
		if e.length > maxSectionBytes {
			return nil, fmt.Errorf("snapshot: %s section claims %d bytes (max %d)", sectionName(e.id), e.length, maxSectionBytes)
		}
		if seen[e.id] {
			return nil, fmt.Errorf("snapshot: duplicate %s section", sectionName(e.id))
		}
		seen[e.id] = true
	}
	payloads := make(map[uint32][]byte, nSections)
	for _, e := range entries {
		p := make([]byte, e.length)
		if _, err := io.ReadFull(br, p); err != nil {
			return nil, fmt.Errorf("snapshot: %s section truncated (want %d bytes): %w", sectionName(e.id), e.length, err)
		}
		if got := crc32.Checksum(p, crcTable); got != e.crc {
			return nil, fmt.Errorf("snapshot: %s section CRC mismatch (stored %08x, computed %08x): file corrupted", sectionName(e.id), e.crc, got)
		}
		payloads[e.id] = p
	}

	d := &Data{}
	ttBytes, ok := payloads[SecTimetable]
	if !ok {
		return nil, fmt.Errorf("snapshot: missing required timetable section")
	}
	tt, err := timetable.ReadBinary(bytes.NewReader(ttBytes))
	if err != nil {
		return nil, fmt.Errorf("snapshot: timetable section: %w", err)
	}
	d.TT = tt
	if p, ok := payloads[SecStationGraph]; ok {
		sg, err := stationgraph.ReadSection(bytes.NewReader(p))
		if err != nil {
			return nil, fmt.Errorf("snapshot: station-graph section: %w", err)
		}
		if sg.NumStations() != tt.NumStations() {
			return nil, fmt.Errorf("snapshot: station graph has %d stations, timetable has %d", sg.NumStations(), tt.NumStations())
		}
		d.SG = sg
	} else {
		d.SG = stationgraph.Build(tt)
	}
	if p, ok := payloads[SecDistanceTable]; ok {
		t, err := dtable.ReadSection(p, tt.NumStations())
		if err != nil {
			return nil, fmt.Errorf("snapshot: distance-table section: %w", err)
		}
		d.Table = t
	}
	if p, ok := payloads[SecLiveState]; ok {
		lr := bytes.NewReader(p)
		var nano int64
		if err := binary.Read(lr, binary.LittleEndian, &d.Epoch); err != nil {
			return nil, fmt.Errorf("snapshot: live-state section: %w", err)
		}
		if err := binary.Read(lr, binary.LittleEndian, &nano); err != nil {
			return nil, fmt.Errorf("snapshot: live-state section: %w", err)
		}
		d.Created = time.Unix(0, nano)
		// Flags were appended within version 1; a 16-byte payload simply
		// has none set.
		var flags uint64
		if err := binary.Read(lr, binary.LittleEndian, &flags); err == nil {
			d.Patched = flags&flagPatched != 0
		}
		d.Patched = d.Patched || d.Epoch > 0
	}
	return d, nil
}
