package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
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

// section is one entry of a container: its id and its payload.
type section struct {
	id      uint32
	payload []byte
}

// Write serializes d as a snapshot container: header, section table, then
// the section payloads in table order. Sections are encoded first to compute
// lengths and checksums up front, so w receives one sequential stream.
func Write(w io.Writer, d *Data) error {
	if d.TT == nil {
		return fmt.Errorf("snapshot: no timetable to write")
	}
	le := binary.LittleEndian
	secs := []section{{SecTimetable, timetable.AppendBinary(nil, d.TT)}}
	if d.SG != nil {
		secs = append(secs, section{SecStationGraph, stationgraph.AppendSection(nil, d.SG)})
	}
	if d.Table != nil {
		var buf bytes.Buffer
		n := d.Table.NumTransfer() // header, stations, a count per profile, points
		buf.Grow(int(d.Table.SizeBytes()) + 4*(n+1)*(n+3))
		if err := dtable.WriteSection(&buf, d.Table, d.TT.NumStations()); err != nil {
			return fmt.Errorf("snapshot: encoding %s section: %w", sectionName(SecDistanceTable), err)
		}
		secs = append(secs, section{SecDistanceTable, buf.Bytes()})
	}
	created := d.Created
	if created.IsZero() {
		created = time.Now()
	}
	var flags uint64
	if d.Patched || d.Epoch > 0 {
		flags |= flagPatched
	}
	live := le.AppendUint64(make([]byte, 0, 24), d.Epoch)
	live = le.AppendUint64(live, uint64(created.UnixNano()))
	secs = append(secs, section{SecLiveState, le.AppendUint64(live, flags)})

	head := make([]byte, 0, len(Magic)+8+16*len(secs))
	head = append(head, Magic[:]...)
	head = le.AppendUint32(head, Version)
	head = le.AppendUint32(head, uint32(len(secs)))
	for _, s := range secs {
		if len(s.payload) > maxSectionBytes {
			return fmt.Errorf("snapshot: %s section exceeds %d bytes", sectionName(s.id), maxSectionBytes)
		}
		head = le.AppendUint32(head, s.id)
		head = le.AppendUint32(head, crc32.Checksum(s.payload, crcTable))
		head = le.AppendUint64(head, uint64(len(s.payload)))
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	for _, s := range secs {
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
	}
	return nil
}

// payloadChunk is the most readPayload allocates ahead of the bytes that
// have arrived.
const payloadChunk = 16 << 20

// readPayload reads a section payload of n bytes. Past its first
// payloadChunk bytes the buffer grows with the bytes that arrive, at most
// doubling, so a section table that claims more than the stream holds fails
// before it allocates the claim.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	p := make([]byte, 0, min(n, payloadChunk))
	for uint64(len(p)) < n {
		if len(p) == cap(p) {
			p = slices.Grow(p, int(min(n-uint64(len(p)), uint64(len(p)))))
		}
		m := min(uint64(cap(p)), n)
		if _, err := io.ReadFull(r, p[len(p):m]); err != nil {
			return nil, err
		}
		p = p[:m]
	}
	return p, nil
}

// Read parses and validates a snapshot container. Every known section's CRC
// is verified before its payload is decoded; unknown section IDs are
// skipped for forward compatibility. The timetable section is required.
// The payloads go to their parsers as bytes, and every count decoded from
// them is checked against the bytes left before anything is allocated.
func Read(r io.Reader) (*Data, error) {
	le := binary.LittleEndian
	br := bufio.NewReaderSize(r, 1<<16)
	var head [16]byte
	if _, err := io.ReadFull(br, head[:len(Magic)]); err != nil {
		return nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if [8]byte(head[:8]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a snapshot file?)", head[:8])
	}
	if _, err := io.ReadFull(br, head[8:12]); err != nil {
		return nil, fmt.Errorf("snapshot: reading version: %w", err)
	}
	if version := le.Uint32(head[8:]); version != Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads version %d)", version, Version)
	}
	if _, err := io.ReadFull(br, head[12:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading section count: %w", err)
	}
	nSections := le.Uint32(head[12:])
	if nSections == 0 || nSections > maxSections {
		return nil, fmt.Errorf("snapshot: implausible section count %d", nSections)
	}
	table := make([]byte, 16*nSections)
	if _, err := io.ReadFull(br, table); err != nil {
		return nil, fmt.Errorf("snapshot: reading section table: %w", err)
	}
	payloads := make(map[uint32][]byte, nSections)
	for i := range nSections {
		id, length := le.Uint32(table[16*i:]), le.Uint64(table[16*i+8:])
		if length > maxSectionBytes {
			return nil, fmt.Errorf("snapshot: %s section claims %d bytes (max %d)", sectionName(id), length, maxSectionBytes)
		}
		if _, dup := payloads[id]; dup {
			return nil, fmt.Errorf("snapshot: duplicate %s section", sectionName(id))
		}
		payloads[id] = nil
	}
	for i := range nSections {
		e := table[16*i:]
		id, crc, length := le.Uint32(e), le.Uint32(e[4:]), le.Uint64(e[8:])
		p, err := readPayload(br, length)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %s section truncated (want %d bytes): %w", sectionName(id), length, err)
		}
		if got := crc32.Checksum(p, crcTable); got != crc {
			return nil, fmt.Errorf("snapshot: %s section CRC mismatch (stored %08x, computed %08x): file corrupted", sectionName(id), crc, got)
		}
		payloads[id] = p
	}

	d := &Data{}
	ttBytes, ok := payloads[SecTimetable]
	if !ok {
		return nil, fmt.Errorf("snapshot: missing required timetable section")
	}
	tt, err := timetable.ParseBinary(ttBytes)
	if err != nil {
		return nil, fmt.Errorf("snapshot: timetable section: %w", err)
	}
	d.TT = tt
	if p, ok := payloads[SecStationGraph]; ok {
		sg, err := stationgraph.ReadSection(p)
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
		if len(p) < 16 {
			return nil, fmt.Errorf("snapshot: live-state section: %d bytes, want epoch and creation time: %w", len(p), io.ErrUnexpectedEOF)
		}
		d.Epoch = le.Uint64(p)
		d.Created = time.Unix(0, int64(le.Uint64(p[8:])))
		// Flags were appended within version 1; a 16-byte payload simply
		// has none set.
		if len(p) >= 24 {
			d.Patched = le.Uint64(p[16:])&flagPatched != 0
		}
		d.Patched = d.Patched || d.Epoch > 0
	}
	return d, nil
}
