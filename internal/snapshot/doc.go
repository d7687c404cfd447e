// Package snapshot implements the versioned, checksummed binary container
// that persists a complete query-ready network — timetable, station graph
// and (optionally) the distance table — so a serving process boots by
// loading one file instead of re-running generation, graph construction and
// preprocessing.
//
// # Container layout
//
// A snapshot is a magic header, a format version, a section table and the
// concatenated section payloads; every payload is CRC-32C checksummed
// independently, so corruption is detected per section with a descriptive
// error. Sections are flat, length-prefixed and little-endian, which keeps a
// future mmap fast-path possible without a format break. The full byte-level
// specification, the section IDs and the versioning/compatibility rules live
// in docs/SNAPSHOT_FORMAT.md.
//
// # Sections
//
//   - SecTimetable (required): the binary v1 timetable — stations, trains,
//     connections (including cancelled ones, which keep their dense ID slot
//     with an infinite arrival), footpaths.
//   - SecStationGraph: the condensed station graph as a forward CSR; the
//     reverse adjacency and degrees are derived on load. Absent sections are
//     rebuilt from the timetable.
//   - SecDistanceTable: the transfer-station distance table of a
//     preprocessed network. Optional — a snapshot of an unpreprocessed (or
//     freshly patched) network simply has no table section.
//   - SecLiveState: the live-serving provenance — the epoch of the
//     internal/live registry the snapshot was persisted from and its
//     creation time — so a restarted server resumes with delays intact.
//
// Each payload goes to its parser as bytes (timetable.ParseBinary,
// stationgraph.ReadSection, dtable.ReadSection), which decode fixed-width
// little-endian fields and check every count against the bytes left before
// allocating anything for it, so a hostile header fails with an error, not
// an out-of-memory abort. Writers encode with binary.LittleEndian appends
// into one buffer per section.
//
// Readers skip unknown section IDs (forward compatibility within a major
// format version) and reject unknown format versions outright. ID 5 is
// retired: builds before PR 25 wrote the table's repair provenance there,
// and this build skips it on read.
//
// The public entry points are transit.Network.WriteSnapshot and
// transit.LoadSnapshot; internal/live.Registry persists its current epoch
// through the same container.
//
// A persisted registry additionally keeps a journal sidecar next to the
// snapshot file (<path>.wal, internal/wal): an append-only CRC-framed log
// of the delay batches applied since the last checkpoint, fsynced before
// each batch is acked and truncated after each successful checkpoint. The
// sidecar is deliberately not a snapshot section — it must be appendable
// and fsyncable per batch, while the container is written whole. Format
// and recovery contract: docs/RELIABILITY.md.
package snapshot
