// Package replica is the replication subsystem behind tpserver's
// updater/replica split: one node ingests delays and does the expensive
// table maintenance, any number of stateless replicas serve queries from
// its stream of epoch deltas.
//
// The paper's economics make the split natural: preprocessing (distance
// tables) is the expensive part, a delay patch is cheap, and queries are
// read-only against an immutable snapshot. So the write side is a
// single Publisher that, after every applied batch, retains and fans out
// one Delta — the batch's ops in the journal's WAL entry encoding plus the
// touched-connection set the apply computed. The read side is a Follower
// that applies each delta through the registry's ordinary Apply path
// (journal, table rebuild, atomic snapshot swap): a replica is just an
// updater whose only delay feed is the stream.
//
// # Wire format
//
// The stream (GET /v1/replication/stream?from=<epoch>) is an unbounded
// HTTP response of frames in the internal/wal frame format — u32 length,
// u32 CRC-32C, payload — so a dropped connection mid-frame is detected the
// same way a crash mid-append is: the torn frame fails its checksum and
// the reader reconnects. The first payload byte is the frame type: hello
// (the updater's current epoch, letting the replica compute its lag before
// the first delta) or delta (WAL entry ++ touched block).
//
// # Epoch contract
//
// Epochs advance by exactly 1 per applied batch on the updater, and the
// Follower refuses gaps, so a replica's epoch E means: byte-identical
// state to the updater at its epoch E. The touched set in every delta is
// the proof obligation — ApplyUpdates is deterministic, so the follower
// recomputes the identical set or knows its state has drifted and resyncs
// from the full snapshot.
//
// # Catch-up ladder
//
// A reconnecting replica resumes from the retention ring (cheap, the
// common case), falls back to the full snapshot when it has been away
// longer than the ring remembers (410 Gone), and keeps retrying with
// jittered capped backoff when the updater itself is behind (416) or
// unreachable. See docs/REPLICATION.md for the operational picture.
package replica
