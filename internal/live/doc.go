// Package live is the dynamic-update subsystem: it turns the immutable
// query library into a continuously updatable service, realizing the fully
// dynamic scenario the paper's conclusion singles out — because the profile
// search needs no preprocessing, delay messages can take effect immediately
// (Delling, Katz, Pajor; IPDPS 2010, Section 6).
//
// # Snapshot lifecycle
//
// A Registry owns a chain of immutable snapshots. Each Snapshot wraps one
// query-ready *transit.Network plus an epoch counter; the current snapshot
// sits behind an atomic pointer:
//
//	readers:  Snapshot() ───────────▶ atomic load, never blocks
//	writer:   Apply(ops) ─ mutex ──▶ patch → new Network → atomic store
//
// Apply builds the successor network with Network.ApplyUpdates — the
// incremental copy-on-write patch path through internal/timetable and
// internal/graph — so an update touching k connections re-sorts only the
// affected stations' connection lists and recomputes only the ride edges
// that carry a touched connection. The old snapshot is not modified in any
// way: queries that loaded it before the swap finish on a consistent view,
// and the garbage collector reclaims it once the last such query returns.
//
// # Consistency model
//
//   - Writers are serialized by a mutex; updates are applied in arrival
//     order and each bumps the epoch by one.
//   - Readers are wait-free. A reader sees exactly one snapshot: whatever
//     the atomic pointer held when it called Snapshot(). Requests must load
//     the snapshot once and use that network for the whole request — never
//     call Snapshot() twice within one computation.
//   - There is no read-your-writes guarantee across clients: a query racing
//     an Apply may see the pre- or post-update network, but never a mix.
//
// # Preprocessing invalidation
//
// A distance table stores travel times, which a delay changes, so Apply
// always drops the table from the successor network. What happens next is
// the Config.Policy choice:
//
//   - ServeUnpruned: keep serving without a table (stopping criterion
//     only). Correct, no extra work; queries are slower until the operator
//     re-preprocesses.
//   - ReprocessAsync (default for served deployments): swap the unpruned
//     snapshot in immediately, restore the table in the background, and
//     re-swap a preprocessed network under the same epoch when it is
//     ready. If a newer update lands first, the stale result is discarded
//     (epoch check under the writer mutex).
//   - ReprocessSync: restore the table before the swap. Updates block for
//     the re-preprocessing time but every served snapshot is always pruned.
//
// Restoring the table is a full rebuild, Preprocess(Selection, Options),
// which is all the paper's fully dynamic scenario needs
// (docs/PREPROCESSING.md, "After a delay batch", has the measurements that
// retired incremental repair). Metrics holds the rebuild counters tpserver
// exports.
//
// The station graph, unlike the table, survives updates: delays never
// change connectivity and cancellations only shrink it, and a conservative
// (superset) station graph keeps the via-station computation correct.
//
// # Persistence
//
// A Registry can checkpoint its current snapshot to disk in the versioned
// container of internal/snapshot (byte layout and compatibility rules in
// docs/SNAPSHOT_FORMAT.md): Persist streams the current network plus its
// epoch, PersistFile writes atomically (temp file + rename, unchanged
// versions skipped), and StartPersist runs a periodic checkpoint loop with
// a final write on Close. A restarted server loads the checkpoint with
// transit.LoadSnapshot and resumes the epoch sequence via NewRegistryAt,
// so applied delays survive process restarts — see tpserver's -snapshot
// and -persist flags for the wiring.
package live
