package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"transit"
	"transit/internal/faultfs"
	"transit/internal/wal"
)

// ErrClosed is returned by Apply after Close: the registry no longer
// accepts updates (the serving process is draining). Feed clients should
// retry against the replacement instance.
var ErrClosed = errors.New("live: registry closed")

// ErrReprocess wraps distance-table rebuild failures surfaced by Apply
// under ReprocessSync — a server-side condition, not a malformed batch.
var ErrReprocess = errors.New("live: re-preprocess failed")

// ErrJournal wraps write-ahead journal append failures surfaced by Apply:
// the batch could not be made durable, so it was NOT applied and the epoch
// did not advance. The registry keeps serving the previous snapshot and
// the feed client should retry — a server-side durability condition, not a
// malformed batch.
var ErrJournal = errors.New("live: journal append failed")

// Policy selects what happens to distance-table preprocessing after an
// update invalidates it. See the package documentation for the trade-offs.
type Policy int

const (
	// ServeUnpruned drops preprocessing on update and keeps serving with
	// the stopping criterion alone.
	ServeUnpruned Policy = iota
	// ReprocessAsync swaps the patched snapshot in immediately and rebuilds
	// the distance table in the background; a preprocessed network replaces
	// the snapshot (same epoch) when ready.
	ReprocessAsync
	// ReprocessSync rebuilds the distance table before the swap: Apply
	// blocks for the preprocessing time, served snapshots are always pruned.
	ReprocessSync
)

func (p Policy) String() string {
	switch p {
	case ServeUnpruned:
		return "off"
	case ReprocessAsync:
		return "async"
	case ReprocessSync:
		return "sync"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses the flag spellings "off", "async", "sync".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "off":
		return ServeUnpruned, nil
	case "async":
		return ReprocessAsync, nil
	case "sync":
		return ReprocessSync, nil
	default:
		return 0, fmt.Errorf("live: unknown re-preprocess policy %q (want off, async or sync)", s)
	}
}

// Config tunes a Registry.
type Config struct {
	// Policy selects the preprocessing-invalidation strategy.
	Policy Policy
	// Selection is the transfer-station selection used when Policy rebuilds
	// distance tables (required for ReprocessAsync/ReprocessSync).
	Selection transit.TransferSelection
	// Options tunes the preprocessing runs (thread count).
	Options transit.Options
	// Logf, when set, receives re-preprocessing progress and failures.
	Logf func(format string, args ...any)
	// FS is the filesystem behind persistence and the journal; nil means
	// the real disk. Tests inject faultfs.Mem to simulate crashes.
	FS faultfs.FS
	// OnApply, when set, observes every epoch-advancing batch right after
	// its snapshot swap: the new epoch, the ops that produced it, and the
	// touched connections. Called under the registry's apply lock — epochs
	// arrive strictly increasing and never concurrently — including during
	// journal replay at boot, so an observer (the replication publisher)
	// sees the journal's tail too. Must not call back into the registry.
	OnApply func(epoch uint64, ops []transit.DelayOp, touched []transit.TouchedConn)
}

// fs returns the configured filesystem, defaulting to the real disk.
func (c *Config) fs() faultfs.FS {
	if c.FS != nil {
		return c.FS
	}
	return faultfs.Disk
}

// Snapshot is one immutable, query-ready version of the network. Epoch 0 is
// the initially loaded network; every applied update bumps the epoch.
type Snapshot struct {
	Net     *transit.Network
	Epoch   uint64
	Created time.Time
}

// Preprocessed reports whether this snapshot carries a distance table.
func (s *Snapshot) Preprocessed() bool { return s.Net.Preprocessed() }

// Registry holds the current snapshot behind an atomic pointer and applies
// delay batches without ever blocking readers. See the package
// documentation for the consistency model.
type Registry struct {
	cfg Config
	cur atomic.Pointer[Snapshot]

	mu          sync.Mutex // serializes Apply and the async re-preprocess swap
	wg          sync.WaitGroup
	closed      bool
	rebuilding  bool          // an async re-preprocess goroutine is alive (under mu)
	persistStop chan struct{} // closes the StartPersist loop (set under mu)

	// journal, when attached, receives every epoch-advancing batch before
	// the snapshot swap acks it. Set once at boot (RecoverJournal); closed
	// by Close after the final persist checkpoint.
	journal atomic.Pointer[wal.Journal]

	updates          atomic.Uint64
	connsRetimed     atomic.Uint64
	connsCancelled   atomic.Uint64
	lastUpdateMicros atomic.Int64
	reprocessed      atomic.Uint64
	reprocessErrors  atomic.Uint64
	lastReproMicros  atomic.Int64
	repairMicros     atomic.Int64 // cumulative time spent in rebuilds
	lastApplyMicros  atomic.Int64 // Unix µs of the last epoch-advancing Apply
	persists         atomic.Uint64
	persistErrors    atomic.Uint64
	persistedKey     atomic.Int64 // persistKey of the last PersistFile write; 0 = none
	walAppends       atomic.Uint64
	walAppendErrors  atomic.Uint64
	walReplayed      atomic.Uint64
}

// NewRegistry wraps an already-loaded (and possibly preprocessed) network
// as the epoch-0 snapshot.
func NewRegistry(net *transit.Network, cfg Config) *Registry {
	r := &Registry{cfg: cfg}
	r.cur.Store(&Snapshot{Net: net, Created: time.Now()})
	return r
}

// Snapshot returns the current snapshot: a single atomic load, wait-free,
// safe from any goroutine. Callers must load once per request and use that
// snapshot's network throughout, so the request sees one consistent view.
func (r *Registry) Snapshot() *Snapshot { return r.cur.Load() }

// Apply patches the current snapshot with a delay batch and swaps the
// successor in. Writers are serialized; readers are never blocked. A batch
// matching no train leaves the current snapshot (and its epoch) in place.
func (r *Registry) Apply(ops []transit.DelayOp) (*Snapshot, *transit.UpdateStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, ErrClosed
	}
	start := time.Now()
	cur := r.cur.Load()
	next, st, err := cur.Net.ApplyUpdates(ops)
	if err != nil {
		return nil, nil, err
	}
	if next == cur.Net {
		return cur, st, nil // no-op batch: nothing changed, epoch stays
	}
	// Under ReprocessSync the rebuild runs before the batch is journaled:
	// a failed rebuild must not leave an orphaned journal entry that would
	// poison replay at the next boot.
	var syncPS *transit.PreprocessStats
	if r.cfg.Policy == ReprocessSync {
		next, syncPS, err = next.Preprocess(r.cfg.Selection, r.cfg.Options)
		if err != nil {
			r.reprocessErrors.Add(1)
			return nil, nil, fmt.Errorf("%w: %v", ErrReprocess, err)
		}
	}
	// Journal before the swap: once Append returns the batch is fsynced,
	// so acking the new epoch to the client is safe — a crash after this
	// point replays the batch from the journal.
	if j := r.journal.Load(); j != nil {
		if jerr := j.Append(cur.Epoch+1, ops); jerr != nil {
			r.walAppendErrors.Add(1)
			r.logf("live: journal append for epoch %d failed: %v", cur.Epoch+1, jerr)
			return nil, nil, fmt.Errorf("%w: %v", ErrJournal, jerr)
		}
		r.walAppends.Add(1)
	}
	if r.cfg.Policy == ReprocessSync {
		r.noteRepreprocess(syncPS)
		r.logf("live: epoch %d re-preprocessed synchronously (%d rows in %v)",
			cur.Epoch+1, syncPS.Rows, syncPS.Elapsed)
	}
	snap := &Snapshot{Net: next, Epoch: cur.Epoch + 1, Created: time.Now()}
	r.cur.Store(snap)
	r.lastApplyMicros.Store(snap.Created.UnixMicro())
	r.updates.Add(1)
	r.connsRetimed.Add(uint64(st.ConnsRetimed))
	r.connsCancelled.Add(uint64(st.ConnsCancelled))
	r.lastUpdateMicros.Store(time.Since(start).Microseconds())
	if r.cfg.OnApply != nil {
		r.cfg.OnApply(snap.Epoch, ops, st.Touched)
	}
	if r.cfg.Policy == ReprocessAsync {
		if !r.rebuilding {
			// At most one rebuild goroutine is alive; it rolls forward to the
			// newest epoch by itself, so a delay feed faster than the
			// re-preprocessing time coalesces instead of piling up rebuilds.
			r.rebuilding = true
			r.wg.Add(1)
			go r.reprocess(snap)
		}
	}
	return snap, st, nil
}

// noteRepreprocess updates the re-preprocessing counters for one successful
// rebuild.
func (r *Registry) noteRepreprocess(ps *transit.PreprocessStats) {
	r.reprocessed.Add(1)
	r.lastReproMicros.Store(ps.Elapsed.Microseconds())
	r.repairMicros.Add(ps.Elapsed.Microseconds())
}

// reprocess rebuilds snap's distance table in the background and, if snap
// is still current, swaps in the preprocessed network under the same epoch.
// When newer updates landed during the work, the stale result is discarded
// and the loop continues with the now-current snapshot, so intermediate
// epochs are skipped rather than each spawning a rebuild.
func (r *Registry) reprocess(snap *Snapshot) {
	defer r.wg.Done()
	for {
		pre, ps, err := snap.Net.Preprocess(r.cfg.Selection, r.cfg.Options)
		r.mu.Lock()
		cur := r.cur.Load()
		if err != nil {
			r.reprocessErrors.Add(1)
			r.logf("live: async re-preprocess of epoch %d failed: %v", snap.Epoch, err)
		} else if cur.Epoch == snap.Epoch {
			r.noteRepreprocess(ps)
			r.cur.Store(&Snapshot{Net: pre, Epoch: snap.Epoch, Created: snap.Created})
			r.logf("live: epoch %d re-preprocessed (%d rows in %v)",
				snap.Epoch, ps.Rows, ps.Elapsed)
			cur = r.cur.Load()
		}
		if r.closed || cur.Epoch == snap.Epoch {
			// Done: either this result landed (or failed) for the epoch
			// still being served, or the registry is draining.
			r.rebuilding = false
			r.mu.Unlock()
			return
		}
		// Superseded while re-preprocessing: roll forward to the current
		// epoch.
		snap = cur
		r.mu.Unlock()
	}
}

// Install replaces the current snapshot wholesale with a network restored
// from a full snapshot image — a replica resyncing after falling beyond the
// updater's delta retention. The installed epoch must not move backwards:
// readers already saw the current one. The OnApply hook is NOT fired —
// observers stream deltas, and a wholesale swap is not a delta.
func (r *Registry) Install(net *transit.Network, st transit.SnapshotState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	cur := r.cur.Load()
	if st.Epoch < cur.Epoch {
		return fmt.Errorf("live: install would rewind epoch %d to %d", cur.Epoch, st.Epoch)
	}
	created := st.Created
	if created.IsZero() {
		created = time.Now()
	}
	r.cur.Store(&Snapshot{Net: net, Epoch: st.Epoch, Created: created})
	r.lastApplyMicros.Store(created.UnixMicro())
	return nil
}

// Close stops accepting updates, stops the persistence loop (after one
// final checkpoint), waits for in-flight background re-preprocessing to
// finish, and closes the journal. Snapshots already handed out stay valid.
func (r *Registry) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		if r.persistStop != nil {
			close(r.persistStop)
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
	// After wg.Wait the final persist checkpoint (which truncates the
	// journal) has run, and closed=true keeps any further Apply away from
	// the journal — safe to close it now. Idempotence: swap it out first.
	if j := r.journal.Swap(nil); j != nil {
		j.Close()
	}
}

func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Metrics is a point-in-time view of the registry counters, exposed by
// tpserver's GET /metrics.
type Metrics struct {
	Epoch            uint64
	Preprocessed     bool
	UpdatesTotal     uint64
	ConnsRetimed     uint64
	ConnsCancelled   uint64
	LastUpdate       time.Duration
	ReprocessedTotal uint64
	ReprocessErrors  uint64
	// LastReprocess is the duration of the last table rebuild.
	LastReprocess time.Duration
	// RepairDuration is the cumulative wall-clock time spent in table
	// rebuilds — divided by ReprocessedTotal it is the mean rebuild cost,
	// and its rate is the fraction of real time the delay feed keeps the
	// preprocessor busy.
	RepairDuration time.Duration
	// LastApply is the wall-clock time of the last epoch-advancing delay
	// batch (zero until the first one); now()−LastApply is the delay feed's
	// ingestion lag.
	LastApply     time.Time
	PersistsTotal uint64
	PersistErrors uint64
	// Write-ahead journal counters: batches appended (and fsynced) before
	// their ack, appends that failed (the batch was rejected, not lost),
	// batches replayed from the journal at boot, and the journal's current
	// on-disk size (0 when no journal is attached).
	WalAppends      uint64
	WalAppendErrors uint64
	WalReplayed     uint64
	WalBytes        int64
}

// Metrics reads the counters (wait-free).
func (r *Registry) Metrics() Metrics {
	snap := r.Snapshot()
	return Metrics{
		Epoch:            snap.Epoch,
		Preprocessed:     snap.Preprocessed(),
		UpdatesTotal:     r.updates.Load(),
		ConnsRetimed:     r.connsRetimed.Load(),
		ConnsCancelled:   r.connsCancelled.Load(),
		LastUpdate:       time.Duration(r.lastUpdateMicros.Load()) * time.Microsecond,
		ReprocessedTotal: r.reprocessed.Load(),
		ReprocessErrors:  r.reprocessErrors.Load(),
		LastReprocess:    time.Duration(r.lastReproMicros.Load()) * time.Microsecond,
		RepairDuration:   time.Duration(r.repairMicros.Load()) * time.Microsecond,
		LastApply:        lastApply(r.lastApplyMicros.Load()),
		PersistsTotal:    r.persists.Load(),
		PersistErrors:    r.persistErrors.Load(),
		WalAppends:       r.walAppends.Load(),
		WalAppendErrors:  r.walAppendErrors.Load(),
		WalReplayed:      r.walReplayed.Load(),
		WalBytes:         r.journalBytes(),
	}
}

func (r *Registry) journalBytes() int64 {
	if j := r.journal.Load(); j != nil {
		return j.Size()
	}
	return 0
}

func lastApply(micros int64) time.Time {
	if micros == 0 {
		return time.Time{}
	}
	return time.UnixMicro(micros)
}
