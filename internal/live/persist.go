package live

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"transit"
	"transit/internal/backoff"
	"transit/internal/faultfs"
)

// NewRegistryAt wraps a network restored from a persisted snapshot
// (transit.LoadSnapshot), resuming at its recorded epoch instead of 0, so a
// restarted server continues the epoch sequence its feed clients observed.
func NewRegistryAt(net *transit.Network, st transit.SnapshotState, cfg Config) *Registry {
	r := &Registry{cfg: cfg}
	created := st.Created
	if created.IsZero() {
		created = time.Now()
	}
	r.cur.Store(&Snapshot{Net: net, Epoch: st.Epoch, Created: created})
	return r
}

// Persist writes the current snapshot — network, distance table if present,
// epoch, creation time — in the snapshot container format. Loading the
// stream with transit.LoadSnapshot and seeding a registry with NewRegistryAt
// resumes serving at this exact version, delays intact.
//
// Persist reads the snapshot pointer once; an Apply racing it is either
// fully included or fully absent, never half-applied.
func (r *Registry) Persist(w io.Writer) (uint64, error) {
	snap := r.Snapshot()
	err := snap.Net.WriteSnapshotState(w, transit.SnapshotState{Epoch: snap.Epoch, Created: snap.Created})
	return snap.Epoch, err
}

// persistKey packs the identity of a persisted version: the epoch plus
// whether the network carried a distance table at the time (an async
// re-preprocess re-publishes the same epoch with a table, which is worth
// persisting again). Keys are ≥ 1 so the zero value of persistedKey means
// "nothing persisted yet".
func persistKey(s *Snapshot) int64 {
	k := int64(s.Epoch)<<1 + 1
	if s.Preprocessed() {
		k |= 1 << 62
	}
	return k
}

// PersistFile atomically persists the current snapshot to path: write to a
// temporary file in the same directory, fsync, then rename — so the final
// name only ever holds a complete, durable image. It returns the persisted
// epoch and whether a write happened: a version already persisted by a
// previous successful PersistFile is skipped. After a successful write the
// attached journal (if any) is truncated through the persisted epoch — the
// checkpoint now covers those batches.
func (r *Registry) PersistFile(path string) (uint64, bool, error) {
	snap := r.Snapshot()
	key := persistKey(snap)
	if r.persistedKey.Load() == key {
		return snap.Epoch, false, nil
	}
	fsys := r.cfg.fs()
	tmp, err := faultfs.CreateTemp(fsys, filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		r.persistErrors.Add(1)
		return snap.Epoch, false, fmt.Errorf("live: persisting epoch %d: %w", snap.Epoch, err)
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	err = snap.Net.WriteSnapshotState(tmp, transit.SnapshotState{Epoch: snap.Epoch, Created: snap.Created})
	if err == nil {
		// Make the image durable before it can carry the final name: a
		// rename is metadata-only, and a crash right after it must not
		// expose a half-written file under path.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		r.persistErrors.Add(1)
		return snap.Epoch, false, fmt.Errorf("live: persisting epoch %d: %w", snap.Epoch, err)
	}
	r.persistedKey.Store(key)
	r.persists.Add(1)
	if j := r.journal.Load(); j != nil {
		// Failure to truncate is benign: the journal keeps batches the
		// checkpoint already covers, and the next boot (or checkpoint)
		// skips or drops them.
		if terr := j.TruncateThrough(snap.Epoch); terr != nil {
			r.logf("live: journal truncate after epoch-%d checkpoint failed: %v", snap.Epoch, terr)
		}
	}
	return snap.Epoch, true, nil
}

// StartPersist launches the background persistence loop: every interval the
// current snapshot is written to path (atomically, skipping unchanged
// versions), and Close performs one final persist before returning, so the
// last applied epoch always survives a graceful shutdown. A failed
// checkpoint is retried with capped exponential backoff (1s, 2s, … up to
// min(interval, 1m)) instead of waiting out the full interval — serving
// continues meanwhile, still durable through the journal. At most one loop
// runs per registry; extra calls are no-ops.
func (r *Registry) StartPersist(path string, interval time.Duration) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	r.mu.Lock()
	if r.closed || r.persistStop != nil {
		r.mu.Unlock()
		return
	}
	r.persistStop = make(chan struct{})
	stop := r.persistStop
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		// Retry schedule after a failed checkpoint: 1s doubling up to a
		// minute, never beyond the regular interval. No jitter — one loop
		// per process, nothing to de-synchronize.
		retry := backoff.New(backoff.Policy{Base: time.Second, Max: min(interval, time.Minute)})
		var pending time.Duration // next retry delay; 0 = on the regular cadence
		for {
			wait := interval
			if pending > 0 && pending < interval {
				wait = pending
			}
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
				if r.persistTick(path) {
					retry.Reset()
					pending = 0
				} else {
					pending = retry.Next()
					r.logf("live: retrying persist in %v", pending)
				}
			case <-stop:
				timer.Stop()
				r.persistTick(path) // final checkpoint: restarts resume at the last epoch
				return
			}
		}
	}()
}

// persistTick runs one checkpoint attempt, reporting success.
func (r *Registry) persistTick(path string) bool {
	epoch, wrote, err := r.PersistFile(path)
	if err != nil {
		r.logf("live: persist failed: %v", err)
		return false
	}
	if wrote {
		r.logf("live: persisted epoch %d to %s", epoch, path)
	}
	return true
}
