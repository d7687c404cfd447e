package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"transit"
	"transit/internal/backoff"
	"transit/internal/live"
	"transit/internal/wal"
)

// DefaultBackoff is the follower's reconnect schedule: fast first retry,
// capped well below operator-reaction time, jittered so a fleet of
// replicas does not stampede a restarted updater.
var DefaultBackoff = backoff.Policy{Base: 500 * time.Millisecond, Max: 30 * time.Second, Jitter: 0.5}

// errResync reports a stream outcome that demands a full snapshot
// fetch: retention outrun (410), or local state diverged from the
// updater's touched-set.
var errResync = errors.New("replica: full resync required")

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Registry is the local registry deltas are applied into. Required.
	Registry *live.Registry
	// BaseURL is the updater's base URL, e.g. "http://updater:8080".
	// Required; trailing slash tolerated.
	BaseURL string
	// Client performs the stream and snapshot requests. Nil means a
	// default client with no overall timeout — the stream is long-lived.
	Client *http.Client
	// Backoff is the reconnect schedule; zero means DefaultBackoff.
	Backoff backoff.Policy
	// Logf, when set, receives connection lifecycle and divergence events.
	Logf func(format string, args ...any)
}

// Follower is the replica side of replication: a background loop that
// subscribes to the updater's delta stream from the local epoch, applies
// each delta through the registry's ordinary Apply path (journal, table
// rebuild, atomic swap — a replica IS an updater whose only feed client is
// the stream), verifies the updater's touched-set against its own, and
// falls back to a full snapshot install when it cannot catch up by deltas.
type Follower struct {
	cfg    FollowerConfig
	cancel context.CancelFunc
	done   chan struct{}

	// remote is the highest epoch the updater is known to have published
	// (hello frames and delta epochs); set once helloSeen.
	remoteMu  sync.Mutex
	remote    uint64
	helloSeen bool

	deltasApplied   atomic.Uint64
	reconnects      atomic.Uint64
	snapshotFetches atomic.Uint64
	divergences     atomic.Uint64
}

// NewFollower returns an unstarted follower.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Backoff == (backoff.Policy{}) {
		cfg.Backoff = DefaultBackoff
	}
	for len(cfg.BaseURL) > 0 && cfg.BaseURL[len(cfg.BaseURL)-1] == '/' {
		cfg.BaseURL = cfg.BaseURL[:len(cfg.BaseURL)-1]
	}
	return &Follower{cfg: cfg, done: make(chan struct{})}
}

// Start launches the follow loop. Call once.
func (f *Follower) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(ctx)
}

// Stop aborts the in-flight stream request and waits for the loop to exit.
// Nil-safe and idempotent.
func (f *Follower) Stop() {
	if f == nil || f.cancel == nil {
		return
	}
	f.cancel()
	<-f.done
}

// Lag returns how many epochs the local registry trails the updater, and
// whether that is known yet (false until the first hello frame arrives —
// a replica that has never reached its updater must not claim to be
// caught up). Nil-safe: a non-follower reports (0, true).
func (f *Follower) Lag() (uint64, bool) {
	if f == nil {
		return 0, true
	}
	f.remoteMu.Lock()
	remote, seen := f.remote, f.helloSeen
	f.remoteMu.Unlock()
	if !seen {
		return 0, false
	}
	local := f.cfg.Registry.Snapshot().Epoch
	if local >= remote {
		return 0, true
	}
	return remote - local, true
}

// DeltasApplied returns the total stream deltas applied locally. Nil-safe.
func (f *Follower) DeltasApplied() uint64 {
	if f == nil {
		return 0
	}
	return f.deltasApplied.Load()
}

// Reconnects returns how many times the stream had to be re-established
// after a break (the first connection is free). Nil-safe.
func (f *Follower) Reconnects() uint64 {
	if f == nil {
		return 0
	}
	return f.reconnects.Load()
}

// SnapshotFetches returns the full snapshot downloads performed (resyncs
// after outrunning retention or diverging). Nil-safe.
func (f *Follower) SnapshotFetches() uint64 {
	if f == nil {
		return 0
	}
	return f.snapshotFetches.Load()
}

// Divergences returns how many deltas carried a touched-set different from
// the one computed locally — each one forced a full resync. Nil-safe.
func (f *Follower) Divergences() uint64 {
	if f == nil {
		return 0
	}
	return f.divergences.Load()
}

// noteRemote records evidence that the updater has published through epoch.
func (f *Follower) noteRemote(epoch uint64) {
	f.remoteMu.Lock()
	if epoch > f.remote {
		f.remote = epoch
	}
	f.helloSeen = true
	f.remoteMu.Unlock()
}

// run is the follow loop: stream until it breaks, reconnect with jittered
// capped backoff, resync from the full snapshot when the stream says so.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	retry := backoff.New(f.cfg.Backoff)
	first := true
	for {
		if ctx.Err() != nil {
			return
		}
		if !first {
			f.reconnects.Add(1)
		}
		first = false
		err := f.streamOnce(ctx)
		switch {
		case ctx.Err() != nil:
			return
		case errors.Is(err, errResync):
			if ierr := f.resync(ctx); ierr != nil {
				f.logf("replica: snapshot resync failed: %v", ierr)
			} else {
				retry.Reset()
				continue // resynced — reconnect immediately
			}
		case err != nil:
			f.logf("replica: stream to %s broke: %v", f.cfg.BaseURL, err)
		}
		select {
		case <-time.After(retry.Next()):
		case <-ctx.Done():
			return
		}
	}
}

// streamOnce opens one stream connection from the local epoch and applies
// deltas until it ends. A nil return means the stream closed cleanly
// (updater shutting down); errResync means deltas cannot get us there.
func (f *Follower) streamOnce(ctx context.Context) error {
	local := f.cfg.Registry.Snapshot().Epoch
	url := fmt.Sprintf("%s/v1/replication/stream?from=%d", f.cfg.BaseURL, local+1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// Beyond the updater's delta retention: only the snapshot can
		// catch us up.
		f.logf("replica: epoch %d beyond updater retention, falling back to snapshot", local)
		return errResync
	case http.StatusRequestedRangeNotSatisfiable:
		// We know a future the updater never published — it restarted
		// having lost acked epochs. A snapshot cannot help (Install
		// refuses to rewind); keep retrying until the updater catches up
		// past us.
		return fmt.Errorf("replica: local epoch %d is ahead of updater", local)
	default:
		return fmt.Errorf("replica: stream request: %s", resp.Status)
	}

	for {
		payload, err := wal.ReadFrame(resp.Body)
		if err == io.EOF {
			return nil // clean close: updater shut down
		}
		if err != nil {
			return err
		}
		if len(payload) == 0 {
			return fmt.Errorf("replica: empty frame")
		}
		switch payload[0] {
		case frameHello:
			epoch, err := decodeHello(payload)
			if err != nil {
				return err
			}
			f.noteRemote(epoch)
		case frameDelta:
			d, err := decodeDelta(payload)
			if err != nil {
				return err
			}
			if err := f.apply(d); err != nil {
				return err
			}
		default:
			return fmt.Errorf("replica: unknown frame type %d", payload[0])
		}
	}
}

// apply applies one stream delta through the registry and cross-checks the
// result against the updater's.
func (f *Follower) apply(d Delta) error {
	local := f.cfg.Registry.Snapshot().Epoch
	if d.Epoch <= local {
		f.noteRemote(d.Epoch)
		return nil // duplicate from an overlapping backlog replay
	}
	if d.Epoch != local+1 {
		return fmt.Errorf("replica: stream jumped from epoch %d to %d", local, d.Epoch)
	}
	snap, st, err := f.cfg.Registry.Apply(d.Ops)
	if err != nil {
		return fmt.Errorf("replica: applying epoch %d: %w", d.Epoch, err)
	}
	if snap.Epoch != d.Epoch || !slices.Equal(st.Touched, d.Touched) {
		// The same ops on the same predecessor must touch the same
		// connections (ApplyUpdates is deterministic) — this state has
		// drifted from the updater's. Rebuild from the source of truth.
		f.divergences.Add(1)
		f.logf("replica: epoch %d diverged from updater (touched %d conns locally, %d upstream) — resyncing",
			d.Epoch, len(st.Touched), len(d.Touched))
		return errResync
	}
	f.deltasApplied.Add(1)
	f.noteRemote(d.Epoch)
	return nil
}

// resync downloads the updater's full snapshot and installs it wholesale.
func (f *Follower) resync(ctx context.Context) error {
	net, st, err := FetchSnapshot(ctx, f.cfg.Client, f.cfg.BaseURL)
	if err != nil {
		return err
	}
	f.snapshotFetches.Add(1)
	if err := f.cfg.Registry.Install(net, *st); err != nil {
		return err
	}
	f.noteRemote(st.Epoch)
	f.logf("replica: installed full snapshot at epoch %d", st.Epoch)
	return nil
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// FetchSnapshot downloads and decodes the updater's current full snapshot
// — the replica's cold-boot path, also used for mid-life resyncs.
func FetchSnapshot(ctx context.Context, client *http.Client, baseURL string) (*transit.Network, *transit.SnapshotState, error) {
	if client == nil {
		client = &http.Client{}
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/replication/snapshot", nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("replica: snapshot download: %s", resp.Status)
	}
	net, st, err := transit.LoadSnapshot(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: snapshot download: %w", err)
	}
	return net, st, nil
}
