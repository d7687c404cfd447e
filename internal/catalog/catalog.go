package catalog

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"transit"
	"transit/internal/faultfs"
	"transit/internal/live"
)

// Config tunes a Catalog.
type Config struct {
	// MemBytes is the resident-set budget: the catalog evicts
	// least-recently-used unpinned tenants once the summed snapshot file
	// sizes of the resident ones exceed it. Zero means unlimited (nothing
	// is ever evicted).
	MemBytes int64
	// Live is the template live.Config each tenant's registry is built
	// from. Tenants whose snapshot carries no distance table are demoted to
	// live.ServeUnpruned regardless of the template policy (there is no
	// table to repair). Logf is wrapped with a per-tenant prefix.
	Live live.Config
	// PersistDir, when non-empty, gives every tenant a persist file
	// <PersistDir>/<name>.live.snap: delay epochs survive eviction and
	// process restarts. The directory must exist.
	PersistDir string
	// PersistInterval is the per-tenant background checkpoint cadence
	// (live.StartPersist default when zero).
	PersistInterval time.Duration
	// Journal, with PersistDir set, gives every tenant a write-ahead
	// journal <PersistDir>/<name>.wal: delay batches are fsynced before
	// they are acked and replayed on load, so eviction/reload cycles and
	// crashes both recover every acked epoch (not just the last
	// checkpoint).
	Journal bool
	// Default overrides the manifest's default network.
	Default string
	// Logf, when set, receives load/evict lifecycle messages.
	Logf func(format string, args ...any)
}

// tenant is one named network and its lifecycle state. All fields except
// name/snapPath/persistPath/static are guarded by Catalog.mu; reg is read
// via a Handle only while refs pins it.
type tenant struct {
	name        string
	snapPath    string // absolute path of the manifest snapshot
	persistPath string // "" when persistence is off
	walPath     string // "" when journaling is off
	static      bool   // injected via NewStatic: always resident, never evicted

	reg  *live.Registry
	refs int           // in-flight handles pinning reg
	size int64         // bytes charged against MemBytes while resident
	elem *list.Element // position in Catalog.lru while resident

	// loading is non-nil while a goroutine is materializing reg; waiters
	// block on it and retry. closing is non-nil while an evicted registry
	// is flushing its final persist checkpoint; a reload must wait for it,
	// or the fresh registry would read a stale epoch and later clobber the
	// newer file.
	loading chan struct{}
	closing chan struct{}

	loadsN   uint64
	evictsN  uint64
	lastLive live.Metrics // metrics frozen at the last eviction
}

// Catalog is a registry of named networks, each backed by its own
// live.Registry with independent delay epochs, persistence and repair
// state. Tenants load lazily on first Acquire, stay pinned while handles
// are out, and are evicted least-recently-used when the resident bytes
// exceed the budget. See the package documentation for the lifecycle.
type Catalog struct {
	dir   string
	cfg   Config
	def   string
	names []string // manifest order, stable

	mu            chan struct{} // 1-buffered mutex; chan so evict waits stay simple
	closed        bool
	tenants       map[string]*tenant
	lru           *list.List // front = most recently used; elements hold *tenant
	residentBytes int64

	loads      uint64
	evictions  uint64
	loadErrors uint64
	loadMicros int64
}

func newCatalog(dir string, cfg Config) *Catalog {
	c := &Catalog{
		dir:     dir,
		cfg:     cfg,
		mu:      make(chan struct{}, 1),
		tenants: make(map[string]*tenant),
		lru:     list.New(),
	}
	return c
}

func (c *Catalog) lock()   { c.mu <- struct{}{} }
func (c *Catalog) unlock() { <-c.mu }

// fs returns the filesystem tenant files are read and persisted through:
// the live template's FS, defaulting to the real disk.
func (c *Catalog) fs() faultfs.FS {
	if c.cfg.Live.FS != nil {
		return c.cfg.Live.FS
	}
	return faultfs.Disk
}

// Open reads dir/catalog.json and returns a catalog serving its networks.
// No snapshot is loaded yet; each tenant materializes on first Acquire.
// Snapshot files must exist at Open time so a typo fails fast, not on the
// first query.
func Open(dir string, cfg Config) (*Catalog, error) {
	fsys := cfg.Live.FS
	if fsys == nil {
		fsys = faultfs.Disk
	}
	m, err := ReadManifestFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	if cfg.Default != "" {
		found := false
		for _, e := range m.Networks {
			if e.Name == cfg.Default {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("catalog: default network %q not in manifest", cfg.Default)
		}
		m.Default = cfg.Default
	}
	c := newCatalog(dir, cfg)
	c.def = m.Default
	for _, e := range m.Networks {
		snapPath := filepath.Join(dir, e.Snapshot)
		if _, err := fsys.Stat(snapPath); err != nil {
			return nil, fmt.Errorf("catalog: network %s: %w", e.Name, err)
		}
		t := &tenant{name: e.Name, snapPath: snapPath}
		if cfg.PersistDir != "" {
			t.persistPath = filepath.Join(cfg.PersistDir, e.Name+".live.snap")
			if cfg.Journal {
				t.walPath = filepath.Join(cfg.PersistDir, e.Name+".wal")
			}
		}
		c.tenants[e.Name] = t
		c.names = append(c.names, e.Name)
	}
	return c, nil
}

// NewStatic wraps one pre-built registry as a single-network catalog: the
// tenant is permanently resident, exempt from any budget, and never
// evicted. This is how the single-network tpserver flags keep working — a
// one-entry catalog with the legacy lifecycle.
func NewStatic(name string, reg *live.Registry) *Catalog {
	c := newCatalog("", Config{})
	c.def = name
	c.names = []string{name}
	t := &tenant{name: name, static: true, reg: reg}
	t.elem = c.lru.PushFront(t)
	c.tenants[name] = t
	return c
}

// Handle pins one resident tenant. The registry (and every snapshot taken
// from it) stays valid until Release; queries must hold the handle for
// their full duration.
type Handle struct {
	c *Catalog
	t *tenant
	r *live.Registry
}

// Registry returns the pinned tenant's live registry.
func (h *Handle) Registry() *live.Registry { return h.r }

// Name returns the tenant's network name.
func (h *Handle) Name() string { return h.t.name }

// Release drops the pin. After the last release a tenant becomes evictable;
// if the resident set is over budget (a load during the pin overshot), the
// release triggers the deferred eviction.
func (h *Handle) Release() {
	c, t := h.c, h.t
	c.lock()
	t.refs--
	var victims []victim
	if t.refs == 0 && !c.closed {
		victims = c.evictLocked(nil)
	}
	c.unlock()
	c.closeVictims(victims)
}

// Acquire returns a pinned handle for the named network, materializing it
// from its snapshot (or its newer persist file) if it is not resident. An
// unknown name yields a typed *transit.Error with CodeUnknownNetwork. ctx
// bounds the wait on a concurrent load or eviction flush, not the load
// itself (a load underway completes for whoever triggered it).
func (c *Catalog) Acquire(ctx context.Context, name string) (*Handle, error) {
	for {
		c.lock()
		if c.closed {
			c.unlock()
			return nil, transit.NewError(transit.CodeInternal, "catalog closed", nil)
		}
		t, ok := c.tenants[name]
		if !ok {
			c.unlock()
			return nil, &transit.Error{
				Code:    transit.CodeUnknownNetwork,
				Field:   "network",
				Message: fmt.Sprintf("unknown network %q", name),
			}
		}
		if t.reg != nil {
			t.refs++
			c.lru.MoveToFront(t.elem)
			reg := t.reg
			c.unlock()
			return &Handle{c: c, t: t, r: reg}, nil
		}
		if wait := waitChan(t); wait != nil {
			// Someone else is loading this tenant, or its evicted registry
			// is still flushing its final checkpoint. Wait and re-examine.
			c.unlock()
			select {
			case <-wait:
			case <-ctx.Done():
				return nil, transit.NewError(transit.CodeCancelled,
					"waiting for network "+name, ctx.Err())
			}
			continue
		}
		t.loading = make(chan struct{})
		c.unlock()

		reg, size, err := c.load(t)

		c.lock()
		close(t.loading)
		t.loading = nil
		if err != nil {
			c.loadErrors++
			c.unlock()
			c.logf("catalog: loading %s: %v", name, err)
			return nil, transit.NewError(transit.CodeInternal,
				"loading network "+name, err)
		}
		t.reg = reg
		t.size = size
		t.elem = c.lru.PushFront(t)
		t.refs++
		t.loadsN++
		c.loads++
		c.residentBytes += size
		victims := c.evictLocked(t)
		c.unlock()
		c.closeVictims(victims)
		return &Handle{c: c, t: t, r: reg}, nil
	}
}

// waitChan returns the channel an Acquire must wait on before it can use
// or load t, or nil when t is idle. Caller holds mu.
func waitChan(t *tenant) chan struct{} {
	if t.loading != nil {
		return t.loading
	}
	return t.closing
}

// load materializes one tenant from disk, outside the catalog lock. The
// persist file, when present, wins over the manifest snapshot: it carries
// the delay epoch the tenant had reached before its last eviction or the
// previous process exit.
func (c *Catalog) load(t *tenant) (*live.Registry, int64, error) {
	start := time.Now()
	fsys := c.fs()
	path := t.snapPath
	if t.persistPath != "" {
		// A crash mid-checkpoint leaves an orphaned temp file next to the
		// persist file; drop it before (re)loading.
		if removed, err := live.CleanupTemps(fsys, t.persistPath); err == nil {
			for _, name := range removed {
				c.logf("catalog: %s: removed orphaned temp %s", t.name, filepath.Base(name))
			}
		}
		if _, err := fsys.Stat(t.persistPath); err == nil {
			path = t.persistPath
		}
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := fsys.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	n, st, err := transit.LoadSnapshot(f)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	lcfg := c.cfg.Live
	if !n.Preprocessed() {
		lcfg.Policy = live.ServeUnpruned
	}
	if base := c.cfg.Live.Logf; base != nil {
		name := t.name
		lcfg.Logf = func(format string, args ...any) {
			base("["+name+"] "+format, args...)
		}
	}
	reg := live.NewRegistryAt(n, *st, lcfg)
	if t.walPath != "" {
		// Replay acked-but-unpersisted batches and attach the journal
		// before any traffic; a tenant whose journal cannot be opened is
		// unusable, not silently non-durable.
		replayed, err := reg.RecoverJournal(t.walPath)
		if err != nil {
			return nil, 0, fmt.Errorf("recovering journal: %w", err)
		}
		if replayed > 0 {
			c.logf("catalog: %s: replayed %d journaled batch(es) to epoch %d",
				t.name, replayed, reg.Snapshot().Epoch)
		}
	}
	if t.persistPath != "" {
		reg.StartPersist(t.persistPath, c.cfg.PersistInterval)
	}
	elapsed := time.Since(start)
	c.lock()
	c.loadMicros += elapsed.Microseconds()
	c.unlock()
	c.logf("catalog: loaded %s from %s (epoch %d, %d bytes, %v)",
		t.name, filepath.Base(path), st.Epoch, fi.Size(), elapsed.Round(time.Millisecond))
	return reg, fi.Size(), nil
}

// victim pairs a tenant detached by evictLocked with the registry it was
// serving, which the detacher must close outside the lock.
type victim struct {
	t   *tenant
	reg *live.Registry
}

// evictLocked walks the LRU tail while the resident set exceeds the budget
// and detaches evictable tenants (unpinned, non-static, not keep): reg is
// cleared and the closing gate raised under the lock, so a concurrent
// Acquire either saw the registry while it was still pinned-able or waits
// for the flush. The detached registries are returned for the caller to
// close OUTSIDE the lock — live.Close blocks on the final persist
// checkpoint and any in-flight async re-preprocess. Caller holds mu.
func (c *Catalog) evictLocked(keep *tenant) []victim {
	if c.cfg.MemBytes <= 0 {
		return nil
	}
	var victims []victim
	e := c.lru.Back()
	for c.residentBytes > c.cfg.MemBytes && e != nil {
		t := e.Value.(*tenant)
		prev := e.Prev()
		if t != keep && !t.static && t.refs == 0 && t.reg != nil {
			t.lastLive = t.reg.Metrics()
			t.closing = make(chan struct{})
			t.evictsN++
			c.evictions++
			c.residentBytes -= t.size
			c.lru.Remove(e)
			victims = append(victims, victim{t: t, reg: t.reg})
			t.reg = nil
			t.elem = nil
			t.size = 0
		}
		e = prev
	}
	return victims
}

// closeVictims finishes an eviction outside the lock: each detached
// registry persists its final checkpoint and drains, then the tenant's
// closing gate opens so reloads may proceed.
func (c *Catalog) closeVictims(victims []victim) {
	for _, v := range victims {
		v.reg.Close()
		last := v.reg.Metrics() // include the final persist in the frozen view
		c.lock()
		v.t.lastLive = last
		close(v.t.closing)
		v.t.closing = nil
		c.unlock()
		c.logf("catalog: evicted %s (epoch %d)", v.t.name, last.Epoch)
	}
}

// Close shuts every resident registry down (final persist checkpoints
// included) and fails all future Acquires. In-flight handles stay valid;
// their releases become no-ops.
func (c *Catalog) Close() {
	c.lock()
	if c.closed {
		c.unlock()
		return
	}
	c.closed = true
	var regs []*live.Registry
	for _, name := range c.names {
		// Manifest order, not map order: shutdown I/O (final checkpoints,
		// journal closes) happens in a deterministic sequence.
		if t := c.tenants[name]; t.reg != nil {
			regs = append(regs, t.reg)
		}
	}
	c.unlock()
	for _, r := range regs {
		r.Close()
	}
}

// Names returns the network names in manifest order.
func (c *Catalog) Names() []string { return c.names }

// DefaultName returns the network serving the un-prefixed legacy routes.
func (c *Catalog) DefaultName() string { return c.def }

// Resident returns the named tenant's registry if it is currently loaded,
// without pinning it — a peek for metrics and tests. The registry may be
// evicted at any moment after the call returns; production query paths
// must use Acquire.
func (c *Catalog) Resident(name string) *live.Registry {
	c.lock()
	defer c.unlock()
	if t := c.tenants[name]; t != nil {
		return t.reg
	}
	return nil
}

// Metrics is a point-in-time view of the catalog-wide counters.
type Metrics struct {
	Networks      int
	Resident      int
	ResidentBytes int64
	MemBytes      int64
	Loads         uint64
	Evictions     uint64
	LoadErrors    uint64
	LoadDuration  time.Duration
}

// Metrics reads the catalog-wide counters.
func (c *Catalog) Metrics() Metrics {
	c.lock()
	defer c.unlock()
	m := Metrics{
		Networks:      len(c.tenants),
		ResidentBytes: c.residentBytes,
		MemBytes:      c.cfg.MemBytes,
		Loads:         c.loads,
		Evictions:     c.evictions,
		LoadErrors:    c.loadErrors,
		LoadDuration:  time.Duration(c.loadMicros) * time.Microsecond,
	}
	for _, t := range c.tenants {
		if t.reg != nil {
			m.Resident++
		}
	}
	return m
}

// NetworkMetrics is the per-tenant view exposed as network="…" labelled
// /metrics series and by GET /v1/networks.
type NetworkMetrics struct {
	Name      string
	Resident  bool
	Pinned    int
	SizeBytes int64
	Loads     uint64
	Evictions uint64
	// Live is the tenant's registry metrics: the live values while
	// resident, or the view frozen at the last eviction (so the epoch a
	// tenant reached remains visible while it is cold).
	Live live.Metrics
}

// NetworkMetrics reads one tenant's counters; ok is false for an unknown
// name. Never triggers a load.
func (c *Catalog) NetworkMetrics(name string) (NetworkMetrics, bool) {
	c.lock()
	defer c.unlock()
	t, ok := c.tenants[name]
	if !ok {
		return NetworkMetrics{}, false
	}
	m := NetworkMetrics{
		Name:      name,
		Resident:  t.reg != nil,
		Pinned:    t.refs,
		SizeBytes: t.size,
		Loads:     t.loadsN,
		Evictions: t.evictsN,
		Live:      t.lastLive,
	}
	if t.reg != nil {
		m.Live = t.reg.Metrics()
	}
	return m, true
}

// LiveMetrics is shorthand for NetworkMetrics(name).Live.
func (c *Catalog) LiveMetrics(name string) live.Metrics {
	m, _ := c.NetworkMetrics(name)
	return m.Live
}

func (c *Catalog) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
