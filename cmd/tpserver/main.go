// Command tpserver exposes a network as a JSON-over-HTTP travel-information
// service — the deployment shape the paper's query times target (sub-120 ms
// station-to-station answers for interactive timetable information), plus
// the fully dynamic scenario of the paper's conclusion: delay messages are
// ingested while the server runs and take effect immediately, with no
// restart and no blocking of in-flight queries.
//
//	tpserver -net la.tt -preprocess 0.05 -repreprocess async -listen :8080
//	tpserver -snapshot la.snap -persist state.snap -listen :8080
//
// Endpoints (see docs/API.md for the wire format):
//
//	GET|POST /v1/arrival                   earliest arrival (typed JSON)
//	GET|POST /v1/profile                   all best connections of the day
//	GET|POST /v1/journey                   itinerary with legs
//	GET|POST /v1/pareto                    arrival/transfers Pareto frontier
//	POST     /v1/matrix                    batch one-to-many earliest arrivals
//	GET      /v1/stations                  list stations
//	POST     /delays                       apply a delay/cancellation batch
//	GET      /version                      snapshot epoch + provenance
//	GET      /metrics                      Prometheus-style counters
//	GET      /healthz                      liveness
//	GET      /readyz                       readiness (503 while starting or draining)
//
// Every /v1 query runs under the request's context — a disconnected client
// aborts the in-flight search (counted by tpserver_queries_cancelled_total)
// — bounded by the X-Deadline-Ms request header or the -query-timeout
// default, and failures arrive in a structured error envelope with
// machine-readable codes. All /v1 handlers are thin wrappers over the
// library's unified transit.Network.Plan entry point.
//
// The server degrades gracefully instead of collapsing under load: search
// work beyond -max-inflight queues for at most -queue-deadline and is then
// shed with HTTP 429 and a Retry-After header (error code "overloaded"),
// so admitted queries keep bounded latency while the excess fails fast and
// cheap. An epoch-keyed result cache (-cache-entries / -cache-bytes)
// answers repeated identical requests without a search and coalesces
// concurrent identical requests into one underlying Plan call; applying a
// delay batch bumps the snapshot epoch, which invalidates every cached
// answer at zero cost. Both layers are observable on /metrics
// (tpserver_inflight, tpserver_shed_total, tpserver_cache_*_total);
// benchmark/ drives the server at a fixed offered rate to measure this
// behavior (workloads serve_hot and serve_churn).
//
// Query execution is allocation-free in the steady state: each request
// goroutine checks a search workspace out of the library's pool
// (internal/core) and runs on generation-stamped reusable arrays.
//
// Dynamic updates run through internal/live: every request atomically loads
// the current network snapshot, POST /delays patches a successor snapshot
// incrementally (copy-on-write of only the touched connection and ride-edge
// slices) and swaps it in, so concurrent queries always see one consistent
// version. The -repreprocess flag picks what happens to the distance table
// an update invalidates: rebuild it in the background (async), before the
// swap (sync), or serve unpruned (off).
//
// A POST /delays body is a JSON batch of train-level operations:
//
//	{"ops": [
//	  {"train": "IC 106", "delay_min": 15},
//	  {"route": 4, "from": "07:00", "to": "10:00", "delay_min": 20},
//	  {"train": "RE 7", "cancel": true}
//	]}
//
// # Snapshots and persistence
//
// -snapshot boots from a versioned network snapshot (tpgen -o, or
// transit.Network.WriteSnapshot; format in docs/SNAPSHOT_FORMAT.md): the
// timetable, station graph and distance table load from checksummed
// sections in milliseconds, instead of re-generating and re-preprocessing
// from source. -persist names a state file the server checkpoints the
// current patched epoch to every -persist-interval (atomic write + rename)
// and once more on shutdown; when the file exists at startup it wins over
// -snapshot, so a restarted server resumes with its delays intact.
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight queries drain (bounded by -shutdown-timeout), and background
// re-preprocessing is awaited before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof side listener
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"transit"
	"transit/internal/admit"
	"transit/internal/catalog"
	"transit/internal/live"
	"transit/internal/replica"
)

type server struct {
	// cat is the network catalog every query routes through: multi-tenant
	// under -catalog, or a single always-resident tenant wrapping the
	// legacy flags (catalog.NewStatic). defaultNet answers the un-prefixed
	// routes.
	cat        *catalog.Catalog
	defaultNet string
	threads    int

	// gate bounds concurrent search work (-max-inflight / -queue-deadline);
	// nil admits everything. cache is the epoch-keyed result cache
	// (-cache-entries / -cache-bytes); nil caches nothing. Both are wired
	// through s.plan — see admit.go.
	gate  *admit.Gate
	cache *admit.Cache

	// planHook, when set, runs inside an admitted fill just before the
	// search; tests use it to hold a slot open deterministically.
	planHook func()

	// queryTimeout is the default per-request deadline of the query
	// endpoints; clients can shorten it with the X-Deadline-Ms header.
	queryTimeout time.Duration

	// cancelled counts queries abandoned mid-flight (client disconnect or
	// deadline), exposed as tpserver_queries_cancelled_total.
	cancelled atomic.Uint64

	// ready is the instance's readiness state (readyStarting/-Serving/
	// -Draining): GET /readyz answers 200 only while serving, and shutdown
	// flips to draining before the admission gate drains so load balancers
	// stop routing here first. panics counts handler panics recovered by
	// the recoverPanics fence (tpserver_panics_total).
	ready  atomic.Int32
	panics atomic.Uint64

	// Per-endpoint request counters (GET /metrics). The map is fully
	// populated by newMux before the server starts; afterwards only the
	// atomic values move, so concurrent reads need no lock. netHits counts
	// requests per catalog tenant the same way (populated from the
	// manifest at construction).
	hits    map[string]*atomic.Uint64
	netHits map[string]*atomic.Uint64

	// obs owns the metric registry and every latency histogram; logger is
	// the structured process log; slowQuery is the -slow-query threshold
	// above which finished queries are logged stage by stage (0 = off, the
	// default so tests opt in explicitly).
	obs       *serverObs
	logger    *slog.Logger
	slowQuery time.Duration

	// Replication role (docs/REPLICATION.md). Exactly one of pub/follower
	// is set outside catalog mode: pub publishes epoch deltas to replicas
	// (updater, the default single-network role), follower applies the
	// stream from the updater at followURL and makes this instance
	// read-only. syncLag is the -sync-lag readiness threshold: /readyz
	// reports "syncing" until the follower is within that many epochs of
	// its updater.
	pub       *replica.Publisher
	follower  *replica.Follower
	followURL string
	syncLag   uint64
}

// defaultQueryTimeout is the per-request deadline applied when the
// operator does not configure -query-timeout.
const defaultQueryTimeout = 10 * time.Second

// defaultNetworkName is the tenant name the single-network flags serve
// under (one-entry static catalog).
const defaultNetworkName = "default"

// newServer wraps one pre-built registry as a single-network server — the
// legacy construction, now a one-entry static catalog.
func newServer(reg *live.Registry, threads int) *server {
	return newCatalogServer(catalog.NewStatic(defaultNetworkName, reg), threads)
}

func newCatalogServer(cat *catalog.Catalog, threads int) *server {
	s := &server{cat: cat, defaultNet: cat.DefaultName(), threads: threads,
		queryTimeout: defaultQueryTimeout,
		hits:         make(map[string]*atomic.Uint64),
		netHits:      make(map[string]*atomic.Uint64),
		logger:       slog.Default()}
	for _, name := range cat.Names() {
		s.netHits[name] = &atomic.Uint64{}
	}
	s.obs = newServerObs(s)
	return s
}

// defaultLive reads the default tenant's registry metrics: the legacy flat
// /metrics series sample it, keeping their pre-catalog names and values.
func (s *server) defaultLive() live.Metrics {
	return s.cat.LiveMetrics(s.defaultNet)
}

// acquire pins the tenant a request addresses — the {network} path segment
// when the route carries one, the default network otherwise — for the
// duration of the request. The caller must Release the handle.
func (s *server) acquire(r *http.Request) (*catalog.Handle, error) {
	name := r.PathValue("network")
	if name == "" {
		name = s.defaultNet
	}
	h, err := s.cat.Acquire(r.Context(), name)
	if err != nil {
		return nil, err
	}
	if c, ok := s.netHits[name]; ok {
		c.Add(1)
	}
	return h, nil
}

// count registers a request counter and latency histogram for the endpoint
// and wraps its handler.
func (s *server) count(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	c := &atomic.Uint64{}
	s.hits[endpoint] = c
	hist := s.obs.endpointSeries(endpoint, c)
	return func(w http.ResponseWriter, r *http.Request) {
		c.Add(1)
		start := time.Now()
		h(w, r)
		hist.ObserveDuration(time.Since(start))
	}
}

func newMux(s *server) *http.ServeMux {
	mux := http.NewServeMux()
	registerV1(mux, s)
	registerReplication(mux, s)
	mux.HandleFunc("POST /delays", s.count("delays", s.delays))
	mux.HandleFunc("POST /{network}/delays", s.count("network_delays", s.delays))
	mux.HandleFunc("GET /version", s.count("version", s.version))
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.readyz)
	return mux
}

func main() {
	netFile := flag.String("net", "", "timetable file (library text format)")
	gtfsDir := flag.String("gtfs", "", "GTFS feed directory")
	family := flag.String("generate", "", "serve a synthetic family instead of a file")
	scale := flag.Float64("scale", 0.25, "scale for -generate")
	snapFile := flag.String("snapshot", "", "boot from a network snapshot (tpgen -o; docs/SNAPSHOT_FORMAT.md)")
	persistPath := flag.String("persist", "", "state file for periodic epoch persistence; resumed at startup when present")
	persistInterval := flag.Duration("persist-interval", 30*time.Second, "how often -persist checkpoints the current epoch")
	walEnabled := flag.Bool("wal", true,
		"write-ahead journal next to the persist file(s): delay batches are fsynced before being acked, so a crash between checkpoints loses no acked batch (docs/RELIABILITY.md)")
	preprocess := flag.Float64("preprocess", 0.05, "transfer-station fraction (0 = no distance table)")
	repreprocess := flag.String("repreprocess", "async", "distance table policy after a delay update: async, sync or off")
	threads := flag.Int("threads", 1, "parallel workers per query")
	queryTimeout := flag.Duration("query-timeout", defaultQueryTimeout,
		"default per-request query deadline (clients shorten it with X-Deadline-Ms; 0 = none)")
	maxInflight := flag.Int("max-inflight", 4*runtime.GOMAXPROCS(0),
		"concurrent search budget; excess requests queue briefly, then shed with 429 (0 = unbounded)")
	queueDeadline := flag.Duration("queue-deadline", 100*time.Millisecond,
		"how long a request may wait for an admission slot before being shed")
	cacheEntries := flag.Int("cache-entries", 4096, "result cache capacity in entries (0 = caching off)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20,
		"result cache memory bound in approximate result bytes (0 = entry bound only)")
	listen := flag.String("listen", ":8080", "listen address")
	pprofAddr := flag.String("pprof", "", "side listener for net/http/pprof (e.g. 127.0.0.1:6060; empty = off)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 15*time.Second, "graceful-shutdown drain budget")
	logFormat := flag.String("log-format", "text", "structured log output: text or json")
	slowQuery := flag.Duration("slow-query", 250*time.Millisecond,
		"log queries slower than this with their stage breakdown and search effort (0 = off)")
	catalogDir := flag.String("catalog", "",
		"serve a multi-network catalog directory (catalog.json manifest; docs/CATALOG.md) instead of a single network")
	catalogMemBytes := flag.Int64("catalog-mem-bytes", 0,
		"resident-set budget for catalog tenants in snapshot bytes; LRU tenants are evicted above it (0 = unlimited)")
	catalogDefault := flag.String("catalog-default", "",
		"network serving the un-prefixed routes (default: the manifest's default entry)")
	catalogPersist := flag.Bool("catalog-persist", true,
		"persist each tenant's delay epoch to <catalog-persist-dir>/<name>.live.snap")
	catalogPersistDir := flag.String("catalog-persist-dir", "",
		"directory for per-tenant persistence files (default: the catalog directory)")
	role := flag.String("role", "",
		"replication role: updater or replica (default: updater, or replica when -follow is set; docs/REPLICATION.md)")
	follow := flag.String("follow", "",
		"updater base URL to follow as a read-only query replica (e.g. http://updater:8080)")
	replicationRetain := flag.Int("replication-retain", replica.DefaultRetain,
		"delta epochs the updater retains for reconnecting replicas; a replica further behind re-fetches the full snapshot")
	syncLag := flag.Uint64("sync-lag", 8,
		"replica readiness threshold: /readyz reports syncing until within this many epochs of the updater")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		// Profiles (CPU of table rebuilds, heap of the table) are served
		// on a separate listener so they can stay firewalled off from query
		// traffic; net/http/pprof registers on the default mux.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr, "path", "/debug/pprof/")
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Warn("pprof listener failed", "err", err)
			}
		}()
	}

	start := time.Now()
	policy, err := live.ParsePolicy(*repreprocess)
	if err != nil {
		fatal("bad -repreprocess", "err", err)
	}
	switch *role {
	case "", "updater", "replica":
	default:
		fatal("bad -role", "role", *role, "want", "updater or replica")
	}
	if *role == "updater" && *follow != "" {
		fatal("-role updater is exclusive with -follow (an updater is the node replicas follow)")
	}
	if *role == "replica" && *follow == "" {
		fatal("-role replica requires -follow <updater-url>")
	}
	if *catalogDir != "" && (*follow != "" || *role != "") {
		// Replication follows exactly one network's epoch sequence; the
		// multi-tenant catalog has many. Refuse loudly rather than follow
		// one tenant and silently serve stale answers for the rest.
		fatal("-catalog cannot be combined with -follow or -role: replication is single-network only (docs/REPLICATION.md)")
	}
	if *follow != "" && (*netFile != "" || *gtfsDir != "" || *family != "") {
		// A replica's state must be byte-identical to the updater's, which
		// only a snapshot lineage guarantees — not an independent load of
		// the source timetable.
		fatal("-follow is exclusive with -net, -gtfs and -generate: a replica boots from -snapshot, its -persist file, or the updater's snapshot endpoint")
	}
	if *catalogDir != "" {
		// Multi-tenant catalog mode: the single-network source flags are
		// meaningless here and almost certainly a confused invocation.
		if *netFile != "" || *gtfsDir != "" || *family != "" || *snapFile != "" || *persistPath != "" {
			fatal("-catalog is exclusive with -net, -gtfs, -generate, -snapshot and -persist")
		}
		lcfg := live.Config{
			Policy:    policy,
			Selection: transit.TransferSelection{Fraction: *preprocess},
			Options:   transit.Options{Threads: *threads},
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		}
		if *preprocess <= 0 {
			lcfg.Policy = live.ServeUnpruned
		}
		ccfg := catalog.Config{
			MemBytes:        *catalogMemBytes,
			Live:            lcfg,
			PersistInterval: *persistInterval,
			Default:         *catalogDefault,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		}
		if *catalogPersist {
			ccfg.PersistDir = *catalogPersistDir
			if ccfg.PersistDir == "" {
				ccfg.PersistDir = *catalogDir
			}
			ccfg.Journal = *walEnabled
		}
		cat, err := catalog.Open(*catalogDir, ccfg)
		if err != nil {
			fatal("catalog open failed", "err", err)
		}
		s := newCatalogServer(cat, *threads)
		logger.Info("catalog open", "dir", *catalogDir, "networks", len(cat.Names()),
			"default", cat.DefaultName(), "mem_bytes", *catalogMemBytes,
			"startup", time.Since(start).Round(time.Millisecond))
		serve(s, logger, fatal, serveConfig{
			queryTimeout: *queryTimeout, slowQuery: *slowQuery,
			maxInflight: *maxInflight, queueDeadline: *queueDeadline,
			cacheEntries: *cacheEntries, cacheBytes: *cacheBytes,
			listen: *listen, shutdownTimeout: *shutdownTimeout,
			policy: policy,
		})
		return
	}
	if *persistPath != "" {
		// A crash mid-checkpoint leaves a half-written temp next to the
		// persist file (the complete image only ever carries the final name);
		// sweep orphans before anything reads the directory.
		if removed, err := live.CleanupTemps(nil, *persistPath); err != nil {
			logger.Warn("orphaned persist temp cleanup failed", "err", err)
		} else if len(removed) > 0 {
			logger.Info("removed orphaned persist temp files", "files", removed)
		}
	}
	var n *transit.Network
	state := transit.SnapshotState{}
	switch {
	case *persistPath != "" && fileExists(*persistPath):
		// A persisted state file is the newest version this server (or its
		// predecessor) served: it wins over the base snapshot.
		var err error
		n, state, err = loadSnapshotFile(*persistPath)
		if err != nil {
			fatal("resuming from persisted state failed", "path", *persistPath, "err", err)
		}
		logger.Info("resumed from persisted state", "epoch", state.Epoch, "path", *persistPath, "network", n.Stats())
	case *snapFile != "":
		var err error
		n, state, err = loadSnapshotFile(*snapFile)
		if err != nil {
			fatal("snapshot load failed", "err", err)
		}
		logger.Info("loaded snapshot", "path", *snapFile, "epoch", state.Epoch, "network", n.Stats())
	case *follow != "":
		// Cold replica boot: no local state, so the updater's snapshot
		// endpoint is the source of truth.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		net, st, err := replica.FetchSnapshot(ctx, nil, *follow)
		cancel()
		if err != nil {
			fatal("cold boot from updater snapshot failed", "updater", *follow, "err", err)
		}
		n, state = net, *st
		logger.Info("cold-booted from updater snapshot", "updater", *follow,
			"epoch", state.Epoch, "network", n.Stats())
	default:
		var err error
		n, err = load(*netFile, *gtfsDir, *family, *scale)
		if err != nil {
			fatal("network load failed", "err", err)
		}
		logger.Info("loaded network", "network", n.Stats())
	}
	sel := transit.TransferSelection{Fraction: *preprocess}
	if *preprocess > 0 && !n.Preprocessed() {
		var ps *transit.PreprocessStats
		var err error
		n, ps, err = n.Preprocess(sel, transit.Options{Threads: *threads})
		if err != nil {
			fatal("preprocessing failed", "err", err)
		}
		logger.Info("preprocessed network", "transfer_stations", ps.TransferStations,
			"elapsed", ps.Elapsed, "table_mib", float64(ps.TableBytes)/(1<<20))
	} else if n.Preprocessed() {
		logger.Info("distance table loaded from snapshot (no preprocessing needed)")
	}
	if *preprocess <= 0 {
		// No valid transfer selection to rebuild with — even if a snapshot
		// carried a table, the first delay batch invalidates it and the
		// server continues unpruned (the operator opted out of
		// preprocessing work with -preprocess 0).
		policy = live.ServeUnpruned
	}
	lcfg := live.Config{
		Policy:    policy,
		Selection: sel,
		Options:   transit.Options{Threads: *threads},
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	}
	var pub *replica.Publisher
	if *follow == "" {
		// Updater role (the default): publish every applied batch as an
		// epoch delta. Created before journal recovery so the replayed
		// tail seeds the retention ring — replicas restarted alongside the
		// updater resume from the stream, not the snapshot.
		pub = replica.NewPublisher(state.Epoch, *replicationRetain)
		pub.Logf = lcfg.Logf
		lcfg.OnApply = pub.Publish
	}
	reg := live.NewRegistryAt(n, state, lcfg)
	if pub != nil {
		pub.Snapshot = reg.Persist
	}
	if *persistPath != "" {
		if *walEnabled {
			// Replay acked-but-unpersisted batches on top of the checkpoint,
			// then journal every further batch before acking it.
			walPath := *persistPath + ".wal"
			replayed, err := reg.RecoverJournal(walPath)
			if err != nil {
				fatal("journal recovery failed", "path", walPath, "err", err)
			}
			if replayed > 0 {
				logger.Info("replayed write-ahead journal", "path", walPath,
					"batches", replayed, "epoch", reg.Snapshot().Epoch)
			}
		}
		reg.StartPersist(*persistPath, *persistInterval)
	}
	s := newServer(reg, *threads)
	s.pub = pub
	if *follow != "" {
		s.followURL = *follow
		s.syncLag = *syncLag
		s.follower = replica.NewFollower(replica.FollowerConfig{
			Registry: reg,
			BaseURL:  *follow,
			Logf:     lcfg.Logf,
		})
		s.follower.Start()
		logger.Info("following updater", "updater", *follow, "sync_lag", *syncLag)
	}
	roleName := "updater"
	if s.follower != nil {
		roleName = "replica"
	}
	logger.Info("ready", "startup", time.Since(start).Round(time.Millisecond),
		"epoch", reg.Snapshot().Epoch, "role", roleName)
	serve(s, logger, fatal, serveConfig{
		queryTimeout: *queryTimeout, slowQuery: *slowQuery,
		maxInflight: *maxInflight, queueDeadline: *queueDeadline,
		cacheEntries: *cacheEntries, cacheBytes: *cacheBytes,
		listen: *listen, shutdownTimeout: *shutdownTimeout,
		policy: policy,
	})
}

// serveConfig carries the serving-layer flags shared by the single-network
// and catalog boot paths.
type serveConfig struct {
	queryTimeout    time.Duration
	slowQuery       time.Duration
	maxInflight     int
	queueDeadline   time.Duration
	cacheEntries    int
	cacheBytes      int64
	listen          string
	shutdownTimeout time.Duration
	policy          live.Policy
}

// serve wires the admission/cache layers onto s, runs the HTTP listener,
// and shuts down gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight queries drain, and every resident tenant registry closes (one
// final persist checkpoint each) before exit.
func serve(s *server, logger *slog.Logger, fatal func(string, ...any), cfg serveConfig) {
	s.queryTimeout = cfg.queryTimeout
	s.slowQuery = cfg.slowQuery
	if cfg.maxInflight > 0 {
		s.gate = admit.NewGate(int64(cfg.maxInflight), cfg.queueDeadline)
	}
	if cfg.cacheEntries > 0 {
		s.cache = admit.NewCache(cfg.cacheEntries, cfg.cacheBytes)
	}

	srv := &http.Server{
		Handler:           s.handler(), // the mux behind the panic fence
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Listen before declaring readiness: /readyz says 200 only once the
	// socket genuinely accepts connections.
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		fatal("listen failed", "addr", cfg.listen, "err", err)
	}
	s.ready.Store(readyServing)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("listening", "addr", cfg.listen, "repreprocess", cfg.policy.String())
	select {
	case err := <-errc:
		fatal("listener failed", "err", err)
	case <-ctx.Done():
		stop()
		// Out of rotation first: probes see draining before any connection
		// is refused, so load balancers stop sending traffic here while the
		// in-flight queries below still complete.
		s.ready.Store(readyDraining)
		logger.Info("shutting down: draining in-flight queries", "budget", cfg.shutdownTimeout)
		// Replication streams are unbounded responses Shutdown would wait
		// out in full: close them first so replicas reconnect elsewhere
		// (or to our successor) while queries drain.
		s.pub.Close()
		sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Warn("shutdown incomplete", "err", err)
		}
		// The listener is closed; wait out searches still holding admission
		// slots, then refuse any straggler before the registries go away.
		if err := s.gate.Drain(sctx); err != nil {
			logger.Warn("admission drain incomplete", "err", err)
		}
		s.gate.Close()
		// Stop following before the registry goes away: the follower's
		// Apply path must not race Close's final checkpoint.
		s.follower.Stop()
		// Close every resident tenant: waits for background re-preprocessing
		// and writes each tenant's final persist checkpoint.
		s.cat.Close()
		logger.Info("bye", "final_epoch", s.defaultLive().Epoch)
	}
}

func load(netFile, gtfsDir, family string, scale float64) (*transit.Network, error) {
	switch {
	case netFile != "":
		f, err := os.Open(netFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return transit.ReadNetwork(f)
	case gtfsDir != "":
		return transit.LoadGTFS(gtfsDir)
	case family != "":
		return transit.Generate(family, scale, 0)
	default:
		return nil, fmt.Errorf("tpserver: one of -net, -gtfs, -generate, -snapshot is required")
	}
}

func loadSnapshotFile(path string) (*transit.Network, transit.SnapshotState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, transit.SnapshotState{}, err
	}
	defer f.Close()
	n, st, err := transit.LoadSnapshot(f)
	if err != nil {
		return nil, transit.SnapshotState{}, fmt.Errorf("tpserver: %s: %w", path, err)
	}
	return n, *st, nil
}

func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// delayOpJSON is the wire form of one POST /delays operation. Either a
// single "route" or a "routes" list selects route classes.
type delayOpJSON struct {
	Train    string `json:"train,omitempty"`
	Route    *int   `json:"route,omitempty"`
	Routes   []int  `json:"routes,omitempty"`
	From     string `json:"from,omitempty"` // departure window start, "HH:MM"
	To       string `json:"to,omitempty"`   // departure window end, "HH:MM"
	DelayMin int    `json:"delay_min,omitempty"`
	Cancel   bool   `json:"cancel,omitempty"`
}

func (s *server) delays(w http.ResponseWriter, r *http.Request) {
	if s.follower != nil {
		// Replicas are read-only: the delay feed belongs on the updater,
		// whose URL travels in the Location header as a redirect hint.
		w.Header().Set("Location", s.followURL+"/delays")
		s.v1Error(w, &transit.Error{
			Code:    transit.CodeReadOnly,
			Message: "replica is read-only; POST delay batches to the updater at " + s.followURL,
		})
		return
	}
	h, err := s.acquire(r)
	if err != nil {
		s.legacyError(w, err)
		return
	}
	defer h.Release()
	var req struct {
		Ops []delayOpJSON `json:"ops"`
	}
	// A mistyped field name ("delay_mins") must not decode to a no-op that
	// answers 200 with the epoch unchanged.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad delay batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		http.Error(w, "bad delay batch: trailing data after the batch object", http.StatusBadRequest)
		return
	}
	if len(req.Ops) == 0 {
		http.Error(w, "empty delay batch", http.StatusBadRequest)
		return
	}
	ops := make([]transit.DelayOp, len(req.Ops))
	for i, o := range req.Ops {
		op := transit.DelayOp{Train: o.Train, Routes: o.Routes, Delay: transit.Ticks(o.DelayMin), Cancel: o.Cancel}
		if o.Route != nil {
			op.Routes = append(op.Routes, *o.Route)
		}
		if o.From != "" {
			t, err := transit.ParseClock(o.From)
			if err != nil {
				http.Error(w, fmt.Sprintf("op %d: %v", i, err), http.StatusBadRequest)
				return
			}
			op.WindowFrom = t
		}
		if o.To != "" {
			t, err := transit.ParseClock(o.To)
			if err != nil {
				http.Error(w, fmt.Sprintf("op %d: %v", i, err), http.StatusBadRequest)
				return
			}
			op.WindowTo = t
		}
		ops[i] = op
	}
	snap, st, err := h.Registry().Apply(ops)
	switch {
	case err == nil:
	case errors.Is(err, live.ErrClosed), errors.Is(err, live.ErrJournal):
		// Shutting down, or the batch could not be made durable (journal
		// append failed — nothing was applied): tell feed clients to retry,
		// here or against the next instance, rather than drop the batch as
		// malformed.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, live.ErrReprocess):
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]any{
		"network":          h.Name(),
		"epoch":            snap.Epoch,
		"trains_delayed":   st.TrainsDelayed,
		"trains_cancelled": st.TrainsCancelled,
		"conns_retimed":    st.ConnsRetimed,
		"conns_cancelled":  st.ConnsCancelled,
		"update_ms":        float64(st.Elapsed.Microseconds()) / 1000,
		"preprocessed":     snap.Preprocessed(),
	})
}

func (s *server) version(w http.ResponseWriter, r *http.Request) {
	h, err := s.acquire(r)
	if err != nil {
		s.legacyError(w, err)
		return
	}
	defer h.Release()
	snap := h.Registry().Snapshot()
	st := snap.Net.Timetable().Stats()
	writeJSON(w, map[string]any{
		"network":      h.Name(),
		"epoch":        snap.Epoch,
		"created":      snap.Created.UTC().Format(time.RFC3339Nano),
		"preprocessed": snap.Preprocessed(),
		"stations":     st.Stations,
		"trains":       st.Trains,
		"connections":  st.Connections,
	})
}

// metrics serves the obs registry: full Prometheus text exposition with
// # HELP/# TYPE metadata, latency histogram families, runtime series, and
// every flat series the handler used to print by hand (same names, same
// integer rendering — existing greps and scrapers keep working).
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	s.obs.reg.ServeHTTP(w, r)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("tpserver: response encode failed", "err", err)
	}
}
