package transit

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"transit/internal/core"
	"transit/internal/stats"
)

// Kind selects what a Request asks for. The string values are the wire
// names of the /v1 HTTP API (docs/API.md).
type Kind string

const (
	// KindEarliestArrival asks for the earliest arrival at To when
	// departing From at Depart (a scalar answer; the paper's time-query).
	KindEarliestArrival Kind = "earliest-arrival"
	// KindJourney asks for a concrete itinerary From → To for a traveller at
	// From at Depart, with train legs and transfers: of the itineraries that
	// arrive earliest, the one that leaves latest.
	KindJourney Kind = "journey"
	// KindProfile asks for all best connections From → To over the whole
	// period (the paper's station-to-station profile query, accelerated by
	// the distance table when the network is preprocessed).
	KindProfile Kind = "profile"
	// KindOneToAll asks for the best connections from From to every
	// station — the paper's one-to-all profile search — optionally
	// restricted to departures within Window.
	KindOneToAll Kind = "one-to-all"
	// KindPareto asks for the multi-criteria one-to-all search from From:
	// per station, the arrival/transfers Pareto trade-off up to
	// MaxTransfers.
	KindPareto Kind = "pareto"
	// KindMatrix asks for the earliest arrival from every Sources[i] to
	// every Targets[j] when departing at Depart — the batch one-to-many
	// query behind the /v1/matrix endpoint. Each row costs one time-query
	// that stops when its last target settles; rows run concurrently up to
	// Options.Threads.
	KindMatrix Kind = "matrix"
)

// Kinds lists the supported request kinds in documentation order.
func Kinds() []Kind {
	return []Kind{KindEarliestArrival, KindJourney, KindProfile, KindOneToAll, KindPareto, KindMatrix}
}

// Window restricts a one-to-all profile search to departures within
// [From, To] (Dean's interval search).
type Window struct {
	From Ticks
	To   Ticks
}

// Request is the unified query request answered by Network.Plan. Kind
// decides which fields are consulted:
//
//	Kind             uses
//	earliest-arrival From, To, Depart
//	journey          From, To, Depart
//	profile          From, To
//	one-to-all       From, Window (optional)
//	pareto           From, MaxTransfers (To is validated as the
//	                 evaluation target the wire layer renders toward)
//	matrix           Sources, Targets, Depart
//
// Fields a kind does not use are ignored, except the ones with no natural
// zero value — Window, MaxTransfers, Sources, Targets — which must be unset
// on kinds that do not support them (Plan rejects them with a typed
// *Error, so a misdirected request fails loudly instead of silently
// dropping a constraint).
type Request struct {
	Kind Kind

	// From and To are the endpoints of the single-pair kinds.
	From StationID
	To   StationID

	// Sources and Targets are the row and column stations of a matrix
	// request.
	Sources []StationID
	Targets []StationID

	// Depart is the absolute departure time of the time-dependent kinds.
	Depart Ticks

	// Window restricts a one-to-all search to a departure interval.
	Window *Window

	// MaxTransfers is the transfer budget of a pareto request (0–32).
	MaxTransfers int

	// Options carries the execution tuning (threads, journey tracking,
	// effort counters).
	Options Options

	// Reuse, when non-nil, is overwritten with the answer and returned by
	// Plan instead of a freshly allocated Result. Steady-state callers
	// (servers answering scalar queries) reuse one Result per worker to
	// keep the earliest-arrival path at zero allocations per query.
	Reuse *Result
}

// Result is the unified answer of Network.Plan. One accessor per kind
// returns the kind's answer (Arrival, Journey, Profile, All, Pareto,
// Matrix); an accessor that does not match the result's Kind returns a
// *Error with CodeKindMismatch.
type Result struct {
	kind    Kind
	arrival Ticks
	journey *Journey
	profile *Profile
	all     *AllProfiles
	pareto  *ParetoProfiles
	matrix  [][]Ticks
	stats   QueryStats
}

// Kind reports which request produced this result.
func (r *Result) Kind() Kind { return r.kind }

// Stats returns the work counters of the query.
func (r *Result) Stats() QueryStats { return r.stats }

func (r *Result) kindErr(want Kind) error {
	return errf(CodeKindMismatch, "", "%s accessor on %s result", want, r.kind)
}

// Arrival returns the earliest arrival of an earliest-arrival result
// (Infinity when the target is unreachable).
func (r *Result) Arrival() (Ticks, error) {
	if r.kind != KindEarliestArrival {
		return Infinity, r.kindErr(KindEarliestArrival)
	}
	return r.arrival, nil
}

// Journey returns the itinerary of a journey result.
func (r *Result) Journey() (*Journey, error) {
	if r.kind != KindJourney {
		return nil, r.kindErr(KindJourney)
	}
	return r.journey, nil
}

// Profile returns the station-to-station profile of a profile result.
func (r *Result) Profile() (*Profile, error) {
	if r.kind != KindProfile {
		return nil, r.kindErr(KindProfile)
	}
	return r.profile, nil
}

// All returns the one-to-all profiles of a one-to-all result.
func (r *Result) All() (*AllProfiles, error) {
	if r.kind != KindOneToAll {
		return nil, r.kindErr(KindOneToAll)
	}
	return r.all, nil
}

// Pareto returns the multi-criteria profiles of a pareto result.
func (r *Result) Pareto() (*ParetoProfiles, error) {
	if r.kind != KindPareto {
		return nil, r.kindErr(KindPareto)
	}
	return r.pareto, nil
}

// Matrix returns the arrival matrix of a matrix result: row i column j is
// the earliest arrival at Targets[j] departing Sources[i] at the requested
// time, Infinity when unreachable.
func (r *Result) Matrix() ([][]Ticks, error) {
	if r.kind != KindMatrix {
		return nil, r.kindErr(KindMatrix)
	}
	return r.matrix, nil
}

// coreOpts translates the public options and attaches the cancellation
// channel the core settle loops poll.
func coreOpts(opt Options, done <-chan struct{}) core.Options {
	c := opt.core()
	c.Done = done
	return c
}

// planErr translates a core-layer error: a cancellation becomes the typed
// context error of the request (wrapping ctx.Err() so errors.Is keeps
// working); everything else passes through unchanged.
func planErr(ctx context.Context, err error) error {
	if errors.Is(err, core.ErrCancelled) {
		if ctx.Err() != nil {
			return ctxError(ctx)
		}
		return &Error{Code: CodeCancelled, Message: "query cancelled", err: err}
	}
	return err
}

// Plan answers a unified query Request. It is the single query entry point
// of Network; the /v1 HTTP surface of cmd/tpserver delegates to it.
//
// ctx cancellation and deadlines are honored cooperatively: the core
// settle loops poll ctx.Done() on a coarse stride, so an abandoned HTTP
// request stops burning CPU within a few thousand settles. A cancelled
// query returns a *Error with CodeCancelled or CodeDeadlineExceeded that
// wraps ctx.Err().
//
// Request validation failures return a *Error with a machine-readable
// code; see ErrorCode for the catalogue.
//
// The earliest-arrival path allocates nothing in the steady state when the
// caller passes a Reuse result (and the context's Done channel already
// exists, as it does for HTTP request contexts): the search runs on a
// pooled workspace and only scalars move into the Result.
func (n *Network) Plan(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, ctxError(ctx)
	}
	if err := n.validate(req); err != nil {
		return nil, err
	}
	done := ctx.Done()
	res := req.Reuse
	if res == nil {
		res = &Result{}
	} else {
		*res = Result{}
	}
	res.kind = req.Kind

	var err error
	switch req.Kind {
	case KindEarliestArrival:
		err = n.planEarliestArrival(req, done, res)
	case KindJourney:
		err = n.planJourney(req, done, res)
	case KindProfile:
		err = n.planProfile(req, done, res)
	case KindOneToAll:
		err = n.planOneToAll(req, done, res)
	case KindPareto:
		err = n.planPareto(req, done, res)
	case KindMatrix:
		err = n.planMatrix(req, done, res)
	}
	if err != nil {
		return nil, planErr(ctx, err)
	}
	return res, nil
}

// validate checks the request shape against its kind. It allocates only on
// failure, which keeps the scalar query path allocation-free.
func (n *Network) validate(req Request) error {
	switch req.Kind {
	case KindEarliestArrival, KindJourney, KindProfile:
		if err := n.checkStation(req.From); err != nil {
			return err
		}
		if err := n.checkStation(req.To); err != nil {
			return err
		}
	case KindOneToAll:
		if err := n.checkStation(req.From); err != nil {
			return err
		}
	case KindPareto:
		if err := n.checkStation(req.From); err != nil {
			return err
		}
		// To is not part of the search, but callers (the /v1 surface)
		// evaluate the frontier toward it; validate it here so every
		// station error comes from one place. The zero value is station 0,
		// which is always valid.
		if err := n.checkStation(req.To); err != nil {
			return err
		}
	case KindMatrix:
		if len(req.Sources) == 0 {
			return errf(CodeInvalidRequest, "sources", "matrix request needs at least one source")
		}
		if len(req.Targets) == 0 {
			return errf(CodeInvalidRequest, "targets", "matrix request needs at least one target")
		}
		for _, s := range req.Sources {
			if err := n.checkStation(s); err != nil {
				return err
			}
		}
		for _, t := range req.Targets {
			if err := n.checkStation(t); err != nil {
				return err
			}
		}
	default:
		return errf(CodeUnknownKind, "kind", "unknown request kind %q", string(req.Kind))
	}
	if req.Window != nil {
		if req.Kind != KindOneToAll {
			return errf(CodeBadWindow, "window", "departure window is only valid for %s requests", KindOneToAll)
		}
		if req.Window.From > req.Window.To {
			return errf(CodeBadWindow, "window", "empty departure window [%d, %d]", req.Window.From, req.Window.To)
		}
	}
	if req.MaxTransfers != 0 && req.Kind != KindPareto {
		return errf(CodeBadTransfers, "max_transfers", "transfer budget is only valid for %s requests", KindPareto)
	}
	if req.Kind == KindPareto && (req.MaxTransfers < 0 || req.MaxTransfers > 32) {
		return errf(CodeBadTransfers, "max_transfers", "maxTransfers %d out of range [0,32]", req.MaxTransfers)
	}
	if req.Kind != KindMatrix && (len(req.Sources) > 0 || len(req.Targets) > 0) {
		return errf(CodeInvalidRequest, "sources", "sources/targets are only valid for %s requests", KindMatrix)
	}
	if req.Kind == KindEarliestArrival || req.Kind == KindJourney || req.Kind == KindMatrix {
		if req.Depart < 0 {
			return errf(CodeBadTime, "depart", "negative departure time %d", req.Depart)
		}
		// Arrival keys are departure plus travel time in 32 bits, and
		// Infinity is the unreachable sentinel they are compared with.
		if req.Depart.IsInf() {
			return errf(CodeBadTime, "depart", "departure time %d out of range [0, %d)", req.Depart, Infinity)
		}
	}
	return nil
}

// queryEnv is what the station-to-station searches run against: the graph,
// plus station graph and distance table when the network is preprocessed.
func (n *Network) queryEnv() core.QueryEnv {
	env := core.QueryEnv{Graph: n.g}
	if n.table != nil {
		env.StationGraph = n.sg
		env.Table = n.table
	}
	return env
}

// queryStats copies a search's work counters into the public shape.
func queryStats(run *stats.Run) QueryStats {
	return QueryStats{
		SettledConnections: run.Total.SettledConns,
		MaxThreadSettled:   run.MaxThreadSettled(),
		QueueOps:           run.Total.QueuePushes + run.Total.QueuePops,
		Elapsed:            run.Elapsed,
	}
}

// planEarliestArrival answers the scalar query as the one-departure case of
// the station-to-station search — it stops when the target settles and uses
// the distance table when there is one — on a pooled workspace; only scalars
// escape, so the steady state allocates nothing.
func (n *Network) planEarliestArrival(req Request, done <-chan struct{}, res *Result) error {
	ws := core.GetWorkspace()
	sres, err := ws.EarliestArrival(n.queryEnv(), req.From, req.To, req.Depart, core.QueryOptions{Options: coreOpts(req.Options, done)})
	if err != nil {
		core.PutWorkspace(ws)
		return err
	}
	res.arrival = sres.ArrT[0]
	res.stats = queryStats(&sres.Run)
	res.stats.Local, res.stats.TableHit = sres.Local, sres.TableHit
	core.PutWorkspace(ws)
	return nil
}

// planProfile answers the station-to-station profile query, with the
// Section 4 prunings when the network is preprocessed.
func (n *Network) planProfile(req Request, done <-chan struct{}, res *Result) error {
	// The search runs on a pooled workspace: everything the returned
	// Profile needs (the reduced distance function and the walk time) is
	// extracted before the workspace goes back to the pool, so the O(n·k)
	// search arrays never re-allocate in the steady state.
	ws := core.GetWorkspace()
	sres, err := ws.StationToStation(n.queryEnv(), req.From, req.To, core.QueryOptions{Options: coreOpts(req.Options, done)})
	if err != nil {
		core.PutWorkspace(ws)
		return err
	}
	fn, err := sres.Profile()
	if err != nil {
		core.PutWorkspace(ws)
		return err
	}
	res.stats = queryStats(&sres.Run)
	res.stats.Local, res.stats.TableHit = sres.Local, sres.TableHit
	res.profile = &Profile{Source: req.From, Target: req.To, fn: fn, period: n.tt.Period, walkOnly: sres.WalkOnly}
	core.PutWorkspace(ws)
	return nil
}

// planOneToAll runs the one-to-all profile search, windowed when requested,
// on a pooled workspace. The result keeps only what AllProfiles can be asked
// for — a copy of the numStations × k station arrivals, plus parent links
// when journeys were requested — so the workspace's search arrays (label
// rows and ride cursors per worker, numNodes × k parent links) go back to
// the free list instead of being allocated, zeroed and garbage-collected per
// query.
func (n *Network) planOneToAll(req Request, done <-chan struct{}, res *Result) error {
	from, to := Ticks(0), Infinity
	if req.Window != nil {
		from, to = req.Window.From, req.Window.To
	}
	ws := core.GetWorkspace()
	pr, err := ws.OneToAllWindow(n.g, req.From, from, to, coreOpts(req.Options, done))
	if err != nil {
		core.PutWorkspace(ws)
		return err
	}
	res.all = &AllProfiles{n: n, res: pr.Detach()}
	core.PutWorkspace(ws)
	res.stats = res.all.Stats()
	return nil
}

// planJourney extracts the itinerary for the requested departure — the one
// that leaves latest among those arriving earliest — from the bounded
// window search core.JourneySearch runs behind a point query, on a pooled
// workspace; only the journey's legs escape. Its stats are the sum over the
// point queries and the window search.
func (n *Network) planJourney(req Request, done <-chan struct{}, res *Result) error {
	opt := req.Options
	opt.TrackJourneys = true
	ws := core.GetWorkspace()
	var j *Journey
	pr, err := ws.JourneySearch(n.queryEnv(), req.From, req.To, req.Depart, core.QueryOptions{Options: coreOpts(opt, done)})
	switch {
	case errors.Is(err, core.ErrUnreachable):
		err = unreachable(req.From, req.To)
	case err != nil:
		core.PutWorkspace(ws)
		return err
	default:
		all := AllProfiles{n: n, res: pr}
		j, err = all.Journey(req.To, req.Depart)
		res.stats = all.Stats()
	}
	core.PutWorkspace(ws)
	if err != nil {
		// The overwhelmingly common failure is an unreachable target (or a
		// departure no itinerary realizes); classify it for the wire layer
		// while preserving the underlying message.
		return &Error{Code: CodeUnreachable, Message: strings.TrimPrefix(err.Error(), "transit: "), err: err}
	}
	res.journey = j
	return nil
}

// planPareto runs the multi-criteria one-to-all search.
func (n *Network) planPareto(req Request, done <-chan struct{}, res *Result) error {
	pr, err := core.OneToAllPareto(n.g, req.From, req.MaxTransfers, coreOpts(req.Options, done))
	if err != nil {
		return err
	}
	res.pareto = &ParetoProfiles{n: n, res: pr}
	res.stats = res.pareto.Stats()
	return nil
}

// planMatrix answers the batch one-to-many query: one time-query per source
// row, stopped when the last of the row's targets has settled, rows fanned
// out over Options.Threads workers, each on a pooled workspace. After the
// first failed row no further row is started.
func (n *Network) planMatrix(req Request, done <-chan struct{}, res *Result) error {
	start := time.Now()
	nt := len(req.Targets)
	cells := make([]Ticks, len(req.Sources)*nt) // every row, one allocation
	rows := make([][]Ticks, len(req.Sources))
	for i := range rows {
		rows[i] = cells[i*nt : (i+1)*nt : (i+1)*nt]
	}
	rowOpts := coreOpts(req.Options, done)
	rowOpts.Threads = 1 // parallelism is across rows, not within one
	workers := req.Options.Threads
	if workers < 1 {
		workers = 1
	}
	if workers > len(req.Sources) {
		workers = len(req.Sources)
	}
	var (
		mu       sync.Mutex
		firstErr error
		total    QueryStats
		next     atomic.Int64 // the next row nobody has taken yet
		failed   atomic.Bool
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := core.GetWorkspace()
			defer core.PutWorkspace(ws)
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(rows) {
					return
				}
				tq, err := ws.TimeQueryTo(n.g, req.Sources[i], req.Depart, req.Targets, rowOpts)
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				for j, t := range req.Targets {
					rows[i][j] = tq.StationArrival(t)
				}
				mu.Lock()
				total.SettledConnections += tq.Run.Total.SettledConns
				total.QueueOps += tq.Run.Total.QueuePushes + tq.Run.Total.QueuePops
				if tq.Run.Total.SettledConns > total.MaxThreadSettled {
					total.MaxThreadSettled = tq.Run.Total.SettledConns
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	total.Elapsed = time.Since(start)
	res.matrix = rows
	res.stats = total
	return nil
}
