package core

import (
	"time"

	"transit/internal/dtable"
	"transit/internal/graph"
	"transit/internal/timetable"
)

// PreprocessResult reports distance-table preprocessing cost, matching the
// Prepro columns of Table 2.
type PreprocessResult struct {
	Table *dtable.Table
	// Elapsed is the total preprocessing wall time.
	Elapsed time.Duration
	// SizeBytes estimates the stored profiles' footprint (the paper's
	// table-size figure).
	SizeBytes int64
}

// BuildDistanceTable precomputes the distance table for the marked transfer
// stations by running the (possibly parallel) one-to-all profile search
// from each of them, exactly as in Section 5.2 ("the distance tables are
// computed by running our parallel one-to-all algorithm from every transfer
// station"). sourceParallelism bounds how many source stations are
// processed concurrently (1 reproduces the paper's setup, where
// parallelism lives inside each one-to-all run); the workers pull rows from
// a shared chunked queue and each reuses one pooled search workspace.
func BuildDistanceTable(g *graph.Graph, isTransfer []bool, opts Options, sourceParallelism int) (*PreprocessResult, error) {
	start := time.Now()
	t, err := dtable.Build(g.TT.Period, g.TT.NumStations(), isTransfer, sourceParallelism, searchFactory(g, opts))
	if err != nil {
		return nil, err
	}
	return &PreprocessResult{
		Table:     t,
		Elapsed:   time.Since(start),
		SizeBytes: t.SizeBytes(),
	}, nil
}

// rowSearcher adapts a pooled workspace to dtable's per-worker searcher:
// each Build worker owns one, so the label row, the ride cursors and the
// numStations × k arrival store are reused across all rows the worker
// processes, and Close returns the workspace to the package pool. A row's
// profiles are reduced straight from the arrival store into the worker's
// row buffer (ProfileResult.AppendStationProfile), with no copy or
// allocation per target.
type rowSearcher struct {
	ws   *Workspace
	g    *graph.Graph
	opts Options
}

func (s *rowSearcher) Search(source timetable.StationID) (dtable.StationProfiler, error) {
	return s.ws.OneToAll(s.g, source, s.opts)
}

func (s *rowSearcher) Close() { PutWorkspace(s.ws) }

// searchFactory returns the dtable worker factory over pooled workspaces.
func searchFactory(g *graph.Graph, opts Options) dtable.SearchFactory {
	return func() (dtable.RowSearcher, error) {
		return &rowSearcher{ws: GetWorkspace(), g: g, opts: opts}, nil
	}
}
