package stats

import "sync/atomic"

// Effort is an optional per-query counter block a caller threads through
// core.Options to see how much work a search did. Fields are atomic
// because one logical query may run its searches on several goroutines
// (matrix rows, parallel SPCS threads) sharing a single options value.
//
// The write side is a handful of atomic adds per *search*, not per settle
// step — orchestrators fold their already-collected Run counters in once
// at the end — so an attached Effort costs nothing measurable and, being
// caller-owned, keeps the query path allocation-free.
type Effort struct {
	// ConnsScanned counts edge relaxations (connections looked at).
	ConnsScanned atomic.Int64
	// LabelsSettled is Counters.SettledConns — the paper's "settled
	// connections": queue extractions that survived pruning and relaxed
	// their edges, plus the route records trip scans write.
	LabelsSettled atomic.Int64
	// PrunedConns is Counters.PrunedConns: labels refused or discarded by
	// self-pruning, stopping criterion, distance-table or target pruning.
	PrunedConns atomic.Int64
	// PQPushes / PQPops count priority-queue operations.
	PQPushes atomic.Int64
	PQPops   atomic.Int64
	// CancelPolls counts cancel-stride checks of the Done channel.
	CancelPolls atomic.Int64
	// Rounds counts completed search executions folded into this block
	// (one per settle loop that ran; a matrix query adds one per row).
	Rounds atomic.Int64
}

// Observe folds one finished run into the effort block. Nil-safe: calling
// on a nil receiver is a no-op, so orchestrators can call it
// unconditionally.
func (e *Effort) Observe(r *Run) {
	if e == nil {
		return
	}
	e.ConnsScanned.Add(r.Total.Relaxed)
	e.LabelsSettled.Add(r.Total.SettledConns)
	e.PrunedConns.Add(r.Total.PrunedConns)
	e.PQPushes.Add(r.Total.QueuePushes)
	e.PQPops.Add(r.Total.QueuePops)
	e.CancelPolls.Add(r.Total.CancelPolls)
	e.Rounds.Add(1)
}

// Reset zeroes every counter so the block can be pooled across queries.
func (e *Effort) Reset() {
	e.ConnsScanned.Store(0)
	e.LabelsSettled.Store(0)
	e.PrunedConns.Store(0)
	e.PQPushes.Store(0)
	e.PQPops.Store(0)
	e.CancelPolls.Store(0)
	e.Rounds.Store(0)
}

// EffortSnapshot is a plain-value copy of an Effort block, shaped for JSON
// trace output and the slow-query log.
type EffortSnapshot struct {
	ConnsScanned  int64 `json:"conns_scanned"`
	LabelsSettled int64 `json:"labels_settled"`
	PrunedConns   int64 `json:"pruned_conns"`
	PQPushes      int64 `json:"pq_pushes"`
	PQPops        int64 `json:"pq_pops"`
	CancelPolls   int64 `json:"cancel_polls"`
	Rounds        int64 `json:"rounds"`
}

// Snapshot copies the current counter values. Nil-safe.
func (e *Effort) Snapshot() EffortSnapshot {
	if e == nil {
		return EffortSnapshot{}
	}
	return EffortSnapshot{
		ConnsScanned:  e.ConnsScanned.Load(),
		LabelsSettled: e.LabelsSettled.Load(),
		PrunedConns:   e.PrunedConns.Load(),
		PQPushes:      e.PQPushes.Load(),
		PQPops:        e.PQPops.Load(),
		CancelPolls:   e.CancelPolls.Load(),
		Rounds:        e.Rounds.Load(),
	}
}
