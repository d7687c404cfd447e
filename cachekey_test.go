package transit

import (
	"context"
	"testing"
)

func TestCacheKeyCanonical(t *testing.T) {
	base := Request{Kind: KindEarliestArrival, From: 3, To: 7, Depart: 480}

	// Options and Reuse never change the answer, so they never change the
	// key.
	tuned := base
	tuned.Options = Options{Threads: 8, TrackJourneys: true}
	tuned.Reuse = &Result{}
	if base.CacheKey() != tuned.CacheKey() {
		t.Fatal("Options/Reuse leaked into the cache key")
	}

	// Any consulted field distinguishes.
	distinct := []Request{
		base,
		{Kind: KindEarliestArrival, From: 3, To: 7, Depart: 481},
		{Kind: KindEarliestArrival, From: 3, To: 8, Depart: 480},
		{Kind: KindEarliestArrival, From: 4, To: 7, Depart: 480},
		{Kind: KindJourney, From: 3, To: 7, Depart: 480},
		{Kind: KindProfile, From: 3, To: 7},
		{Kind: KindOneToAll, From: 3},
		{Kind: KindOneToAll, From: 3, Window: &Window{From: 0, To: 600}},
		{Kind: KindOneToAll, From: 3, Window: &Window{From: 0, To: 601}},
		{Kind: KindPareto, From: 3, MaxTransfers: 2},
		{Kind: KindPareto, From: 3, MaxTransfers: 3},
		{Kind: KindMatrix, Sources: []StationID{1, 2}, Targets: []StationID{3, 4}, Depart: 480},
		{Kind: KindMatrix, Sources: []StationID{1}, Targets: []StationID{2, 3, 4}, Depart: 480},
	}
	seen := make(map[string]int)
	for i, req := range distinct {
		k := req.CacheKey()
		if k == "" {
			t.Fatalf("request %d: empty key for valid kind %s", i, req.Kind)
		}
		if j, dup := seen[k]; dup {
			t.Fatalf("requests %d and %d collide on key %q", j, i, k)
		}
		seen[k] = i
	}

	// Unconsulted fields do not distinguish: a profile ignores Depart, a
	// pareto ignores To and Depart (they only steer rendering).
	p1 := Request{Kind: KindProfile, From: 3, To: 7}
	p2 := Request{Kind: KindProfile, From: 3, To: 7, Depart: 500}
	if p1.CacheKey() != p2.CacheKey() {
		t.Fatal("profile key depends on Depart")
	}
	q1 := Request{Kind: KindPareto, From: 3, MaxTransfers: 2}
	q2 := Request{Kind: KindPareto, From: 3, To: 9, Depart: 500, MaxTransfers: 2}
	if q1.CacheKey() != q2.CacheKey() {
		t.Fatal("pareto key depends on To/Depart")
	}

	// Unknown kinds must not be cacheable.
	if k := (Request{Kind: "bogus"}).CacheKey(); k != "" {
		t.Fatalf("unknown kind got key %q", k)
	}
}

func TestResultApproxBytes(t *testing.T) {
	n := testNetwork(t)
	kinds := []Request{
		{Kind: KindEarliestArrival, From: 0, To: 1, Depart: 480},
		{Kind: KindJourney, From: 0, To: 1, Depart: 480},
		{Kind: KindProfile, From: 0, To: 1},
		{Kind: KindOneToAll, From: 0},
		{Kind: KindPareto, From: 0, MaxTransfers: 2},
		{Kind: KindMatrix, Sources: []StationID{0, 1}, Targets: []StationID{2, 3}, Depart: 480},
	}
	sizes := make(map[Kind]int)
	var oneToAll *Result
	for _, req := range kinds {
		res, err := n.Plan(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		b := res.ApproxBytes()
		if b <= 0 {
			t.Fatalf("%s: ApproxBytes = %d, want positive", req.Kind, b)
		}
		sizes[req.Kind] = b
		if req.Kind == KindOneToAll {
			oneToAll = res
		}
	}
	// The one-to-all kinds retain label arrays and must dwarf the scalar
	// kinds — that difference is what makes byte-bounded eviction
	// meaningful.
	if sizes[KindOneToAll] <= 20*sizes[KindEarliestArrival] {
		t.Fatalf("one-to-all %dB not >> earliest-arrival %dB", sizes[KindOneToAll], sizes[KindEarliestArrival])
	}
	// A one-to-all result is detached from its workspace and keeps a copy of
	// its station rows: shell + 4 B per (station, connection) arrival, 8 B
	// per seed connection, 24 B per walkable station, and nothing for the
	// parent links this query did not track (4792 B on this network).
	all, _ := oneToAll.All()
	k, walkable := all.res.K(), 0
	for s := 0; s < n.NumStations(); s++ {
		if !all.res.WalkOnly(StationID(s)).IsInf() {
			walkable++
		}
	}
	if want := 160 + 4*n.NumStations()*k + 8*k + 24*walkable; sizes[KindOneToAll] != want {
		t.Fatalf("one-to-all ApproxBytes = %d, want %d (%d stations, k = %d, %d walkable)",
			sizes[KindOneToAll], want, n.NumStations(), k, walkable)
	}
	if sizes[KindPareto] <= sizes[KindEarliestArrival] {
		t.Fatalf("pareto %dB not > earliest-arrival %dB", sizes[KindPareto], sizes[KindEarliestArrival])
	}
	if sizes[KindJourney] <= sizes[KindEarliestArrival] {
		t.Fatalf("journey %dB (has legs) not > earliest-arrival %dB", sizes[KindJourney], sizes[KindEarliestArrival])
	}
}
