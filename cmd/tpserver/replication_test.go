// Replication tests: the equivalence property (an updater and its replica
// answer every query byte-identically at the same epoch, across a
// randomized delay/query interleaving) and the chaos scenario (replica and
// updater both killed and restarted; the replica resumes from its journaled
// epoch without re-fetching the full snapshot while within retention).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"transit"
	"transit/internal/backoff"
	"transit/internal/live"
	"transit/internal/replica"
)

// gridNetwork is a deterministic 4-station network rich enough for varied
// journeys: two A→B→C lines and a B→D shuttle, all with known train names
// the randomized delay generator can pick from.
func gridNetwork(t testing.TB) (*transit.Network, []string) {
	t.Helper()
	tb := transit.NewTimetableBuilder(0)
	a := tb.AddStation("A", 2)
	b := tb.AddStation("B", 3)
	c := tb.AddStation("C", 2)
	d := tb.AddStation("D", 2)
	var trains []string
	add := func(name string, stops []transit.StationID, dep transit.Ticks, rides []transit.Ticks) {
		if err := tb.AddTrain(name, stops, dep, rides, 0); err != nil {
			t.Fatal(err)
		}
		trains = append(trains, name)
	}
	for h := 6; h <= 21; h++ {
		add(fmt.Sprintf("abc%02d", h), []transit.StationID{a, b, c},
			transit.Ticks(h*60), []transit.Ticks{25, 20})
		add(fmt.Sprintf("ab%02d", h), []transit.StationID{a, b},
			transit.Ticks(h*60+30), []transit.Ticks{22})
		add(fmt.Sprintf("bd%02d", h), []transit.StationID{b, d},
			transit.Ticks(h*60+50), []transit.Ticks{15})
	}
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n, trains
}

// updaterNode wires a registry to a publisher and serves the full tpserver
// handler surface over a real listener.
type updaterNode struct {
	reg *live.Registry
	pub *replica.Publisher
	srv *httptest.Server
}

// arrival answers one earliest-arrival request on n through Plan.
func arrival(t testing.TB, n *transit.Network, from, to transit.StationID, at transit.Ticks) transit.Ticks {
	t.Helper()
	res, err := n.Plan(context.Background(), transit.Request{Kind: transit.KindEarliestArrival, From: from, To: to, Depart: at})
	if err != nil {
		t.Fatal(err)
	}
	arr, _ := res.Arrival()
	return arr
}

func startUpdater(t testing.TB, n *transit.Network, retain int) *updaterNode {
	t.Helper()
	pub := replica.NewPublisher(0, retain)
	reg := live.NewRegistry(n, live.Config{Policy: live.ServeUnpruned, OnApply: pub.Publish})
	pub.Snapshot = reg.Persist
	s := newServer(reg, 1)
	s.pub = pub
	s.ready.Store(readyServing)
	srv := httptest.NewServer(s.handler())
	t.Cleanup(func() { pub.Close(); srv.Close(); reg.Close() })
	return &updaterNode{reg: reg, pub: pub, srv: srv}
}

// replicaNode is a read-only query node following an updater.
type replicaNode struct {
	s        *server
	reg      *live.Registry
	follower *replica.Follower
	srv      *httptest.Server
}

func startReplica(t testing.TB, n *transit.Network, updaterURL string) *replicaNode {
	t.Helper()
	reg := live.NewRegistry(n, live.Config{Policy: live.ServeUnpruned})
	f := replica.NewFollower(replica.FollowerConfig{
		Registry: reg,
		BaseURL:  updaterURL,
		Backoff:  backoff.Policy{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.5},
		Logf:     t.Logf,
	})
	s := newServer(reg, 1)
	s.follower = f
	s.followURL = updaterURL
	s.ready.Store(readyServing)
	srv := httptest.NewServer(s.handler())
	f.Start()
	t.Cleanup(func() { f.Stop(); srv.Close(); reg.Close() })
	return &replicaNode{s: s, reg: reg, follower: f, srv: srv}
}

func waitForEpoch(t testing.TB, reg *live.Registry, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Epoch >= epoch {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replica stuck at epoch %d, want %d", reg.Snapshot().Epoch, epoch)
}

// fetch GETs a URL and returns status and body.
func fetch(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// normalizeBody strips the fields that legitimately differ between two
// servers answering the same query — wall-clock measurements — and
// re-marshals with sorted keys, so equal logical answers compare equal.
func normalizeBody(t testing.TB, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return string(body) // not an object (e.g. /v1/stations list): compare raw
	}
	delete(m, "query_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestReplicationEquivalence is the equivalence property test: across a
// randomized interleaving of delay batches and queries, a replica answers
// every /v1 query byte-identically to its updater at the same
// epoch.
func TestReplicationEquivalence(t *testing.T) {
	net1, trains := gridNetwork(t)
	net2, _ := gridNetwork(t)
	upd := startUpdater(t, net1, 0)
	rep := startReplica(t, net2, upd.srv.URL)

	rng := rand.New(rand.NewSource(7))
	paths := func(rng *rand.Rand) []string {
		from, to := rng.Intn(4), rng.Intn(4)
		at := fmt.Sprintf("%02d:%02d", 6+rng.Intn(14), rng.Intn(60))
		return []string{
			fmt.Sprintf("/v1/arrival?from=%d&to=%d&depart=%s", from, to, at),
			fmt.Sprintf("/v1/profile?from=%d&to=%d", from, to),
			fmt.Sprintf("/v1/journey?from=%d&to=%d&depart=%s", from, to, at),
			"/v1/stations",
			fmt.Sprintf("/v1/pareto?from=%d&to=%d&depart=%s&max_transfers=2", from, to, at),
		}
	}

	epoch := uint64(0)
	for round := 0; round < 12; round++ {
		// Random delay batch: 1–3 ops over known trains, sometimes with a
		// window, sometimes a cancellation.
		nops := 1 + rng.Intn(3)
		var ops []string
		for i := 0; i < nops; i++ {
			train := trains[rng.Intn(len(trains))]
			if rng.Intn(5) == 0 {
				ops = append(ops, fmt.Sprintf(`{"train":%q,"cancel":true}`, train))
			} else {
				op := fmt.Sprintf(`{"train":%q,"delay_min":%d`, train, 1+rng.Intn(40))
				if rng.Intn(3) == 0 {
					op += fmt.Sprintf(`,"from":"%02d:00","to":"%02d:00"`, 6+rng.Intn(6), 14+rng.Intn(8))
				}
				ops = append(ops, op+"}")
			}
		}
		body := `{"ops":[` + strings.Join(ops, ",") + `]}`
		resp, err := http.Post(upd.srv.URL+"/delays", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: delay batch rejected (%d): %s", round, resp.StatusCode, raw)
		}
		epoch = upd.reg.Snapshot().Epoch
		waitForEpoch(t, rep.reg, epoch)
		if got := rep.reg.Snapshot().Epoch; got != epoch {
			t.Fatalf("round %d: replica at epoch %d, updater at %d", round, got, epoch)
		}

		for _, p := range paths(rng) {
			uCode, uBody := fetch(t, upd.srv.URL+p)
			rCode, rBody := fetch(t, rep.srv.URL+p)
			if uCode != rCode {
				t.Fatalf("round %d %s: status %d vs %d", round, p, uCode, rCode)
			}
			u, r := normalizeBody(t, uBody), normalizeBody(t, rBody)
			if u != r {
				t.Fatalf("round %d %s (epoch %d):\nupdater: %s\nreplica: %s", round, p, epoch, u, r)
			}
		}
	}
	if f := rep.follower.SnapshotFetches(); f != 0 {
		t.Fatalf("equivalence run needed %d snapshot fetches; deltas alone should suffice", f)
	}
	if d := rep.follower.Divergences(); d != 0 {
		t.Fatalf("%d divergences detected between identical networks", d)
	}
}

func TestReplicaRejectsDelaysReadOnly(t *testing.T) {
	net1, _ := gridNetwork(t)
	net2, _ := gridNetwork(t)
	upd := startUpdater(t, net1, 0)
	rep := startReplica(t, net2, upd.srv.URL)

	resp, err := http.Post(rep.srv.URL+"/delays", "application/json",
		strings.NewReader(`{"ops":[{"train":"ab08","delay_min":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica POST /delays status %d, want 403", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != upd.srv.URL+"/delays" {
		t.Fatalf("Location %q, want %q", loc, upd.srv.URL+"/delays")
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "read_only" {
		t.Fatalf("error code %q, want read_only", env.Error.Code)
	}
}

func TestReplicaReadyzSyncing(t *testing.T) {
	// A replica that cannot reach its updater must report syncing, not
	// ready: it has no idea how stale it is.
	net2, _ := gridNetwork(t)
	reg := live.NewRegistry(net2, live.Config{Policy: live.ServeUnpruned})
	defer reg.Close()
	f := replica.NewFollower(replica.FollowerConfig{
		Registry: reg,
		BaseURL:  "http://127.0.0.1:1", // nothing listens here
		Backoff:  backoff.Policy{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
	})
	s := newServer(reg, 1)
	s.follower = f
	s.followURL = "http://127.0.0.1:1"
	s.ready.Store(readyServing)
	f.Start()
	defer f.Stop()

	rec := get(t, newMux(s), "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unreachable-updater readyz status %d, want 503", rec.Code)
	}
	var hr struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "syncing" {
		t.Fatalf("readyz status %q, want syncing", hr.Status)
	}

	// A caught-up replica is ready.
	net1, _ := gridNetwork(t)
	upd := startUpdater(t, net1, 0)
	net3, _ := gridNetwork(t)
	rep := startReplica(t, net3, upd.srv.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := fetch(t, rep.srv.URL+"/readyz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never became ready: %d %s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicationStatusEndpoints(t *testing.T) {
	net1, _ := gridNetwork(t)
	net2, _ := gridNetwork(t)
	upd := startUpdater(t, net1, 0)
	rep := startReplica(t, net2, upd.srv.URL)
	if _, _, err := upd.reg.Apply([]transit.DelayOp{{Train: "ab08", Delay: 5}}); err != nil {
		t.Fatal(err)
	}
	waitForEpoch(t, rep.reg, 1)

	code, body := fetch(t, upd.srv.URL+"/v1/replication/status")
	if code != http.StatusOK {
		t.Fatalf("updater status %d: %s", code, body)
	}
	var us struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &us); err != nil {
		t.Fatal(err)
	}
	if us.Role != "updater" || us.Epoch != 1 {
		t.Fatalf("updater status %+v", us)
	}

	code, body = fetch(t, rep.srv.URL+"/v1/replication/status")
	if code != http.StatusOK {
		t.Fatalf("replica status %d: %s", code, body)
	}
	var rs struct {
		Role          string `json:"role"`
		Epoch         uint64 `json:"epoch"`
		UpdaterURL    string `json:"updater_url"`
		LagKnown      bool   `json:"lag_known"`
		DeltasApplied uint64 `json:"deltas_applied"`
	}
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Role != "replica" || rs.Epoch != 1 || rs.UpdaterURL != upd.srv.URL || !rs.LagKnown || rs.DeltasApplied != 1 {
		t.Fatalf("replica status %+v", rs)
	}

	// The stream endpoint does not exist on a replica.
	code, _ = fetch(t, rep.srv.URL+"/v1/replication/stream?from=1")
	if code == http.StatusOK {
		t.Fatal("replica served a replication stream")
	}
}

// TestReplicationChaos kills and restarts both sides: the replica dies
// mid-stream, the updater crash-restarts (journal replay, no clean
// checkpoint), and the restarted replica must resume from its journaled
// epoch over the stream — zero snapshot fetches — because the updater's
// replayed journal re-seeded the delta retention ring.
func TestReplicationChaos(t *testing.T) {
	dir := t.TempDir()
	updWAL := filepath.Join(dir, "updater.wal")
	repWAL := filepath.Join(dir, "replica.wal")

	netU, _ := gridNetwork(t)
	pub1 := replica.NewPublisher(0, 0)
	regU1 := live.NewRegistry(netU, live.Config{Policy: live.ServeUnpruned, OnApply: pub1.Publish})
	pub1.Snapshot = regU1.Persist
	if _, err := regU1.RecoverJournal(updWAL); err != nil {
		t.Fatal(err)
	}
	sU1 := newServer(regU1, 1)
	sU1.pub = pub1
	sU1.ready.Store(readyServing)
	srvU1 := httptest.NewServer(sU1.handler())

	// Epochs 1–3 while the first replica incarnation follows.
	for i := 0; i < 3; i++ {
		if _, _, err := regU1.Apply([]transit.DelayOp{{Train: fmt.Sprintf("ab%02d", 8+i), Delay: transit.Ticks(10 + i)}}); err != nil {
			t.Fatal(err)
		}
	}

	netR, _ := gridNetwork(t)
	regR1 := live.NewRegistry(netR, live.Config{Policy: live.ServeUnpruned})
	if _, err := regR1.RecoverJournal(repWAL); err != nil {
		t.Fatal(err)
	}
	f1 := replica.NewFollower(replica.FollowerConfig{
		Registry: regR1, BaseURL: srvU1.URL,
		Backoff: backoff.Policy{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Logf:    t.Logf,
	})
	f1.Start()
	waitForEpoch(t, regR1, 3)
	if f1.SnapshotFetches() != 0 {
		t.Fatalf("first incarnation fetched %d snapshots", f1.SnapshotFetches())
	}

	// Kill the replica mid-stream: stop the follower without any clean
	// checkpoint; its journal holds epochs 1–3.
	f1.Stop()
	regR1.Close()

	// The updater applies two more epochs, then crash-restarts: no final
	// persist — recovery is pure journal replay, which must re-seed the
	// publisher ring so the returning replica can use the stream.
	for i := 0; i < 2; i++ {
		if _, _, err := regU1.Apply([]transit.DelayOp{{Train: fmt.Sprintf("bd%02d", 9+i), Delay: transit.Ticks(7 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	pub1.Close()
	srvU1.Close()
	regU1.Close()

	netU2, _ := gridNetwork(t)
	pub2 := replica.NewPublisher(0, 0)
	regU2 := live.NewRegistry(netU2, live.Config{Policy: live.ServeUnpruned, OnApply: pub2.Publish})
	pub2.Snapshot = regU2.Persist
	if _, err := regU2.RecoverJournal(updWAL); err != nil {
		t.Fatal(err)
	}
	if got := regU2.Snapshot().Epoch; got != 5 {
		t.Fatalf("updater restart recovered epoch %d, want 5", got)
	}
	if got := pub2.Floor(); got != 1 {
		t.Fatalf("replayed ring floor %d, want 1", got)
	}
	sU2 := newServer(regU2, 1)
	sU2.pub = pub2
	sU2.ready.Store(readyServing)
	srvU2 := httptest.NewServer(sU2.handler())
	defer func() { pub2.Close(); srvU2.Close(); regU2.Close() }()

	// Restart the replica from its journal: epochs 1–3 replay locally, and
	// the stream supplies 4–5. No snapshot fetch.
	netR2, _ := gridNetwork(t)
	regR2 := live.NewRegistry(netR2, live.Config{Policy: live.ServeUnpruned})
	if _, err := regR2.RecoverJournal(repWAL); err != nil {
		t.Fatal(err)
	}
	if got := regR2.Snapshot().Epoch; got != 3 {
		t.Fatalf("replica restart recovered epoch %d, want 3", got)
	}
	f2 := replica.NewFollower(replica.FollowerConfig{
		Registry: regR2, BaseURL: srvU2.URL,
		Backoff: backoff.Policy{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Logf:    t.Logf,
	})
	f2.Start()
	defer func() { f2.Stop(); regR2.Close() }()
	waitForEpoch(t, regR2, 5)
	if f2.SnapshotFetches() != 0 {
		t.Fatalf("restarted replica fetched %d snapshots; within retention it must resume over the stream", f2.SnapshotFetches())
	}

	// Both sides answer identically after the double restart.
	for _, at := range []transit.Ticks{400, 500, 600} {
		if u, r := arrival(t, regU2.Snapshot().Net, 0, 3, at), arrival(t, regR2.Snapshot().Net, 0, 3, at); u != r {
			t.Fatalf("at %d: updater arrival %v, replica %v", at, u, r)
		}
	}
}
