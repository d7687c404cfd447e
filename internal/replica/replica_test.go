package replica

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"transit"
	"transit/internal/backoff"
	"transit/internal/live"
)

// hourlyNetwork: trains leave A hourly 06:00–22:00, reaching B after 30
// minutes; a second line B→C every hour on the half hour.
func hourlyNetwork(t testing.TB) *transit.Network {
	t.Helper()
	tb := transit.NewTimetableBuilder(0)
	a := tb.AddStation("A", 2)
	b := tb.AddStation("B", 2)
	c := tb.AddStation("C", 2)
	for h := 6; h <= 22; h++ {
		if err := tb.AddTrain(fmt.Sprintf("ab%02d", h), []transit.StationID{a, b},
			transit.Ticks(h*60), []transit.Ticks{30}, 0); err != nil {
			t.Fatal(err)
		}
		if err := tb.AddTrain(fmt.Sprintf("bc%02d", h), []transit.StationID{b, c},
			transit.Ticks(h*60+40), []transit.Ticks{25}, 0); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
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

func TestDeltaCodecRoundTrip(t *testing.T) {
	d := Delta{
		Epoch: 42,
		Ops: []transit.DelayOp{
			{Train: "ab08", Routes: []int{1, 3}, WindowFrom: 100, WindowTo: 900, Delay: 20},
			{Train: "bc10", Cancel: true},
		},
		Touched: []transit.TouchedConn{
			{Conn: 7, Train: 2, Route: 1, From: 0, OldDep: 480, NewDep: 500},
			{Conn: 9, Train: 5, Route: 3, From: 1, OldDep: 640, NewDep: 640, Cancelled: true},
		},
	}
	got, err := decodeDelta(encodeDelta(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, d)
	}

	// Empty ops and touched survive too.
	got, err = decodeDelta(encodeDelta(Delta{Epoch: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 || len(got.Ops) != 0 || len(got.Touched) != 0 {
		t.Fatalf("empty delta round trip: %+v", got)
	}

	epoch, err := decodeHello(encodeHello(99))
	if err != nil || epoch != 99 {
		t.Fatalf("hello round trip: epoch %d err %v", epoch, err)
	}
}

func TestDeltaCodecRejectsDamage(t *testing.T) {
	raw := encodeDelta(Delta{Epoch: 3, Touched: []transit.TouchedConn{{Conn: 1}}})
	if _, err := decodeDelta(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated touched block decoded")
	}
	if _, err := decodeDelta(append(raw, 0)); err == nil {
		t.Fatal("oversized touched block decoded")
	}
	if _, err := decodeHello([]byte{frameHello, 99, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("future wire version accepted")
	}
}

func TestPublisherRetentionAndFloor(t *testing.T) {
	p := NewPublisher(0, 3)
	if got := p.Floor(); got != 1 {
		t.Fatalf("empty floor %d, want 1", got)
	}
	for e := uint64(1); e <= 5; e++ {
		p.Publish(e, []transit.DelayOp{{Train: "x", Delay: 1}}, nil)
	}
	if got := p.Epoch(); got != 5 {
		t.Fatalf("epoch %d, want 5", got)
	}
	if got := p.Floor(); got != 3 {
		t.Fatalf("floor %d after retention, want 3", got)
	}
}

func pubServer(t testing.TB, p *Publisher) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/stream", p.ServeStream)
	mux.HandleFunc("GET /v1/replication/snapshot", p.ServeSnapshot)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestServeStreamStatusLadder(t *testing.T) {
	p := NewPublisher(10, 4)
	for e := uint64(11); e <= 14; e++ {
		p.Publish(e, nil, nil)
	}
	defer p.Close()
	srv := pubServer(t, p)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"from=bogus", http.StatusBadRequest},
		{"", http.StatusBadRequest},
		{"from=10", http.StatusGone},                         // below floor 11
		{"from=16", http.StatusRequestedRangeNotSatisfiable}, // beyond cur+1
	} {
		resp, err := http.Get(srv.URL + "/v1/replication/stream?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("?%s: got %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
	}
}

// waitEpoch polls until the registry reaches epoch or the deadline passes.
func waitEpoch(t testing.TB, r *live.Registry, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if r.Snapshot().Epoch >= epoch {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("registry stuck at epoch %d, want %d", r.Snapshot().Epoch, epoch)
}

// updaterFixture builds an updater registry publishing through pub and an
// HTTP server exposing the replication endpoints.
func updaterFixture(t testing.TB, retain int) (*live.Registry, *Publisher, *httptest.Server) {
	t.Helper()
	pub := NewPublisher(0, retain)
	t.Cleanup(pub.Close)
	reg := live.NewRegistry(hourlyNetwork(t), live.Config{OnApply: pub.Publish})
	t.Cleanup(reg.Close)
	pub.Snapshot = reg.Persist
	pub.Logf = t.Logf
	return reg, pub, pubServer(t, pub)
}

func startFollower(t testing.TB, reg *live.Registry, baseURL string) *Follower {
	t.Helper()
	f := NewFollower(FollowerConfig{
		Registry: reg,
		BaseURL:  baseURL,
		Backoff:  backoff.Policy{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.5},
		Logf:     t.Logf,
	})
	f.Start()
	t.Cleanup(f.Stop)
	return f
}

func TestFollowerTracksUpdater(t *testing.T) {
	upd, _, srv := updaterFixture(t, 0)
	rep := live.NewRegistry(hourlyNetwork(t), live.Config{})
	defer rep.Close()
	f := startFollower(t, rep, srv.URL)

	if _, known := f.Lag(); known {
		// Might legitimately connect before we check; only assert the
		// value once known.
		if lag, _ := f.Lag(); lag != 0 {
			t.Fatalf("lag %d before any delta", lag)
		}
	}

	// Deltas applied before and after the follower connects both arrive.
	if _, _, err := upd.Apply([]transit.DelayOp{{Train: "ab08", Delay: 20}}); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, rep, 1)
	if _, _, err := upd.Apply([]transit.DelayOp{{Train: "ab09", Cancel: true}}); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, rep, 2)

	us, rs := upd.Snapshot(), rep.Snapshot()
	if us.Epoch != rs.Epoch {
		t.Fatalf("epochs diverged: updater %d, replica %d", us.Epoch, rs.Epoch)
	}
	for _, at := range []transit.Ticks{400, 480, 520, 560} {
		if u, r := arrival(t, us.Net, 0, 2, at), arrival(t, rs.Net, 0, 2, at); u != r {
			t.Fatalf("at %d: updater arrival %d, replica %d", at, u, r)
		}
	}
	if lag, known := f.Lag(); !known || lag != 0 {
		t.Fatalf("lag (%d, %v) after catch-up, want (0, true)", lag, known)
	}
	if f.SnapshotFetches() != 0 {
		t.Fatalf("%d snapshot fetches for in-retention follow", f.SnapshotFetches())
	}
	if f.DeltasApplied() != 2 {
		t.Fatalf("deltas applied %d, want 2", f.DeltasApplied())
	}
}

func TestFollowerSnapshotFallback(t *testing.T) {
	upd, pub, srv := updaterFixture(t, 2) // tiny retention window
	// Outrun retention before the follower ever connects: epochs 1–5
	// retained ⇒ floor 4, follower at 0 asks from=1 ⇒ 410.
	for i := 0; i < 5; i++ {
		train := fmt.Sprintf("ab%02d", 8+i)
		if _, _, err := upd.Apply([]transit.DelayOp{{Train: train, Delay: transit.Ticks(5 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	rep := live.NewRegistry(hourlyNetwork(t), live.Config{})
	defer rep.Close()
	f := startFollower(t, rep, srv.URL)
	waitEpoch(t, rep, 5)

	if f.SnapshotFetches() != 1 {
		t.Fatalf("snapshot fetches %d, want 1", f.SnapshotFetches())
	}
	if got := pub.SnapshotsServed(); got != 1 {
		t.Fatalf("snapshots served %d, want 1", got)
	}
	// After the resync the stream takes over again: a fresh delta arrives
	// without another snapshot fetch.
	if _, _, err := upd.Apply([]transit.DelayOp{{Train: "ab20", Delay: 7}}); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, rep, 6)
	if f.SnapshotFetches() != 1 {
		t.Fatalf("snapshot fetches %d after resumed stream, want still 1", f.SnapshotFetches())
	}
	us, rs := upd.Snapshot(), rep.Snapshot()
	for _, at := range []transit.Ticks{480, 540, 1200} {
		if u, r := arrival(t, us.Net, 0, 1, at), arrival(t, rs.Net, 0, 1, at); u != r {
			t.Fatalf("at %d: updater arrival %d, replica %d", at, u, r)
		}
	}
}

func TestFollowerReconnectsAfterPublisherDrop(t *testing.T) {
	// The handler indirects through an atomic pointer so the test can
	// retire one publisher (closing its streams, as a restarting updater
	// does) and stand up a successor behind the same URL.
	var cur atomic.Pointer[Publisher]
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/stream", func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeStream(w, r)
	})
	mux.HandleFunc("GET /v1/replication/snapshot", func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeSnapshot(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	pub := NewPublisher(0, 0)
	upd := live.NewRegistry(hourlyNetwork(t), live.Config{
		OnApply: func(e uint64, ops []transit.DelayOp, touched []transit.TouchedConn) {
			cur.Load().Publish(e, ops, touched)
		},
	})
	defer upd.Close()
	pub.Snapshot = upd.Persist
	cur.Store(pub)

	rep := live.NewRegistry(hourlyNetwork(t), live.Config{})
	defer rep.Close()
	f := startFollower(t, rep, srv.URL)

	if _, _, err := upd.Apply([]transit.DelayOp{{Train: "ab08", Delay: 3}}); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, rep, 1)

	// Cut every subscriber loose; the follower must come back for the next
	// delta on its own, against the successor publisher.
	next := NewPublisher(upd.Snapshot().Epoch, 0)
	next.Snapshot = upd.Persist
	cur.Store(next)
	pub.Close()
	defer next.Close()

	if _, _, err := upd.Apply([]transit.DelayOp{{Train: "ab09", Delay: 4}}); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, rep, 2)
	if f.Reconnects() == 0 {
		t.Fatal("follower reached epoch 2 without counting a reconnect")
	}
}

func TestFetchSnapshotColdBoot(t *testing.T) {
	upd, _, srv := updaterFixture(t, 0)
	if _, _, err := upd.Apply([]transit.DelayOp{{Train: "ab08", Delay: 20}}); err != nil {
		t.Fatal(err)
	}
	net, st, err := FetchSnapshot(context.Background(), nil, srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Fatalf("cold-boot snapshot epoch %d, want 1", st.Epoch)
	}
	if got, want := arrival(t, net, 0, 1, 480), arrival(t, upd.Snapshot().Net, 0, 1, 480); got != want {
		t.Fatalf("cold-boot arrival %d, want %d", got, want)
	}
}

func TestPublisherSeededByJournalReplay(t *testing.T) {
	// OnApply fires during journal replay too, so a publisher created
	// before RecoverJournal holds the journal's tail in its ring. Covered
	// indirectly here by checking OnApply ordering under Apply.
	var epochs []uint64
	reg := live.NewRegistry(hourlyNetwork(t), live.Config{
		OnApply: func(e uint64, _ []transit.DelayOp, _ []transit.TouchedConn) { epochs = append(epochs, e) },
	})
	defer reg.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := reg.Apply([]transit.DelayOp{{Train: fmt.Sprintf("ab%02d", 8+i), Delay: 5}}); err != nil {
			t.Fatal(err)
		}
	}
	// A no-op batch must not publish.
	if _, _, err := reg.Apply([]transit.DelayOp{{Train: "no-such", Delay: 5}}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(epochs, []uint64{1, 2, 3}) {
		t.Fatalf("OnApply epochs %v, want [1 2 3]", epochs)
	}
}
