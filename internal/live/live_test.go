package live

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"transit"
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

func TestApplyBumpsEpochAndSwaps(t *testing.T) {
	r := NewRegistry(hourlyNetwork(t), Config{})
	before := r.Snapshot()
	if before.Epoch != 0 {
		t.Fatalf("initial epoch %d", before.Epoch)
	}
	if got := arrival(t, before.Net, 0, 1, 480); got != 510 {
		t.Fatalf("baseline arrival %d, want 510", got)
	}
	snap, st, err := r.Apply([]transit.DelayOp{{Train: "ab08", Delay: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 || st.TrainsDelayed != 1 || st.ConnsRetimed != 1 {
		t.Fatalf("snap epoch %d stats %+v", snap.Epoch, st)
	}
	if got := arrival(t, snap.Net, 0, 1, 480); got != 530 {
		t.Fatalf("post-delay arrival %d, want 530", got)
	}
	// The handed-out pre-update snapshot still answers with the old times.
	if got := arrival(t, before.Net, 0, 1, 480); got != 510 {
		t.Fatalf("old snapshot changed: %d", got)
	}
	if r.Snapshot() != snap {
		t.Fatal("registry not serving the new snapshot")
	}
}

func TestNoOpBatchKeepsSnapshot(t *testing.T) {
	r := NewRegistry(hourlyNetwork(t), Config{})
	before := r.Snapshot()
	snap, st, err := r.Apply([]transit.DelayOp{{Train: "no-such-train", Delay: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if snap != before || snap.Epoch != 0 || st.ConnsRetimed != 0 {
		t.Fatalf("no-op batch swapped: epoch %d stats %+v", snap.Epoch, st)
	}
}

func TestApplyErrorLeavesRegistryIntact(t *testing.T) {
	r := NewRegistry(hourlyNetwork(t), Config{})
	before := r.Snapshot()
	if _, _, err := r.Apply([]transit.DelayOp{{Routes: []int{99}, Delay: 5}}); err == nil {
		t.Fatal("bad route accepted")
	}
	if r.Snapshot() != before {
		t.Fatal("failed apply changed the snapshot")
	}
}

func TestSyncReprocess(t *testing.T) {
	n, _, err := hourlyNetwork(t).Preprocess(transit.TransferSelection{Fraction: 0.5}, transit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(n, Config{Policy: ReprocessSync, Selection: transit.TransferSelection{Fraction: 0.5}})
	snap, _, err := r.Apply([]transit.DelayOp{{Train: "ab08", Delay: 15}})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Preprocessed() {
		t.Fatal("sync policy served an unpruned snapshot")
	}
	if got := arrival(t, snap.Net, 0, 1, 480); got != 525 {
		t.Fatalf("post-delay arrival %d, want 525", got)
	}
	if m := r.Metrics(); m.ReprocessedTotal != 1 || m.Epoch != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestAsyncReprocess(t *testing.T) {
	n, _, err := hourlyNetwork(t).Preprocess(transit.TransferSelection{Fraction: 0.5}, transit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(n, Config{Policy: ReprocessAsync, Selection: transit.TransferSelection{Fraction: 0.5}})
	snap, _, err := r.Apply([]transit.DelayOp{{Train: "ab08", Delay: 15}})
	if err != nil {
		t.Fatal(err)
	}
	// The swap is immediate (unpruned serves first); the table follows.
	if got := arrival(t, snap.Net, 0, 1, 480); got != 525 {
		t.Fatalf("post-delay arrival %d, want 525", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !r.Snapshot().Preprocessed() {
		if time.Now().After(deadline) {
			t.Fatal("async re-preprocess never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cur := r.Snapshot()
	if cur.Epoch != 1 {
		t.Fatalf("preprocessed swap changed the epoch: %d", cur.Epoch)
	}
	if got := arrival(t, cur.Net, 0, 1, 480); got != 525 {
		t.Fatalf("preprocessed snapshot answers differently: %d", got)
	}
	r.Close()
}

// TestAsyncReprocessCoalesces feeds updates faster than rebuilds can land:
// at most one rebuild goroutine may be alive, rolling forward to the newest
// epoch, and the registry must converge to a preprocessed final snapshot.
func TestAsyncReprocessCoalesces(t *testing.T) {
	n, _, err := hourlyNetwork(t).Preprocess(transit.TransferSelection{Fraction: 0.5}, transit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(n, Config{Policy: ReprocessAsync, Selection: transit.TransferSelection{Fraction: 0.5}})
	const batches = 12
	for i := 0; i < batches; i++ {
		if _, _, err := r.Apply([]transit.DelayOp{{Train: fmt.Sprintf("ab%02d", 6+i), Delay: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := r.Snapshot()
		if cur.Epoch == batches && cur.Preprocessed() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: epoch %d preprocessed %v", cur.Epoch, cur.Preprocessed())
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Close() // must not hang on piled-up rebuilds
	if m := r.Metrics(); m.ReprocessedTotal == 0 || m.ReprocessedTotal > batches {
		t.Fatalf("reprocessed %d times for %d updates, want coalescing in [1,%d]", m.ReprocessedTotal, batches, batches)
	}
}

func TestClosedRegistryRejectsUpdates(t *testing.T) {
	r := NewRegistry(hourlyNetwork(t), Config{})
	r.Close()
	if _, _, err := r.Apply([]transit.DelayOp{{Train: "ab08", Delay: 5}}); err == nil {
		t.Fatal("closed registry accepted an update")
	}
	if r.Snapshot() == nil {
		t.Fatal("snapshots must stay valid after Close")
	}
}

// TestConcurrentReadersAndWriter exercises the atomic-swap consistency
// contract under -race: readers hammer earliest-arrival queries on whatever snapshot
// is current while a writer applies delay batches and cancellations.
func TestConcurrentReadersAndWriter(t *testing.T) {
	r := NewRegistry(hourlyNetwork(t), Config{})
	const (
		readers = 8
		queries = 200
		batches = 30
	)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				snap := r.Snapshot()
				at := transit.Ticks(360 + (seed*queries+q)%720)
				res, err := snap.Net.Plan(context.Background(), transit.Request{Kind: transit.KindEarliestArrival, From: 0, To: 2, Depart: at})
				if err != nil {
					t.Error(err)
					return
				}
				arr, _ := res.Arrival()
				if !arr.IsInf() && arr < at {
					t.Errorf("arrival %d before departure %d", arr, at)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			op := transit.DelayOp{Train: fmt.Sprintf("ab%02d", 6+i%17), Delay: 1}
			if i%7 == 3 {
				op = transit.DelayOp{Train: fmt.Sprintf("bc%02d", 6+i%17), Cancel: true}
			}
			if _, _, err := r.Apply([]transit.DelayOp{op}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if epoch := r.Snapshot().Epoch; epoch != batches {
		t.Fatalf("final epoch %d, want %d", epoch, batches)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"off": ServeUnpruned, "async": ReprocessAsync, "sync": ReprocessSync} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("Policy(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestSyncRepair: with a full transfer table (every station selected), the
// sync policy restores the table on every batch — by a rebuild of the
// patched network — so each batch is served preprocessed and correct.
func TestSyncRepair(t *testing.T) {
	sel := transit.TransferSelection{Fraction: 1}
	n, _, err := hourlyNetwork(t).Preprocess(sel, transit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(n, Config{Policy: ReprocessSync, Selection: sel})
	snap, _, err := r.Apply([]transit.DelayOp{{Train: "ab08", Delay: 15}})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Preprocessed() {
		t.Fatal("sync repair served an unpruned snapshot")
	}
	if got := arrival(t, snap.Net, 0, 1, 480); got != 525 {
		t.Fatalf("post-delay arrival %d, want 525", got)
	}
	snap, _, err = r.Apply([]transit.DelayOp{{Train: "ab09", Delay: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Preprocessed() {
		t.Fatal("sync repair served an unpruned snapshot")
	}
	if got := arrival(t, snap.Net, 0, 1, 540); got != 575 {
		t.Fatalf("second-delay arrival %d, want 575", got)
	}
	m := r.Metrics()
	if m.ReprocessedTotal != 2 || m.ReprocessErrors != 0 {
		t.Fatalf("want 2 rebuilds, no errors: %+v", m)
	}
	if m.LastReprocess <= 0 || m.RepairDuration < m.LastReprocess {
		t.Fatalf("rebuild timings empty: %+v", m)
	}
}

// TestAsyncRepair: the async policy restores the full table in the
// background; the rebuilt table lands under the same epoch, exactly once.
func TestAsyncRepair(t *testing.T) {
	sel := transit.TransferSelection{Fraction: 1}
	n, _, err := hourlyNetwork(t).Preprocess(sel, transit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(n, Config{Policy: ReprocessAsync, Selection: sel})
	if _, _, err := r.Apply([]transit.DelayOp{{Train: "ab08", Delay: 15}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !r.Snapshot().Preprocessed() {
		if time.Now().After(deadline) {
			t.Fatal("async repair never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cur := r.Snapshot()
	if cur.Epoch != 1 {
		t.Fatalf("repaired swap changed the epoch: %d", cur.Epoch)
	}
	if got := arrival(t, cur.Net, 0, 1, 480); got != 525 {
		t.Fatalf("repaired snapshot answers differently: %d", got)
	}
	r.Close()
	if m := r.Metrics(); m.ReprocessedTotal != 1 || m.ReprocessErrors != 0 {
		t.Fatalf("want exactly one async rebuild: %+v", m)
	}
}
