package catalog

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"transit"
	"transit/internal/faultfs"
	"transit/internal/live"
)

// Per-tenant delay feeds of the crash scenario, each batch with a distinct
// effect so every epoch has a distinguishable fingerprint.
var (
	aFeed = [][]transit.DelayOp{
		{{Train: "h08", Delay: 5}},
		{{Train: "h09", Cancel: true}},
		{{Train: "h10", Delay: 11}},
	}
	bFeed = [][]transit.DelayOp{
		{{Train: "h12", Delay: 9}},
	}
)

// catFingerprint probes hourly arrivals A→B through Plan — the behavioural
// signature of the buildNet test networks.
func catFingerprint(t testing.TB, n *transit.Network) [17]transit.Ticks {
	t.Helper()
	var fp [17]transit.Ticks
	for h := 6; h <= 22; h++ {
		res, err := n.Plan(context.Background(), transit.Request{
			Kind: transit.KindEarliestArrival, From: 0, To: 1, Depart: transit.Ticks(h * 60),
		})
		if err != nil {
			t.Fatal(err)
		}
		fp[h-6], _ = res.Arrival()
	}
	return fp
}

// catReference applies the first n batches of feed to a fresh startHour
// network — the ground truth a recovered tenant at epoch n must match.
func catReference(t testing.TB, startHour int, feed [][]transit.DelayOp, n uint64) *transit.Network {
	t.Helper()
	net := buildNet(t, startHour)
	for _, b := range feed[:n] {
		next, _, err := net.ApplyUpdates(b)
		if err != nil {
			t.Fatal(err)
		}
		net = next
	}
	return net
}

// memCatalog builds a two-tenant catalog directory inside a fresh Mem FS
// and returns it with the one-tenant memory budget. Setup I/O happens
// before any fault plan is armed, so it never counts as a crash point.
func memCatalog(t testing.TB) (*faultfs.Mem, int64) {
	t.Helper()
	m := faultfs.NewMem()
	var sizes [2]int64
	for i, tn := range []struct {
		name      string
		startHour int
	}{{"a", 6}, {"b", 7}} {
		var buf bytes.Buffer
		if err := buildNet(t, tn.startHour).WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.WriteFile(m, "cat/"+tn.name+".snap", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		sizes[i] = int64(buf.Len())
	}
	manifest := `{"networks":[{"name":"a","snapshot":"a.snap"},{"name":"b","snapshot":"b.snap"}]}`
	if err := faultfs.WriteFile(m, "cat/catalog.json", []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	big, small := sizes[0], sizes[1]
	if small > big {
		big, small = small, big
	}
	return m, big + small/2
}

func memCatConfig(m *faultfs.Mem, budget int64) Config {
	return Config{
		MemBytes:        budget,
		Live:            live.Config{Policy: live.ServeUnpruned, FS: m},
		PersistDir:      "persist",
		PersistInterval: time.Hour, // checkpoints only at eviction/Close: deterministic I/O
		Journal:         true,
	}
}

// runCatCrashScenario drives the two-tenant lifecycle under test: load a,
// ingest; load b (evicting a: flush + journal truncate); reload a (from
// its persist file); close (final checkpoints). It reports the highest
// epoch acked per tenant. Mid-stream I/O errors are tolerated like the
// real server tolerates them; a failed boot or load acks nothing further.
func runCatCrashScenario(t testing.TB, m *faultfs.Mem, budget int64) (ackedA, ackedB uint64) {
	ctx := context.Background()
	c, err := Open("cat", memCatConfig(m, budget))
	if err != nil {
		return 0, 0
	}
	defer c.Close()
	apply := func(h *Handle, b []transit.DelayOp, acked *uint64) {
		if snap, _, err := h.Registry().Apply(b); err == nil {
			*acked = snap.Epoch
		}
	}
	hA, err := c.Acquire(ctx, "a")
	if err != nil {
		return 0, 0
	}
	apply(hA, aFeed[0], &ackedA)
	apply(hA, aFeed[1], &ackedA)
	hA.Release()

	hB, err := c.Acquire(ctx, "b") // evicts a: final checkpoint + truncate
	if err != nil {
		return ackedA, 0
	}
	apply(hB, bFeed[0], &ackedB)
	hB.Release()

	hA2, err := c.Acquire(ctx, "a") // reload from persist file, evicts b
	if err != nil {
		return ackedA, ackedB
	}
	apply(hA2, aFeed[2], &ackedA)
	hA2.Release()
	return ackedA, ackedB
}

// verifyCatRecovery reboots the Mem, reopens the catalog cleanly and
// checks both tenants: epoch at least the last acked batch, never beyond
// the feed, and answers byte-identical to applying exactly that many
// batches to a fresh network.
func verifyCatRecovery(t *testing.T, step int, m *faultfs.Mem, budget int64, ackedA, ackedB uint64) {
	t.Helper()
	m.Reboot()
	c, err := Open("cat", memCatConfig(m, budget))
	if err != nil {
		t.Fatalf("step %d: clean reopen failed: %v", step, err)
	}
	defer c.Close()
	for _, tn := range []struct {
		name      string
		startHour int
		feed      [][]transit.DelayOp
		acked     uint64
	}{{"a", 6, aFeed, ackedA}, {"b", 7, bFeed, ackedB}} {
		h, err := c.Acquire(context.Background(), tn.name)
		if err != nil {
			t.Fatalf("step %d: acquire %s after reboot: %v", step, tn.name, err)
		}
		snap := h.Registry().Snapshot()
		if snap.Epoch < tn.acked {
			t.Errorf("step %d: tenant %s recovered epoch %d < acked %d", step, tn.name, snap.Epoch, tn.acked)
		}
		if snap.Epoch > uint64(len(tn.feed)) {
			t.Errorf("step %d: tenant %s recovered epoch %d beyond feed of %d", step, tn.name, snap.Epoch, len(tn.feed))
		} else if want := catFingerprint(t, catReference(t, tn.startHour, tn.feed, snap.Epoch)); catFingerprint(t, snap.Net) != want {
			t.Errorf("step %d: tenant %s at epoch %d does not match %d applied batches", step, tn.name, snap.Epoch, snap.Epoch)
		}
		h.Release()
	}
}

// TestCatalogCrashAtEveryIOStep extends the crash-safety property to the
// multi-tenant lifecycle: for a crash injected at every I/O step of a
// load→ingest→evict→reload→close cycle over two journaled tenants, a
// reopened catalog recovers each tenant at no less than its last acked
// epoch with byte-identical query answers.
func TestCatalogCrashAtEveryIOStep(t *testing.T) {
	clean, budget := memCatalog(t)
	clean.SetPlan(faultfs.Plan{}) // reset the step counter past the setup I/O
	a, b := runCatCrashScenario(t, clean, budget)
	if a != uint64(len(aFeed)) || b != uint64(len(bFeed)) {
		t.Fatalf("fault-free run acked a=%d b=%d, want %d/%d", a, b, len(aFeed), len(bFeed))
	}
	steps := clean.Steps()
	if steps < 20 {
		t.Fatalf("scenario has only %d I/O steps — harness not exercising the cycle", steps)
	}
	for k := 1; k <= steps; k++ {
		m, budget := memCatalog(t)
		m.SetPlan(faultfs.Plan{FailStep: k, Crash: true})
		ackedA, ackedB := runCatCrashScenario(t, m, budget)
		if !m.Crashed() {
			t.Fatalf("step %d: crash plan never fired", k)
		}
		verifyCatRecovery(t, k, m, budget, ackedA, ackedB)
	}
}

// TestEvictionRacesJournalAppend churns one tenant's delay feed against
// acquires of the other tenant that force evictions (journal truncate +
// close), under -race: appends only ever run on a pinned registry, so no
// interleaving may corrupt state — afterwards a reopened catalog must
// recover exactly the acked epochs.
func TestEvictionRacesJournalAppend(t *testing.T) {
	dir, budget := catalogDir(t)
	cfg := Config{
		MemBytes:        budget,
		Live:            live.Config{Policy: live.ServeUnpruned},
		PersistDir:      t.TempDir(),
		PersistInterval: time.Hour,
		Journal:         true,
	}
	c, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ackedA, ackedB uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			h, err := c.Acquire(ctx, "a")
			if err != nil {
				t.Errorf("acquire a: %v", err)
				return
			}
			if snap, _, err := h.Registry().Apply([]transit.DelayOp{{Train: "h08", Delay: 1}}); err != nil {
				t.Errorf("apply a: %v", err)
			} else if snap.Epoch <= ackedA {
				t.Errorf("epoch regressed: %d after %d", snap.Epoch, ackedA)
			} else {
				ackedA = snap.Epoch
			}
			h.Release()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			h, err := c.Acquire(ctx, "b")
			if err != nil {
				t.Errorf("acquire b: %v", err)
				return
			}
			if snap, _, err := h.Registry().Apply([]transit.DelayOp{{Train: fmt.Sprintf("h%02d", 7+i%16), Delay: 1}}); err != nil {
				t.Errorf("apply b: %v", err)
			} else {
				ackedB = snap.Epoch
			}
			h.Release()
		}
	}()
	wg.Wait()
	c.Close()

	c2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, tn := range []struct {
		name  string
		acked uint64
	}{{"a", ackedA}, {"b", ackedB}} {
		h := mustAcquire(t, c2, tn.name)
		if got := h.Registry().Snapshot().Epoch; got < tn.acked {
			t.Errorf("tenant %s recovered epoch %d < acked %d", tn.name, got, tn.acked)
		}
		h.Release()
	}
}
