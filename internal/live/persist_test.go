package live

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"transit"
)

// persistNetwork is a deterministic two-station network: trains "h" leave A
// hourly 06:00–22:00 and reach B 30 minutes later.
func persistNetwork(t testing.TB) *transit.Network {
	t.Helper()
	tb := transit.NewTimetableBuilder(0)
	a := tb.AddStation("A", 2)
	b := tb.AddStation("B", 2)
	for h := 6; h <= 22; h++ {
		if err := tb.AddTrain(fmt.Sprintf("h%02d", h), []transit.StationID{a, b},
			transit.Ticks(h*60), []transit.Ticks{30}, 0); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func arrivalAt0800(t *testing.T, n *transit.Network) transit.Ticks {
	t.Helper()
	return arrival(t, n, 0, 1, 8*60)
}

// TestPersistResume is the restart story end to end: apply delays, persist,
// load into a fresh registry, and resume at the same epoch with the same
// answers.
func TestPersistResume(t *testing.T) {
	reg := NewRegistry(persistNetwork(t), Config{Policy: ServeUnpruned})
	defer reg.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := reg.Apply([]transit.DelayOp{{Train: "h08", Delay: 5}}); err != nil {
			t.Fatal(err)
		}
	}
	// 15 minutes of accumulated delay: the 08:00 train arrives 08:45.
	if arr := arrivalAt0800(t, reg.Snapshot().Net); arr != 8*60+45 {
		t.Fatalf("pre-persist arrival %d, want %d", arr, 8*60+45)
	}

	var buf bytes.Buffer
	epoch, err := reg.Persist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 {
		t.Fatalf("persisted epoch %d, want 3", epoch)
	}

	n2, st, err := transit.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistryAt(n2, *st, Config{Policy: ServeUnpruned})
	defer reg2.Close()
	snap := reg2.Snapshot()
	if snap.Epoch != 3 {
		t.Fatalf("resumed epoch %d, want 3", snap.Epoch)
	}
	if arr := arrivalAt0800(t, snap.Net); arr != 8*60+45 {
		t.Fatalf("resumed arrival %d, want %d: delays lost", arr, 8*60+45)
	}
	// The epoch sequence continues, it does not restart.
	next, _, err := reg2.Apply([]transit.DelayOp{{Train: "h09", Delay: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 4 {
		t.Fatalf("post-resume epoch %d, want 4", next.Epoch)
	}
}

func TestPersistFileSkipsUnchangedEpochs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	reg := NewRegistry(persistNetwork(t), Config{Policy: ServeUnpruned})
	defer reg.Close()

	if _, wrote, err := reg.PersistFile(path); err != nil || !wrote {
		t.Fatalf("first persist: wrote=%v err=%v", wrote, err)
	}
	if _, wrote, err := reg.PersistFile(path); err != nil || wrote {
		t.Fatalf("unchanged persist: wrote=%v err=%v, want skip", wrote, err)
	}
	if _, _, err := reg.Apply([]transit.DelayOp{{Train: "h08", Delay: 5}}); err != nil {
		t.Fatal(err)
	}
	epoch, wrote, err := reg.PersistFile(path)
	if err != nil || !wrote || epoch != 1 {
		t.Fatalf("post-update persist: epoch=%d wrote=%v err=%v", epoch, wrote, err)
	}
	if m := reg.Metrics(); m.PersistsTotal != 2 || m.PersistErrors != 0 {
		t.Fatalf("metrics %+v, want 2 persists, 0 errors", m)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, st, err := transit.LoadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Fatalf("file epoch %d, want 1", st.Epoch)
	}
}

func TestPersistFileReportsErrors(t *testing.T) {
	reg := NewRegistry(persistNetwork(t), Config{Policy: ServeUnpruned})
	defer reg.Close()
	if _, _, err := reg.PersistFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x.snap")); err == nil {
		t.Fatal("unwritable path accepted")
	}
	if m := reg.Metrics(); m.PersistErrors != 1 {
		t.Fatalf("PersistErrors = %d, want 1", m.PersistErrors)
	}
}

// TestStartPersistFinalCheckpoint: Close performs one last persist so the
// final epoch survives even when no ticker fired.
func TestStartPersistFinalCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	reg := NewRegistry(persistNetwork(t), Config{Policy: ServeUnpruned})
	reg.StartPersist(path, time.Hour) // ticker never fires during the test
	if _, _, err := reg.Apply([]transit.DelayOp{{Train: "h08", Cancel: true}}); err != nil {
		t.Fatal(err)
	}
	reg.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no final checkpoint written: %v", err)
	}
	defer f.Close()
	n, st, err := transit.LoadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Fatalf("checkpoint epoch %d, want 1", st.Epoch)
	}
	// The cancelled 08:00 train stays cancelled: 08:00 travellers ride the
	// 09:00 departure.
	if arr := arrivalAt0800(t, n); arr != 9*60+30 {
		t.Fatalf("arrival %d, want %d (cancellation lost)", arr, 9*60+30)
	}
	// After Close, a second StartPersist is a no-op and must not panic.
	reg.StartPersist(path, time.Hour)
}
