package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transit"
	"transit/internal/live"
)

// TestSnapshotBoot covers the -snapshot path: a preprocessed network written
// by tpgen -o (same API) boots a server that answers queries with its
// embedded distance table and serves delay updates on top.
func TestSnapshotBoot(t *testing.T) {
	n, err := transit.Generate("oahu", 0.06, 3)
	if err != nil {
		t.Fatal(err)
	}
	pre, _, err := n.Preprocess(transit.TransferSelection{Fraction: 0.1}, transit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, state, err := loadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Preprocessed() {
		t.Fatal("snapshot boot lost the distance table")
	}
	if state.Epoch != 0 {
		t.Fatalf("fresh snapshot epoch %d, want 0", state.Epoch)
	}

	reg := live.NewRegistryAt(loaded, state, live.Config{Policy: live.ServeUnpruned})
	defer reg.Close()
	s := newServer(reg, 1)
	mux := newMux(s)

	rec := get(t, mux, "/v1/arrival?from=0&to=5&depart=08:15")
	if rec.Code != http.StatusOK {
		t.Fatalf("arrival status %d: %s", rec.Code, rec.Body.String())
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["reachable"] != true {
		t.Fatalf("arrival response: %v", out)
	}
	// The snapshot-booted server accepts delay batches like any other.
	rec = post(t, mux, "/delays", `{"ops":[{"route":0,"delay_min":5}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("delays status %d: %s", rec.Code, rec.Body.String())
	}
	rec = get(t, mux, "/metrics")
	if !strings.Contains(rec.Body.String(), "tpserver_snapshot_epoch 1") {
		t.Fatalf("metrics missing epoch bump:\n%s", rec.Body.String())
	}

	// Corrupt and foreign files fail with a descriptive error, not a panic.
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSnapshotFile(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("corrupt snapshot: got %v, want a bad-magic error", err)
	}
	if _, _, err := loadSnapshotFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("missing snapshot file accepted")
	}
}

// TestPersistedStateWinsOverSnapshot mirrors main()'s startup precedence: a
// state file persisted at a later epoch is preferred over the base snapshot.
func TestPersistedStateWinsOverSnapshot(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "net.snap")
	state := filepath.Join(dir, "state.snap")

	n := hourlyNetwork(t)
	writeSnap := func(path string, net *transit.Network, st transit.SnapshotState) {
		t.Helper()
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.WriteSnapshotState(f, st); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeSnap(base, n, transit.SnapshotState{})

	// Simulate a prior server run: two delay batches, then a persist.
	reg := live.NewRegistry(n, live.Config{Policy: live.ServeUnpruned})
	for i := 0; i < 2; i++ {
		if _, _, err := reg.Apply([]transit.DelayOp{{Train: "h08", Delay: 10}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := reg.PersistFile(state); err != nil {
		t.Fatal(err)
	}
	reg.Close()

	if !fileExists(state) || !fileExists(base) {
		t.Fatal("test files missing")
	}
	if fileExists(filepath.Join(dir, "nope.snap")) {
		t.Fatal("fileExists on a missing file")
	}

	resumed, st, err := loadSnapshotFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 {
		t.Fatalf("resumed epoch %d, want 2", st.Epoch)
	}
	reg2 := live.NewRegistryAt(resumed, st, live.Config{Policy: live.ServeUnpruned})
	defer reg2.Close()
	mux := newMux(newServer(reg2, 1))
	// 20 minutes of accumulated delay: 08:00 → 08:50 instead of 08:30.
	if got := arrivalAt(t, mux, 0, 1, "08:00"); got != "08:50" {
		t.Fatalf("resumed arrival %s, want 08:50", got)
	}
}
