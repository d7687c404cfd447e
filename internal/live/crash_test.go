package live

import (
	"errors"
	"io/fs"
	"os"
	"testing"

	"transit"
	"transit/internal/faultfs"
)

// crashBatches are the delay batches of the crash scenario — each with a
// distinct effect so every epoch has a distinguishable query fingerprint.
var crashBatches = [][]transit.DelayOp{
	{{Train: "h08", Delay: 5}},
	{{Train: "h09", Delay: 7}},
	{{Train: "h10", Cancel: true}},
	{{Train: "h11", Delay: 3}},
}

// fingerprint is the full behavioural signature of the two-station test
// network: the earliest arrival at B for a departure from A at every hour.
func fingerprint(t testing.TB, n *transit.Network) [17]transit.Ticks {
	t.Helper()
	var fp [17]transit.Ticks
	for h := 6; h <= 22; h++ {
		fp[h-6] = arrival(t, n, 0, 1, transit.Ticks(h*60))
	}
	return fp
}

// referenceNet applies the first n crash batches to a fresh network — the
// ground truth a recovered registry at epoch n must match exactly.
func referenceNet(t testing.TB, n int) *transit.Network {
	t.Helper()
	net := persistNetwork(t)
	for _, b := range crashBatches[:n] {
		next, _, err := net.ApplyUpdates(b)
		if err != nil {
			t.Fatal(err)
		}
		net = next
	}
	return net
}

// bootCrashReg is the boot path of the crash scenario: clean orphaned
// temps, load the persist file if present (it must never be corrupt —
// rename is atomic), seed the registry, recover the journal. A nil return
// means boot I/O failed (only possible while a crash plan is live).
func bootCrashReg(t testing.TB, m *faultfs.Mem) *Registry {
	t.Helper()
	const snapPath, walPath = "state.snap", "state.wal"
	if _, err := CleanupTemps(m, snapPath); err != nil {
		return nil
	}
	var reg *Registry
	cfg := Config{Policy: ServeUnpruned, FS: m}
	f, err := m.OpenFile(snapPath, os.O_RDONLY, 0)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		reg = NewRegistry(persistNetwork(t), cfg)
	case err != nil:
		return nil
	default:
		net, st, lerr := transit.LoadSnapshot(f)
		f.Close()
		if lerr != nil {
			t.Fatalf("persisted snapshot is corrupt: %v", lerr)
		}
		reg = NewRegistryAt(net, *st, cfg)
	}
	if _, err := reg.RecoverJournal(walPath); err != nil {
		// Journal unusable: a real server refuses to start rather than
		// serve without durability. Only reachable under a crash plan.
		return nil
	}
	return reg
}

// runCrashScenario drives one full apply→journal→persist→truncate cycle:
// boot, apply the batches with a checkpoint in the middle and one at the
// end, close. It reports the highest epoch acked to the (simulated) feed
// client; errors are tolerated mid-stream — exactly like the real server,
// which keeps serving when durability I/O fails — but a failed boot acks
// nothing.
func runCrashScenario(t testing.TB, m *faultfs.Mem) (acked uint64) {
	const snapPath = "state.snap"
	reg := bootCrashReg(t, m)
	if reg == nil {
		return 0
	}
	for i, b := range crashBatches {
		if snap, _, err := reg.Apply(b); err == nil {
			acked = snap.Epoch
		}
		if i == 1 {
			reg.PersistFile(snapPath) // mid-stream checkpoint + journal truncate
		}
	}
	reg.PersistFile(snapPath) // final checkpoint
	reg.Close()
	return acked
}

// TestCrashAtEveryIOStep is the crash-safety property test: the scenario
// is run once fault-free to count its I/O steps, then once per step k with
// a simulated crash at step k. After every crash the rebooted registry
// must recover an epoch ≥ the last acked batch (at-least-once: a journaled
// batch whose ack was lost may replay) with query answers byte-identical
// to applying exactly that many batches to a fresh network — and ingestion
// must continue cleanly to the end of the feed.
func TestCrashAtEveryIOStep(t *testing.T) {
	clean := faultfs.NewMem()
	if acked := runCrashScenario(t, clean); acked != uint64(len(crashBatches)) {
		t.Fatalf("fault-free run acked epoch %d, want %d", acked, len(crashBatches))
	}
	steps := clean.Steps()
	if steps < 10 {
		t.Fatalf("scenario has only %d I/O steps — harness not exercising the cycle", steps)
	}

	for k := 1; k <= steps; k++ {
		m := faultfs.NewMem()
		m.SetPlan(faultfs.Plan{FailStep: k, Crash: true})
		acked := runCrashScenario(t, m)
		if !m.Crashed() {
			t.Fatalf("step %d: crash plan never fired", k)
		}
		m.Reboot()

		reg := bootCrashReg(t, m)
		if reg == nil {
			t.Fatalf("step %d: clean reboot failed", k)
		}
		got := reg.Snapshot()
		if got.Epoch < acked {
			t.Errorf("step %d: recovered epoch %d < last acked %d — acked batch lost", k, got.Epoch, acked)
		}
		if got.Epoch > uint64(len(crashBatches)) {
			t.Errorf("step %d: recovered epoch %d beyond the %d batches ever sent", k, got.Epoch, len(crashBatches))
		}
		if want := fingerprint(t, referenceNet(t, int(got.Epoch))); fingerprint(t, got.Net) != want {
			t.Errorf("step %d: recovered network at epoch %d does not match %d applied batches", k, got.Epoch, got.Epoch)
		}
		// The feed resumes: applying the not-yet-recovered tail lands the
		// registry exactly at the fault-free end state.
		for _, b := range crashBatches[got.Epoch:] {
			if _, _, err := reg.Apply(b); err != nil {
				t.Fatalf("step %d: post-recovery apply: %v", k, err)
			}
		}
		final := reg.Snapshot()
		if final.Epoch != uint64(len(crashBatches)) {
			t.Errorf("step %d: post-recovery epoch %d, want %d", k, final.Epoch, len(crashBatches))
		}
		if want := fingerprint(t, referenceNet(t, len(crashBatches))); fingerprint(t, final.Net) != want {
			t.Errorf("step %d: post-recovery answers diverge from the fault-free run", k)
		}
		reg.Close()
	}
}

// TestJournalFailureKeepsServing pins the degraded mode: when the journal
// cannot make a batch durable, Apply rejects the batch with ErrJournal,
// the epoch does not advance, queries keep working — and ingestion resumes
// once the fault clears.
func TestJournalFailureKeepsServing(t *testing.T) {
	m := faultfs.NewMem()
	reg := bootCrashReg(t, m)
	if reg == nil {
		t.Fatal("boot failed")
	}
	defer reg.Close()
	if _, _, err := reg.Apply(crashBatches[0]); err != nil {
		t.Fatal(err)
	}
	m.SetPlan(faultfs.Plan{FailStep: 1, Err: errors.New("disk full")})
	_, _, err := reg.Apply(crashBatches[1])
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("err = %v, want ErrJournal", err)
	}
	snap := reg.Snapshot()
	if snap.Epoch != 1 {
		t.Fatalf("epoch advanced to %d despite journal failure", snap.Epoch)
	}
	if fingerprint(t, snap.Net) != fingerprint(t, referenceNet(t, 1)) {
		t.Fatal("serving state changed despite rejected batch")
	}
	m.SetPlan(faultfs.Plan{})
	next, _, err := reg.Apply(crashBatches[1]) // client retry succeeds
	if err != nil || next.Epoch != 2 {
		t.Fatalf("retry after fault cleared: epoch %d, err %v", next.Epoch, err)
	}
	mtr := reg.Metrics()
	if mtr.WalAppendErrors != 1 || mtr.WalAppends != 2 {
		t.Fatalf("wal counters = %d appends / %d errors, want 2 / 1", mtr.WalAppends, mtr.WalAppendErrors)
	}
}

// TestBootCleansOrphanTemp is the regression test for the orphaned
// *.snap.tmp* left by a crash between the temp write and the rename: the
// boot path must remove it (real disk).
func TestBootCleansOrphanTemp(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/state.live.snap"
	orphan := path + ".tmp4242_1"
	if err := os.WriteFile(orphan, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := CleanupTemps(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != orphan {
		t.Fatalf("removed %v, want [%s]", removed, orphan)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("orphan still on disk: %v", err)
	}
	// And it must not touch the persist file itself or unrelated names.
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if removed, _ := CleanupTemps(nil, path); len(removed) != 0 {
		t.Fatalf("second cleanup removed %v, want nothing", removed)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("persist file removed by cleanup: %v", err)
	}
}
