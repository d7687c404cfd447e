package transit

import (
	"bytes"
	"testing"
	"time"
)

// sampleQueries compares earliest-arrival and profile answers of two
// networks over a grid of station pairs and departure times; they must be
// identical — the snapshot round-trip correctness bar.
func sampleQueries(t *testing.T, want, got *Network, label string) {
	t.Helper()
	if want.NumStations() != got.NumStations() {
		t.Fatalf("%s: station count %d vs %d", label, got.NumStations(), want.NumStations())
	}
	nS := want.NumStations()
	deps := []Ticks{0, 7 * 60, 12*60 + 30, 23 * 60}
	step := nS/7 + 1
	for from := 0; from < nS; from += step {
		for to := nS - 1; to >= 0; to -= step {
			src, dst := StationID(from), StationID(to)
			for _, dep := range deps {
				a1, err1 := want.EarliestArrival(src, dst, dep, Options{})
				a2, err2 := got.EarliestArrival(src, dst, dep, Options{})
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s: EarliestArrival(%d,%d,%d) errors diverge: %v vs %v", label, src, dst, dep, err1, err2)
				}
				if a1 != a2 {
					t.Fatalf("%s: EarliestArrival(%d,%d,%d) = %d, want %d", label, src, dst, dep, a2, a1)
				}
			}
			p1, _, err1 := want.Profile(src, dst, Options{})
			p2, _, err2 := got.Profile(src, dst, Options{})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: Profile(%d,%d) errors diverge: %v vs %v", label, src, dst, err1, err2)
			}
			if err1 != nil {
				continue
			}
			c1, c2 := p1.Connections(), p2.Connections()
			if len(c1) != len(c2) {
				t.Fatalf("%s: Profile(%d,%d) has %d connections, want %d", label, src, dst, len(c2), len(c1))
			}
			for i := range c1 {
				if c1[i] != c2[i] {
					t.Fatalf("%s: Profile(%d,%d) connection %d = %+v, want %+v", label, src, dst, i, c2[i], c1[i])
				}
			}
		}
	}
}

func TestSnapshotRoundTripQueries(t *testing.T) {
	n, err := Generate("oahu", 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	pre, _, err := n.Preprocess(TransferSelection{Fraction: 0.1}, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pre.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, st, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 0 {
		t.Errorf("epoch = %d, want 0", st.Epoch)
	}
	if !loaded.Preprocessed() {
		t.Fatal("loaded network lost its distance table")
	}
	sampleQueries(t, pre, loaded, "preprocessed")
}

func TestSnapshotRoundTripUnpreprocessed(t *testing.T) {
	n, err := Generate("losangeles", 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Preprocessed() {
		t.Fatal("unpreprocessed network gained a table")
	}
	sampleQueries(t, n, loaded, "unpreprocessed")
}

// TestSnapshotRoundTripPatched is the round-trip bar on a patched network:
// delays and cancellations applied via ApplyUpdates must survive
// persistence byte-exactly, including the live epoch.
func TestSnapshotRoundTripPatched(t *testing.T) {
	n, err := Generate("oahu", 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	patched, st1, err := n.ApplyUpdates([]DelayOp{
		{Routes: []int{0}, Delay: 17},
		{Routes: []int{1}, Cancel: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st1.ConnsRetimed == 0 || st1.ConnsCancelled == 0 {
		t.Fatalf("update did nothing: %+v", st1)
	}
	created := time.Unix(1700000000, 0).UTC()
	var buf bytes.Buffer
	if err := patched.WriteSnapshotState(&buf, SnapshotState{Epoch: 3, Created: created}); err != nil {
		t.Fatal(err)
	}
	loaded, st, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 3 || !st.Created.Equal(created) {
		t.Errorf("state = %+v, want epoch 3 at %v", st, created)
	}
	sampleQueries(t, patched, loaded, "patched")

	// Cancellation survives: every cancelled connection is still cancelled.
	wantConns, gotConns := patched.Connections(), loaded.Connections()
	if len(wantConns) != len(gotConns) {
		t.Fatalf("connection count %d, want %d", len(gotConns), len(wantConns))
	}
	cancelled := 0
	for i := range wantConns {
		if wantConns[i].Cancelled != gotConns[i].Cancelled {
			t.Fatalf("connection %d cancelled = %v, want %v", i, gotConns[i].Cancelled, wantConns[i].Cancelled)
		}
		if gotConns[i].Cancelled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no cancelled connections survived the round trip")
	}

	// A network restored at epoch > 0 is patched, like its source.
	if !loaded.patched {
		t.Fatal("snapshot-restored patched network lost the patched flag")
	}
	// The flag follows the derivation chain: ApplyDelays sets it when it
	// shifts something, and a no-op filter neither sets nor launders it.
	for _, tc := range []struct {
		from *Network
		all  bool
		want bool
	}{{n, true, true}, {n, false, false}, {patched, false, true}} {
		d, _, err := tc.from.ApplyDelays(5, func(ConnectionInfo) bool { return tc.all })
		if err != nil {
			t.Fatal(err)
		}
		if d.patched != tc.want {
			t.Fatalf("ApplyDelays(all=%v) on patched=%v network: patched = %v, want %v",
				tc.all, tc.from.patched, d.patched, tc.want)
		}
	}

	// Patchedness survives even a WriteSnapshot without live provenance
	// (epoch 0): the patched flag travels in the live-state section.
	var noState bytes.Buffer
	if err := patched.WriteSnapshot(&noState); err != nil {
		t.Fatal(err)
	}
	loaded0, st0, err := LoadSnapshot(&noState)
	if err != nil {
		t.Fatal(err)
	}
	if st0.Epoch != 0 {
		t.Fatalf("epoch = %d, want 0", st0.Epoch)
	}
	if !loaded0.patched {
		t.Fatal("epoch-0 snapshot of a patched network lost the patched flag")
	}
}

// TestSnapshotBootFasterThanPreprocessing measures the tentpole's point:
// booting from a snapshot must beat rebuilding with preprocessing by a wide
// margin. The CI-safe assertion is 3x; the README reports the (much larger)
// ratio on the benchmark network.
func TestSnapshotBootFasterThanPreprocessing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	n, err := Generate("oahu", 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A tenth of the stations: the radix-queue search halved the cost of a
	// table row, and 5 % left the 3x bar with no headroom (ratio 6x → 3.7x).
	sel := TransferSelection{Fraction: 0.10}

	rebuildStart := time.Now()
	pre, _, err := n.Preprocess(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rebuild := time.Since(rebuildStart)

	var buf bytes.Buffer
	if err := pre.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loadStart := time.Now()
	loaded, _, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	load := time.Since(loadStart)
	if !loaded.Preprocessed() {
		t.Fatal("snapshot lost the table")
	}
	t.Logf("preprocess: %v, snapshot load: %v (%.0fx)", rebuild, load, float64(rebuild)/float64(load))
	if load*3 > rebuild {
		t.Errorf("snapshot load %v not at least 3x faster than preprocessing %v", load, rebuild)
	}
}
