package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"transit"
	"transit/internal/dtable"
	"transit/internal/snapshot"
)

// randomBatch draws a small delay batch: mostly train-level delays, now and
// then a windowed route delay, negative delays and cancellations.
func randomBatch(rng *rand.Rand, n *transit.Network) []transit.DelayOp {
	tt := n.Timetable()
	ops := make([]transit.DelayOp, 0, 4)
	for i := 0; i < 1+rng.Intn(4); i++ {
		var op transit.DelayOp
		if rng.Intn(5) == 0 {
			op.Routes = []int{rng.Intn(len(tt.Routes()))}
			op.WindowFrom = transit.Ticks(rng.Intn(1200))
			op.WindowTo = op.WindowFrom + transit.Ticks(30+rng.Intn(120))
		} else {
			op.Train = tt.Trains[rng.Intn(tt.NumTrains())].Name
		}
		switch rng.Intn(8) {
		case 0:
			op.Cancel = true
		case 1:
			op.Delay = -transit.Ticks(1 + rng.Intn(15))
		default:
			op.Delay = transit.Ticks(1 + rng.Intn(45))
		}
		ops = append(ops, op)
	}
	return ops
}

// tableSection returns the distance-table section a snapshot of n carries.
func tableSection(t *testing.T, n *transit.Network) []byte {
	t.Helper()
	var img bytes.Buffer
	if err := n.WriteSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	d, err := snapshot.Read(&img)
	if err != nil {
		t.Fatal(err)
	}
	if d.Table == nil {
		t.Fatal("snapshot carries no distance table")
	}
	var sec bytes.Buffer
	if err := dtable.WriteSection(&sec, d.Table, d.TT.NumStations()); err != nil {
		t.Fatal(err)
	}
	return sec.Bytes()
}

// TestAsyncRebuildPropertyRandomBatches sends random batches through an
// async registry faster than its rebuilds land, lets it settle, and checks
// that it serves the newest epoch's schedule with a table byte-for-byte
// equal to what Preprocess builds for it: the roll-forward never swaps in a
// stale network or table.
func TestAsyncRebuildPropertyRandomBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds tables repeatedly")
	}
	sel := transit.TransferSelection{Fraction: 0.2}
	for _, fam := range []struct {
		name  string
		scale float64
	}{{"oahu", 0.12}, {"losangeles", 0.06}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s-%d", fam.name, seed), func(t *testing.T) {
				net, err := transit.Generate(fam.name, fam.scale, seed)
				if err != nil {
					t.Fatal(err)
				}
				pre, _, err := net.Preprocess(sel, transit.Options{})
				if err != nil {
					t.Fatal(err)
				}
				r := NewRegistry(pre, Config{Policy: ReprocessAsync, Selection: sel})
				defer r.Close()
				rng := rand.New(rand.NewSource(seed * 101))
				var last *Snapshot
				for i := 0; i < 8; i++ {
					snap, _, err := r.Apply(randomBatch(rng, r.Snapshot().Net))
					if err != nil {
						t.Fatal(err)
					}
					last = snap
				}
				epoch := last.Epoch
				if epoch == 0 {
					t.Fatal("vacuous run: no batch changed the network")
				}
				deadline := time.Now().Add(30 * time.Second)
				for !r.Snapshot().Preprocessed() {
					if time.Now().After(deadline) {
						t.Fatal("async rebuild never landed")
					}
					time.Sleep(5 * time.Millisecond)
				}
				served := r.Snapshot()
				if served.Epoch != epoch {
					t.Fatalf("table landed under epoch %d, want %d", served.Epoch, epoch)
				}
				if !slices.Equal(served.Net.Connections(), last.Net.Connections()) {
					t.Fatal("served network is not the newest epoch's schedule")
				}
				want, _, err := served.Net.Preprocess(sel, transit.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(tableSection(t, served.Net), tableSection(t, want)) {
					t.Fatal("served table differs from a fresh Preprocess of the served network")
				}
			})
		}
	}
}
