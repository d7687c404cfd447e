package transit

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"transit/internal/core"
	"transit/internal/dtable"
	"transit/internal/snapshot"
	"transit/internal/stationgraph"
	"transit/internal/timetable"
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
	ctx := context.Background()
	deps := []Ticks{0, 7 * 60, 12*60 + 30, 23 * 60}
	step := nS/7 + 1
	for from := 0; from < nS; from += step {
		for to := nS - 1; to >= 0; to -= step {
			src, dst := StationID(from), StationID(to)
			for _, dep := range deps {
				req := Request{Kind: KindEarliestArrival, From: src, To: dst, Depart: dep}
				r1, err1 := want.Plan(ctx, req)
				r2, err2 := got.Plan(ctx, req)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s: EarliestArrival(%d,%d,%d) errors diverge: %v vs %v", label, src, dst, dep, err1, err2)
				}
				if err1 == nil && r1.arrival != r2.arrival {
					t.Fatalf("%s: EarliestArrival(%d,%d,%d) = %d, want %d", label, src, dst, dep, r2.arrival, r1.arrival)
				}
			}
			req := Request{Kind: KindProfile, From: src, To: dst}
			r1, err1 := want.Plan(ctx, req)
			r2, err2 := got.Plan(ctx, req)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: Profile(%d,%d) errors diverge: %v vs %v", label, src, dst, err1, err2)
			}
			if err1 != nil {
				continue
			}
			c1, c2 := r1.profile.Connections(), r2.profile.Connections()
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
	// The flag follows the derivation chain: a batch that retimes something
	// sets it, and a batch that matches no train neither sets nor launders it.
	for _, tc := range []struct {
		from  *Network
		train string
		want  bool
	}{{n, "", true}, {n, "ghost", false}, {patched, "ghost", true}} {
		d, _, err := tc.from.ApplyUpdates([]DelayOp{{Train: tc.train, Delay: 5}})
		if err != nil {
			t.Fatal(err)
		}
		if d.patched != tc.want {
			t.Fatalf("ApplyUpdates(train=%q) on patched=%v network: patched = %v, want %v",
				tc.train, tc.from.patched, d.patched, tc.want)
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

// TestSnapshotBootFasterThanPreprocessing checks what makes booting from a
// snapshot cheaper than preprocessing: LoadSnapshot runs no search — every
// table row's search checks a workspace out of the core pool, and the load
// checks out none — and still yields the table Preprocess built, row for
// row. The wall-clock ratio is logged; only load < preprocess is asserted,
// because any fixed ratio shrinks with every speed-up of a table row (a 3x
// bar read 2.2x under parallel package load).
func TestSnapshotBootFasterThanPreprocessing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	n, err := Generate("oahu", 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	sel := TransferSelection{Fraction: 0.20}

	built, _ := core.PoolStats()
	rebuildStart := time.Now()
	pre, _, err := n.Preprocess(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rebuild := time.Since(rebuildStart)
	if gets, _ := core.PoolStats(); gets == built {
		t.Fatal("Preprocess checked out no search workspace: the pool cannot tell a search ran")
	}

	var buf bytes.Buffer
	if err := pre.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	gets, _ := core.PoolStats()
	loadStart := time.Now()
	loaded, _, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	load := time.Since(loadStart)
	if after, _ := core.PoolStats(); after != gets {
		t.Errorf("LoadSnapshot checked out %d search workspaces; booting must run no search", after-gets)
	}
	if !loaded.Preprocessed() {
		t.Fatal("snapshot lost the table")
	}
	stations := loaded.table.Stations()
	if !slices.Equal(stations, pre.table.Stations()) {
		t.Fatalf("transfer set %v, Preprocess built %v", stations, pre.table.Stations())
	}
	for _, from := range stations {
		for _, to := range stations {
			got, _ := loaded.table.Profile(from, to)
			want, _ := pre.table.Profile(from, to)
			if !slices.Equal(got.Points(), want.Points()) {
				t.Fatalf("row %d→%d: %v, Preprocess built %v", from, to, got.Points(), want.Points())
			}
		}
	}
	t.Logf("preprocess: %v, snapshot load: %v (%.1fx)", rebuild, load, float64(rebuild)/float64(load))
	if load >= rebuild {
		t.Errorf("snapshot load %v not faster than preprocessing %v", load, rebuild)
	}
}

// snapshotSections splits a snapshot container into its section payloads,
// in section-table order.
func snapshotSections(t *testing.T, img []byte) (ids []uint32, payloads map[uint32][]byte) {
	t.Helper()
	le := binary.LittleEndian
	p := img[len(snapshot.Magic)+4:] // magic, version
	n := int(le.Uint32(p))
	table, body := p[4:4+16*n], p[4+16*n:]
	payloads = make(map[uint32][]byte, n)
	for i := 0; i < n; i++ {
		id, length := le.Uint32(table[16*i:]), le.Uint64(table[16*i+8:])
		ids = append(ids, id)
		payloads[id], body = body[:length], body[length:]
	}
	if len(body) != 0 {
		t.Fatalf("%d bytes after the last section", len(body))
	}
	return ids, payloads
}

// TestLoadSnapshotWithRetiredProvenanceSection loads a snapshot written
// before PR 25, which still carries the table's repair provenance in the
// now-retired section 5. The fixture was written at commit 00f3f0e by
//
//	go run ./cmd/tpgen -family oahu -scale 0.05 -preprocess 0.10 -o testdata/table-provenance.snap
func TestLoadSnapshotWithRetiredProvenanceSection(t *testing.T) {
	img, err := os.ReadFile("testdata/table-provenance.snap")
	if err != nil {
		t.Fatal(err)
	}
	ids, old := snapshotSections(t, img)
	if !slices.Equal(ids, []uint32{1, 2, 3, 5, 4}) {
		t.Fatalf("fixture sections %v, want the parent's 1, 2, 3, 5, 4", ids)
	}
	loaded, _, err := LoadSnapshot(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Preprocessed() {
		t.Fatal("fixture lost its distance table")
	}

	// The table section re-serialises byte for byte.
	var sec bytes.Buffer
	if err := dtable.WriteSection(&sec, loaded.table, loaded.NumStations()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sec.Bytes(), old[snapshot.SecDistanceTable]) {
		t.Fatal("distance-table section does not re-serialise byte-identically")
	}

	// Every row is what a fresh Preprocess of the same timetable builds.
	fresh, _, err := NewNetwork(loaded.Timetable()).Preprocess(TransferSelection{Fraction: 0.10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stations := loaded.table.Stations()
	if !slices.Equal(stations, fresh.table.Stations()) {
		t.Fatalf("transfer set %v, fresh Preprocess picks %v", stations, fresh.table.Stations())
	}
	for _, from := range stations {
		for _, to := range stations {
			got, _ := loaded.table.Profile(from, to)
			want, _ := fresh.table.Profile(from, to)
			if !slices.Equal(got.Points(), want.Points()) {
				t.Fatalf("row %d→%d: %v, fresh %v", from, to, got.Points(), want.Points())
			}
		}
	}

	// Written again by this build: sections 1–4 only, 1–3 unchanged.
	var out bytes.Buffer
	if err := loaded.WriteSnapshot(&out); err != nil {
		t.Fatal(err)
	}
	ids, cur := snapshotSections(t, out.Bytes())
	if !slices.Equal(ids, []uint32{1, 2, 3, 4}) {
		t.Fatalf("rewritten sections %v, want 1–4", ids)
	}
	for _, id := range ids[:3] {
		if !bytes.Equal(cur[id], old[id]) {
			t.Errorf("section %d changed on rewrite", id)
		}
	}
}

// TestSectionBytesUnchanged pins the snapshot's section bytes: the
// committed fixture's timetable, station-graph and distance-table sections
// decode and re-encode byte for byte, and on the oracle networks, plain and
// at a patched epoch with cancelled connections, build → write → read →
// write is the identity.
func TestSectionBytesUnchanged(t *testing.T) {
	img, err := os.ReadFile("testdata/table-provenance.snap")
	if err != nil {
		t.Fatal(err)
	}
	_, payloads := snapshotSections(t, img)
	tt, err := timetable.ParseBinary(payloads[snapshot.SecTimetable])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(timetable.AppendBinary(nil, tt), payloads[snapshot.SecTimetable]) {
		t.Fatal("fixture: timetable section changes on read and rewrite")
	}
	sg, err := stationgraph.ReadSection(payloads[snapshot.SecStationGraph])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stationgraph.AppendSection(nil, sg), payloads[snapshot.SecStationGraph]) {
		t.Fatal("fixture: station-graph section changes on read and rewrite")
	}
	fixture := payloads[snapshot.SecDistanceTable]
	roundTrip := func(label string, data []byte, numStations int) {
		t.Helper()
		table, err := dtable.ReadSection(data, numStations)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var again bytes.Buffer
		if err := dtable.WriteSection(&again, table, numStations); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("%s: section changes on read and rewrite (%d → %d bytes)", label, len(data), again.Len())
		}
	}
	roundTrip("fixture", fixture, int(binary.LittleEndian.Uint32(fixture[4:])))

	state := SnapshotState{Created: time.Unix(0, 36)}
	write := func(n *Network) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := n.WriteSnapshotState(&buf, state); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	built := func(label string, n *Network, sel TransferSelection) {
		t.Helper()
		pre, _, err := n.Preprocess(sel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var sec bytes.Buffer
		if err := dtable.WriteSection(&sec, pre.table, n.NumStations()); err != nil {
			t.Fatal(err)
		}
		roundTrip(label, sec.Bytes(), n.NumStations())
		first := write(pre)
		loaded, _, err := LoadSnapshot(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(write(loaded), first) {
			t.Fatalf("%s: snapshot changes on read and rewrite", label)
		}
	}
	// patched cancels a few trains and delays others, and checks that the
	// batch left cancelled connections behind.
	patched := func(rng *rand.Rand, n *Network) *Network {
		t.Helper()
		tt := n.Timetable()
		ops := randomOps(rng, n)
		for i := 0; i < 3; i++ {
			ops = append(ops, DelayOp{Train: tt.Trains[rng.Intn(tt.NumTrains())].Name, Cancel: true})
		}
		p, _, err := n.ApplyUpdates(ops)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(p.Timetable().Connections, func(c timetable.Connection) bool { return c.Arr.IsInf() }) {
			t.Fatal("delay batch cancelled nothing")
		}
		return p
	}
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		n := oracleRandomNetwork(t, rng, trial%2 == 1)
		built(fmt.Sprintf("random %d", trial), n, TransferSelection{Fraction: 0.3})
		state.Epoch = 1
		built(fmt.Sprintf("random %d patched", trial), patched(rng, n), TransferSelection{Fraction: 0.3})
		state.Epoch = 0
	}
	built("footpaths", oracleFootpathFixture(t), TransferSelection{MinDegree: 1})
	for _, family := range GenerateFamilies() {
		n, err := Generate(family, 0.03, 5)
		if err != nil {
			t.Fatal(err)
		}
		built(family, n, TransferSelection{Fraction: 0.1})
		state.Epoch = 4
		built(family+" patched", patched(rng, n), TransferSelection{Fraction: 0.1})
		state.Epoch = 0
	}
}

// TestLoadSnapshotAllocs bounds the allocations of one snapshot load by the
// stations and trains alone: at most 8 per station and train plus 256, so
// the count cannot grow with the connections, the graph's edges or the
// table's points.
func TestLoadSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, c := range []struct {
		family string
		scale  float64
		sel    TransferSelection
	}{
		{"losangeles", 0.1, TransferSelection{Fraction: 0.1}},
		{"europe", 0.25, TransferSelection{MinDegree: 2}},
	} {
		n, err := Generate(c.family, c.scale, 2010)
		if err != nil {
			t.Fatal(err)
		}
		pre, _, err := n.Preprocess(c.sel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		if err := pre.WriteSnapshot(&img); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := LoadSnapshot(bytes.NewReader(img.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		tt := n.Timetable()
		limit := 8*(tt.NumStations()+tt.NumTrains()) + 256
		t.Logf("%s %g: %.0f allocations per load (limit %d; %d stations, %d trains, %d connections, %d table rows)",
			c.family, c.scale, allocs, limit, tt.NumStations(), tt.NumTrains(), tt.NumConnections(), pre.table.NumTransfer())
		if allocs > float64(limit) {
			t.Errorf("%s %g: %.0f allocations per load, limit %d", c.family, c.scale, allocs, limit)
		}
	}
}
