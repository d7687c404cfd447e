package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"transit/internal/stationgraph"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// testTimetable builds a small deterministic three-station timetable with a
// footpath.
func testTimetable(t testing.TB) *timetable.Timetable {
	t.Helper()
	b := timetable.NewBuilder(timeutil.NewPeriod(timeutil.DayMinutes))
	a := b.AddStationAt("A", 2, 0, 0)
	c := b.AddStationAt("B", 3, 1, 0)
	d := b.AddStationAt("C", 2, 2, 0)
	for h := 6; h < 22; h++ {
		b.AddTrainRun("r1", []timetable.StationID{a, c, d}, timeutil.Ticks(h*60), []timeutil.Ticks{20, 25}, 2)
		b.AddTrainRun("r2", []timetable.StationID{d, a}, timeutil.Ticks(h*60+30), []timeutil.Ticks{50}, 0)
	}
	b.AddFootpath(a, c, 12)
	b.AddFootpath(c, a, 12)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func testData(t testing.TB) *Data {
	t.Helper()
	tt := testTimetable(t)
	return &Data{
		TT:      tt,
		SG:      stationgraph.Build(tt),
		Epoch:   7,
		Created: time.Unix(0, 1234567890).UTC(),
	}
}

func encode(t testing.TB, d *Data) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	d := testData(t)
	raw := encode(t, d)
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.TT.Stats() != d.TT.Stats() {
		t.Errorf("timetable stats: got %v, want %v", got.TT.Stats(), d.TT.Stats())
	}
	if got.Epoch != d.Epoch {
		t.Errorf("epoch: got %d, want %d", got.Epoch, d.Epoch)
	}
	if !got.Created.Equal(d.Created) {
		t.Errorf("created: got %v, want %v", got.Created, d.Created)
	}
	if got.Table != nil {
		t.Errorf("table: got non-nil for a snapshot without one")
	}
	if got.SG.NumStations() != d.SG.NumStations() {
		t.Fatalf("station graph size: got %d, want %d", got.SG.NumStations(), d.SG.NumStations())
	}
	for s := 0; s < got.SG.NumStations(); s++ {
		id := timetable.StationID(s)
		if got.SG.Degree(id) != d.SG.Degree(id) {
			t.Errorf("station %d degree: got %d, want %d", s, got.SG.Degree(id), d.SG.Degree(id))
		}
		gout, wout := got.SG.Out(id), d.SG.Out(id)
		if len(gout) != len(wout) {
			t.Fatalf("station %d out-arcs: got %d, want %d", s, len(gout), len(wout))
		}
		for i := range gout {
			if gout[i] != wout[i] {
				t.Errorf("station %d arc %d: got %+v, want %+v", s, i, gout[i], wout[i])
			}
		}
		gin, win := got.SG.In(id), d.SG.In(id)
		if len(gin) != len(win) {
			t.Fatalf("station %d in-arcs: got %d, want %d", s, len(gin), len(win))
		}
		for i := range gin {
			if gin[i] != win[i] {
				t.Errorf("station %d in-arc %d: got %+v, want %+v", s, i, gin[i], win[i])
			}
		}
	}
}

// TestWriteDeterministic: identical inputs serialize to identical bytes, the
// property that makes snapshot files diffable and cacheable.
func TestWriteDeterministic(t *testing.T) {
	d := testData(t)
	if !bytes.Equal(encode(t, d), encode(t, d)) {
		t.Fatal("two Write calls produced different bytes")
	}
}

func TestReadBadMagic(t *testing.T) {
	raw := encode(t, testData(t))
	raw[0] = 'X'
	_, err := Read(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic: got %v, want a bad-magic error", err)
	}
	// A completely unrelated stream is rejected the same way.
	_, err = Read(strings.NewReader("GIF89a...definitely not a snapshot"))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("foreign stream: got %v, want a bad-magic error", err)
	}
}

func TestReadWrongVersion(t *testing.T) {
	raw := encode(t, testData(t))
	binary.LittleEndian.PutUint32(raw[8:], Version+1)
	_, err := Read(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "unsupported format version") {
		t.Fatalf("wrong version: got %v, want an unsupported-version error", err)
	}
}

func TestReadTruncated(t *testing.T) {
	raw := encode(t, testData(t))
	// Truncations at every structurally interesting boundary: mid-magic,
	// mid-header, mid-table, mid-payload, one byte short.
	for _, n := range []int{0, 4, 8, 10, 14, 16, 30, 60, len(raw) / 2, len(raw) - 1} {
		if n >= len(raw) {
			continue
		}
		if _, err := Read(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncation to %d bytes: no error", n)
		}
	}
}

func TestReadFlippedCRCByte(t *testing.T) {
	raw := encode(t, testData(t))
	// Flip one byte in several payload positions and require a CRC error
	// naming the damage.
	for _, off := range []int{len(raw) - 1, len(raw) / 2, len(raw) / 3} {
		bad := bytes.Clone(raw)
		bad[off] ^= 0x40
		_, err := Read(bytes.NewReader(bad))
		if err == nil {
			t.Errorf("flipped byte at %d: no error", off)
			continue
		}
		if !strings.Contains(err.Error(), "CRC mismatch") && !strings.Contains(err.Error(), "truncated") {
			t.Errorf("flipped byte at %d: %v, want CRC mismatch", off, err)
		}
	}
}

func TestReadCorruptSectionTable(t *testing.T) {
	raw := encode(t, testData(t))
	// The first section-table entry starts at byte 16; its length field (8
	// bytes at entry offset 8) claims an absurd size.
	bad := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(bad[16+8:], 1<<40)
	if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("hostile length: got %v, want a max-size error", err)
	}
	// Zero sections.
	bad = bytes.Clone(raw)
	binary.LittleEndian.PutUint32(bad[12:], 0)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("zero sections accepted")
	}
	// Duplicate section IDs: rewrite entry 2's ID to entry 1's.
	bad = bytes.Clone(raw)
	binary.LittleEndian.PutUint32(bad[16+16:], binary.LittleEndian.Uint32(bad[16:]))
	if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate section: got %v, want a duplicate-section error", err)
	}
}

func TestReadMissingTimetable(t *testing.T) {
	// Hand-roll a snapshot with only a live-state section.
	raw := container(section{SecLiveState, make([]byte, 16)})
	_, err := Read(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "missing required timetable") {
		t.Fatalf("missing timetable: got %v", err)
	}
}

// TestReadSkipsUnknownSections: a newer writer may add section IDs this
// build does not know; they must be skipped, not rejected.
func TestReadSkipsUnknownSections(t *testing.T) {
	d := testData(t)
	raw := container(
		section{999, []byte("payload from the future")},
		section{SecTimetable, timetable.AppendBinary(nil, d.TT)},
	)
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.TT.Stats() != d.TT.Stats() {
		t.Errorf("timetable stats: got %v, want %v", got.TT.Stats(), d.TT.Stats())
	}
	if got.SG == nil {
		t.Error("station graph not rebuilt for a snapshot without its section")
	}
}

// container frames the payloads as a snapshot with correct CRCs, in the
// order given.
func container(secs ...section) []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), Magic[:]...)
	b = le.AppendUint32(b, Version)
	b = le.AppendUint32(b, uint32(len(secs)))
	for _, s := range secs {
		b = le.AppendUint32(b, s.id)
		b = le.AppendUint32(b, crcOf(s.payload))
		b = le.AppendUint64(b, uint64(len(s.payload)))
	}
	for _, s := range secs {
		b = append(b, s.payload...)
	}
	return b
}

func crcOf(p []byte) uint32 {
	return crc32.Checksum(p, crcTable)
}

// randomTimetable builds a small random-but-valid timetable from a seed;
// shared by the fuzz targets.
func randomTimetable(seed int64) (*timetable.Timetable, error) {
	rng := rand.New(rand.NewSource(seed))
	period := timeutil.NewPeriod(timeutil.Ticks(60 + rng.Intn(1440)))
	b := timetable.NewBuilder(period)
	nStations := 2 + rng.Intn(7)
	ids := make([]timetable.StationID, nStations)
	for i := range ids {
		ids[i] = b.AddStationAt(string(rune('A'+i)), timeutil.Ticks(rng.Intn(5)), rng.Float64(), rng.Float64())
	}
	nTrains := 1 + rng.Intn(6)
	for z := 0; z < nTrains; z++ {
		length := 2 + rng.Intn(nStations)
		stops := make([]timetable.StationID, 0, length)
		prev := -1
		for len(stops) < length {
			s := rng.Intn(nStations)
			if s == prev {
				continue // no self-loop hops
			}
			stops = append(stops, ids[s])
			prev = s
		}
		hops := make([]timeutil.Ticks, len(stops)-1)
		for i := range hops {
			hops[i] = timeutil.Ticks(1 + rng.Intn(120))
		}
		b.AddTrainRun("z", stops, timeutil.Ticks(rng.Intn(int(period.Len()))), hops, timeutil.Ticks(rng.Intn(4)))
	}
	if rng.Intn(2) == 0 && nStations >= 2 {
		b.AddFootpath(ids[0], ids[1], timeutil.Ticks(1+rng.Intn(20)))
	}
	return b.Build()
}

// FuzzRoundTrip writes random small timetables through the container and
// requires a byte-identical re-serialization after reading back.
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range []int64{1, 2, 42, 12345, -7} {
		f.Add(seed, uint64(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, epoch uint64) {
		tt, err := randomTimetable(seed)
		if err != nil {
			t.Skip() // the random walk hit a validation edge; not a container bug
		}
		d := &Data{TT: tt, SG: stationgraph.Build(tt), Epoch: epoch, Created: time.Unix(0, 99).UTC()}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("read back own output: %v", err)
		}
		if got.TT.Stats() != tt.Stats() {
			t.Fatalf("stats changed: got %v, want %v", got.TT.Stats(), tt.Stats())
		}
		if got.Epoch != epoch {
			t.Fatalf("epoch changed: got %d, want %d", got.Epoch, epoch)
		}
		var again bytes.Buffer
		if err := Write(&again, got); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatal("round trip is not byte-identical")
		}
	})
}

// FuzzRead feeds arbitrary bytes to the reader: it must return an error or
// a valid Data, never panic.
func FuzzRead(f *testing.F) {
	valid := encode(f, testData(f))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:20])
	f.Add([]byte("TPSNAP\r\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Read(bytes.NewReader(data))
	})
}

// TestReadHostileSectionCounts wraps section payloads whose headers claim
// far more records than they hold in a snapshot with correct CRCs. Read must
// return an error for each; allocating the claims first would abort the
// process with an out-of-memory fatal error, which no caller can recover.
func TestReadHostileSectionCounts(t *testing.T) {
	le := binary.LittleEndian
	words := func(b []byte, vs ...uint32) []byte {
		for _, v := range vs {
			b = le.AppendUint32(b, v)
		}
		return b
	}
	tt := timetable.AppendBinary(nil, testTimetable(t))
	for _, c := range []struct {
		name    string
		hostile section // 24 and 16 bytes
		secs    []section
	}{
		// magic, period 1440, 2^28 stations, no trains, no connections
		{"timetable claims 2^28 stations", section{SecTimetable, words([]byte("TTBLBIN1"), 1440, 1<<28, 0, 0)}, nil},
		// one station whose arc offsets run to 2^30, and half an arc
		{"station graph claims 2^30 arcs", section{SecStationGraph, words(nil, 1, 0, 1<<30, 0)}, []section{{SecTimetable, tt}}},
	} {
		if _, err := Read(bytes.NewReader(container(append(c.secs, c.hostile)...))); err == nil {
			t.Errorf("%s (%d bytes): accepted", c.name, len(c.hostile.payload))
		} else {
			t.Logf("%s (%d bytes): %v", c.name, len(c.hostile.payload), err)
		}
	}
}

// TestReadPayloadGrowsWithTheStream: a section table that claims a 1 GiB
// section over a stream holding a few bytes fails without allocating the
// claim.
func TestReadPayloadGrowsWithTheStream(t *testing.T) {
	raw := container(section{SecTimetable, timetable.AppendBinary(nil, testTimetable(t))})
	binary.LittleEndian.PutUint64(raw[16+8:], maxSectionBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("got %v, want a truncated-section error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*payloadChunk {
		t.Errorf("reading a %d-byte stream allocated %d bytes", len(raw), got)
	}
}
