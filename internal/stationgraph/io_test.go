package stationgraph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"transit/internal/gen"
	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// fixtureSection returns a section payload of the committed snapshot
// fixture (testdata/table-provenance.snap at the repository root).
func fixtureSection(tb testing.TB, id uint32) []byte {
	tb.Helper()
	img, err := os.ReadFile("../../testdata/table-provenance.snap")
	if err != nil {
		tb.Fatal(err)
	}
	le := binary.LittleEndian
	n := int(le.Uint32(img[12:])) // magic, version, section count
	body := img[16+16*n:]
	for i := 0; i < n; i++ {
		e := img[16+16*i:]
		length := le.Uint64(e[8:])
		if le.Uint32(e) == id {
			return body[:length]
		}
		body = body[length:]
	}
	tb.Fatalf("fixture has no section %d", id)
	return nil
}

// words encodes little-endian int32s.
func words(vs ...int32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func TestReadSectionBoundsCounts(t *testing.T) {
	good := AppendSection(nil, Build(starNetwork(t)))
	cases := map[string][]byte{
		"2^30 arcs":          words(1, 0, 1<<30),
		"2^28 stations":      words(1<<28, 0),
		"negative stations":  words(-1),
		"offsets from 1":     words(1, 1, 2, 0, 0, 0, 0),
		"decreasing offsets": words(2, 0, 1, 0, 1, 0),
		"trailing byte":      append(bytes.Clone(good), 0),
		"short":              good[:len(good)-1],
		"duplicate arc":      words(2, 0, 2, 2, 1, 0, 1, 0),
	}
	for name, data := range cases {
		if _, err := ReadSection(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestBuildMatchesMaps compares Build and the section round trip with the
// plain construction: the least weight per ordered station pair in a map,
// rows sorted by neighbour, degrees counted in a set.
func TestBuildMatchesMaps(t *testing.T) {
	check := func(label string, tt *timetable.Timetable) {
		t.Helper()
		type pair struct{ from, to timetable.StationID }
		minW := map[pair]timeutil.Ticks{}
		relax := func(k pair, w timeutil.Ticks) {
			if old, ok := minW[k]; !ok || w < old {
				minW[k] = w
			}
		}
		for _, c := range tt.Connections {
			relax(pair{c.From, c.To}, c.Duration())
		}
		for _, f := range tt.Footpaths {
			relax(pair{f.From, f.To}, f.Walk)
		}
		out, in := make([][]Arc, tt.NumStations()), make([][]Arc, tt.NumStations())
		for k, w := range minW {
			out[k.from] = append(out[k.from], Arc{k.to, w})
			in[k.to] = append(in[k.to], Arc{k.from, w})
		}
		byHead := func(a, b Arc) int { return int(a.To - b.To) }
		g := Build(tt)
		back, err := ReadSection(AppendSection(nil, g))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for s := range tt.Stations {
			id := timetable.StationID(s)
			slices.SortFunc(out[s], byHead)
			slices.SortFunc(in[s], byHead)
			nb := map[timetable.StationID]bool{}
			for _, a := range append(slices.Clone(out[s]), in[s]...) {
				nb[a.To] = true
			}
			for _, h := range []*Graph{g, back} {
				if got, want := fmt.Sprint(h.Out(id), h.In(id), h.Degree(id)), fmt.Sprint(out[s], in[s], len(nb)); got != want {
					t.Fatalf("%s: station %d: out, in, degree %s, want %s", label, s, got, want)
				}
			}
		}
	}
	check("star", starNetwork(t))
	for _, f := range gen.Families() {
		cfg, err := gen.FamilyConfig(f, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(string(f), tt)
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 50; trial++ {
		b := timetable.NewBuilder(day)
		n := 2 + rng.Intn(8)
		for s := 0; s < n; s++ {
			b.AddStation("s", 1)
		}
		for z := rng.Intn(12); z > 0; z-- {
			from, to := timetable.StationID(rng.Intn(n)), timetable.StationID(rng.Intn(n))
			if from != to {
				b.AddTrainRun("z", []timetable.StationID{from, to}, timeutil.Ticks(rng.Intn(1440)), []timeutil.Ticks{timeutil.Ticks(rng.Intn(20))}, 0)
			}
		}
		for f := rng.Intn(6); f > 0; f-- {
			from, to := timetable.StationID(rng.Intn(n)), timetable.StationID(rng.Intn(n))
			if from != to {
				b.AddFootpath(from, to, timeutil.Ticks(rng.Intn(20)))
			}
		}
		tt, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("random %d", trial), tt)
	}
}

// FuzzReadSection feeds arbitrary bytes to the station-graph section
// parser. It must not panic, must allocate at most 64 bytes per input byte
// plus 1 MiB (so no decoded count reaches the allocator unchecked), and
// whatever it accepts must re-encode to the same bytes.
func FuzzReadSection(f *testing.F) {
	f.Add(fixtureSection(f, 2))
	f.Add(AppendSection(nil, Build(starNetwork(f))))
	f.Add(words(1, 0, 1<<30))
	f.Add(words(0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadSection(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+1<<20; got > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if again := AppendSection(nil, g); !bytes.Equal(again, data) {
			t.Fatalf("accepted section re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
