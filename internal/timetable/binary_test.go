package timetable

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"testing"
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

// hostileHeader is a timetable section whose header claims 2^28 stations
// and nothing else.
func hostileHeader() []byte {
	b := append([]byte(nil), binMagic[:]...)
	for _, v := range []uint32{1440, 1 << 28, 0, 0} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

func TestParseBinaryBoundsCounts(t *testing.T) {
	good := AppendBinary(nil, tinyNetwork(t))
	cases := map[string][]byte{
		"2^28 stations":       hostileHeader(),
		"negative trains":     binary.LittleEndian.AppendUint32(append([]byte(nil), good[:16]...), 0xffffffff),
		"trailing byte":       append(append([]byte(nil), good...), 0),
		"partial count":       append(bytes.Clone(good[:len(good)-4]), 0, 0),
		"footpaths overclaim": append(bytes.Clone(good[:len(good)-4]), 1, 0, 0, 0),
	}
	for name, data := range cases {
		if len(data) < 24 {
			data = append(data, make([]byte, 24-len(data))...)
		}
		if _, err := ParseBinary(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A section written before footpaths existed ends after its
	// connections.
	if _, err := ParseBinary(good[:len(good)-4]); err != nil {
		t.Errorf("section without footpath count: %v", err)
	}
}

// FuzzParseBinary feeds arbitrary bytes to the timetable section parser. It
// must not panic, must allocate at most 64 bytes per input byte plus 1 MiB
// (so no decoded count reaches the allocator unchecked), and whatever it
// accepts must re-encode to the same bytes; a section without the footpath
// count gains an empty one.
func FuzzParseBinary(f *testing.F) {
	f.Add(fixtureSection(f, 1))
	good := AppendBinary(nil, tinyNetwork(f))
	f.Add(good)
	f.Add(good[:len(good)-4])
	f.Add(hostileHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tt, err := ParseBinary(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+1<<20; got > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		again := AppendBinary(nil, tt)
		if !bytes.Equal(again, data) && !bytes.Equal(again, append(bytes.Clone(data), 0, 0, 0, 0)) {
			t.Fatalf("accepted section re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
