package timeutil

import (
	"testing"
	"testing/quick"
)

func TestNewPeriodPanics(t *testing.T) {
	for _, pi := range []Ticks{0, -1, -1440} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPeriod(%d) did not panic", pi)
				}
			}()
			NewPeriod(pi)
		}()
	}
}

func TestWrap(t *testing.T) {
	p := NewPeriod(1440)
	tests := []struct{ in, want Ticks }{
		{0, 0},
		{1439, 1439},
		{1440, 0},
		{1441, 1},
		{2880, 0},
		{3000, 120},
		{-1, 1439},
		{-1440, 0},
	}
	for _, tc := range tests {
		if got := p.Wrap(tc.in); got != tc.want {
			t.Errorf("Wrap(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestDelta(t *testing.T) {
	p := NewPeriod(1440)
	tests := []struct{ t1, t2, want Ticks }{
		{0, 0, 0},
		{100, 200, 100},
		{200, 100, 1340},
		{1439, 0, 1},
		{0, 1439, 1439},
		{720, 720, 0},
		// wrapped inputs: absolute arrival times
		{1500, 100, 40}, // 1500 wraps to 60
		{100, 1500, 1400},
	}
	for _, tc := range tests {
		if got := p.Delta(tc.t1, tc.t2); got != tc.want {
			t.Errorf("Delta(%d,%d) = %d, want %d", tc.t1, tc.t2, got, tc.want)
		}
	}
}

func TestDeltaAsymmetry(t *testing.T) {
	p := NewPeriod(1440)
	if p.Delta(100, 200) == p.Delta(200, 100) {
		t.Fatal("Delta must not be symmetric for distinct time points")
	}
}

// Property: Δ(τ1,τ2) + Δ(τ2,τ1) == π for τ1 ≠ τ2 (mod π), and both are in [0, π).
func TestDeltaProperties(t *testing.T) {
	p := NewPeriod(1440)
	f := func(a, b uint16) bool {
		t1 := Ticks(a) % 1440
		t2 := Ticks(b) % 1440
		d12 := p.Delta(t1, t2)
		d21 := p.Delta(t2, t1)
		if d12 < 0 || d12 >= 1440 || d21 < 0 || d21 >= 1440 {
			return false
		}
		if t1 == t2 {
			return d12 == 0 && d21 == 0
		}
		return d12+d21 == 1440
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Δ is the unique value in [0, π) with (τ1 + Δ) ≡ τ2 (mod π).
func TestDeltaCongruence(t *testing.T) {
	p := NewPeriod(97) // prime period to shake out divisibility bugs
	f := func(a, b uint16) bool {
		t1 := Ticks(a % 97)
		t2 := Ticks(b % 97)
		d := p.Delta(t1, t2)
		return d >= 0 && d < 97 && p.Wrap(t1+d) == t2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextOccurrence(t *testing.T) {
	p := NewPeriod(1440)
	tests := []struct{ tau, at, want Ticks }{
		{480, 0, 480},     // 08:00 seen from midnight
		{480, 480, 480},   // exactly at departure
		{480, 481, 1920},  // just missed: tomorrow 08:00
		{480, 1500, 1920}, // next day, before 08:00 point (1500 ≡ 60)
		{0, 1, 1440},      // midnight departure seen from 00:01
		{100, 2980, 2980}, // 2980 ≡ 100: depart immediately
	}
	for _, tc := range tests {
		if got := p.NextOccurrence(tc.tau, tc.at); got != tc.want {
			t.Errorf("NextOccurrence(%d,%d) = %d, want %d", tc.tau, tc.at, got, tc.want)
		}
	}
}

// Property: NextOccurrence(τ, at) ≥ at, < at+π, and wraps to τ.
func TestNextOccurrenceProperties(t *testing.T) {
	p := NewPeriod(1440)
	f := func(a uint16, b uint32) bool {
		tau := Ticks(a) % 1440
		at := Ticks(b % 100000)
		n := p.NextOccurrence(tau, at)
		return n >= at && n < at+1440 && p.Wrap(n) == tau
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatClock(t *testing.T) {
	p := NewPeriod(1440)
	tests := []struct {
		in   Ticks
		want string
	}{
		{0, "00:00"},
		{495, "08:15"},
		{1439, "23:59"},
		{1440, "1:00:00"},
		{1530, "1:01:30"},
		{Infinity, "inf"},
	}
	for _, tc := range tests {
		if got := p.FormatClock(tc.in); got != tc.want {
			t.Errorf("FormatClock(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
	q := NewPeriod(100)
	if got := q.FormatClock(55); got != "55" {
		t.Errorf("non-day period FormatClock = %q, want \"55\"", got)
	}
}

func TestParseClock(t *testing.T) {
	good := []struct {
		in   string
		want Ticks
	}{
		{"00:00", 0},
		{"08:15", 495},
		{"23:59", 1439},
		{"25:10", 1510}, // GTFS-style past-midnight
		{"1:01:30", 1530},
		{" 08:15 ", 495},
		{"745654:01:03", Infinity - 1},
	}
	for _, tc := range good {
		got, err := ParseClock(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseClock(%q) = %d,%v want %d", tc.in, got, err, tc.want)
		}
	}
	bad := []string{"", "8", "8:", ":15", "08:60", "-1:00", "a:b", "1:24:00", "1:00:60", "1:2:3:4",
		// at or past Infinity, and values that used to wrap around int32
		"745654:01:04", "3000000:00:00", "17895698:00", "99999999999:00"}
	for _, s := range bad {
		if _, err := ParseClock(s); err == nil {
			t.Errorf("ParseClock(%q) succeeded, want error", s)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	p := NewPeriod(1440)
	f := func(x uint16) bool {
		t0 := Ticks(x % 4320) // up to 3 days
		s := p.FormatClock(t0)
		back, err := ParseClock(s)
		return err == nil && back == t0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 || Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Min/Max broken")
	}
	if !Infinity.IsInf() || Ticks(5).IsInf() {
		t.Fatal("IsInf broken")
	}
}
