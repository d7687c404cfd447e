// Package timeutil implements the periodic time arithmetic used by periodic
// timetables: a finite set of discrete time points Π = {0, …, π−1} together
// with the asymmetric length function Δ. Durations and arrival times may
// exceed the period π (a train arriving after midnight), so all values are
// carried as plain integer Ticks; only departure time points are confined
// to Π.
package timeutil

import (
	"fmt"
	"strconv"
	"strings"
)

// Ticks is a point in time or a duration, measured in timetable ticks
// (minutes by default, but the unit is opaque to the algorithms).
// Time points of a periodic timetable lie in [0, π); durations and absolute
// arrival times are unrestricted non-negative values.
type Ticks int32

// Infinity is the sentinel for "unreachable". It is large enough that adding
// any realistic duration to it does not overflow int32.
const Infinity Ticks = 1 << 30

// IsInf reports whether t is the unreachable sentinel (or beyond).
func (t Ticks) IsInf() bool { return t >= Infinity }

// Period represents the periodicity π of a timetable and provides the
// periodic arithmetic from the paper's preliminaries.
type Period struct {
	pi Ticks
}

// NewPeriod returns a Period of length pi ticks. It panics if pi <= 0:
// a periodic timetable with a non-positive period is meaningless and always
// indicates a programming error, not bad input data.
func NewPeriod(pi Ticks) Period {
	if pi <= 0 {
		panic(fmt.Sprintf("timeutil: non-positive period %d", pi))
	}
	return Period{pi: pi}
}

// DayMinutes is the conventional period of one day in minute ticks.
const DayMinutes Ticks = 1440

// Len returns π.
func (p Period) Len() Ticks { return p.pi }

// Valid reports whether τ is a valid time point of Π = {0, …, π−1}.
func (p Period) Valid(tau Ticks) bool { return tau >= 0 && tau < p.pi }

// Wrap reduces an arbitrary non-negative tick value to its time point in Π.
func (p Period) Wrap(t Ticks) Ticks {
	if t >= 0 && t < p.pi {
		return t
	}
	w := t % p.pi
	if w < 0 {
		w += p.pi
	}
	return w
}

// Delta is the length Δ(τ1, τ2) between two time points: τ2−τ1 if τ2 ≥ τ1
// and π+τ2−τ1 otherwise. Δ is not symmetric. Arguments outside Π are wrapped
// first, so Delta can be called with absolute arrival times.
func (p Period) Delta(tau1, tau2 Ticks) Ticks {
	tau1 = p.Wrap(tau1)
	tau2 = p.Wrap(tau2)
	if tau2 >= tau1 {
		return tau2 - tau1
	}
	return p.pi + tau2 - tau1
}

// NextOccurrence returns the smallest absolute time t ≥ at whose time point
// equals tau. It is how a periodic departure time point is lifted to an
// absolute departure time no earlier than "at".
func (p Period) NextOccurrence(tau, at Ticks) Ticks {
	return at + p.Delta(at, tau)
}

// FormatClock renders a tick value as D:HH:MM for minute-based periods of
// 1440, e.g. 495 → "08:15" and 1530 → "1:01:30" (day 1, 01:30). For other
// periods it falls back to the plain integer.
func (p Period) FormatClock(t Ticks) string {
	if p.pi != DayMinutes || t < 0 {
		return strconv.Itoa(int(t))
	}
	if t.IsInf() {
		return "inf"
	}
	day := t / DayMinutes
	rem := t % DayMinutes
	h, m := rem/60, rem%60
	if day > 0 {
		return fmt.Sprintf("%d:%02d:%02d", day, h, m)
	}
	return fmt.Sprintf("%02d:%02d", h, m)
}

// ParseClock parses "HH:MM" or "D:HH:MM" into ticks for minute-based
// periods. Hours up to 47 are accepted in the two-field form to support the
// GTFS convention of times past midnight ("25:10"). Values at or beyond
// Infinity are rejected: they do not fit a Ticks that arithmetic is still
// safe on.
func ParseClock(s string) (Ticks, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	// Fields are parsed as int32, so the sums below cannot overflow int64.
	field := func(i int) (int64, bool) {
		v, err := strconv.ParseInt(parts[i], 10, 32)
		return v, err == nil && v >= 0
	}
	var total int64
	switch len(parts) {
	case 2:
		h, ok1 := field(0)
		m, ok2 := field(1)
		if !ok1 || !ok2 || m > 59 {
			return 0, fmt.Errorf("timeutil: invalid clock value %q", s)
		}
		total = h*60 + m
	case 3:
		d, ok1 := field(0)
		h, ok2 := field(1)
		m, ok3 := field(2)
		if !ok1 || !ok2 || !ok3 || h > 23 || m > 59 {
			return 0, fmt.Errorf("timeutil: invalid clock value %q", s)
		}
		total = d*1440 + h*60 + m
	default:
		return 0, fmt.Errorf("timeutil: invalid clock value %q", s)
	}
	if total >= int64(Infinity) {
		return 0, fmt.Errorf("timeutil: clock value %q out of range", s)
	}
	return Ticks(total), nil
}

// Min returns the smaller of two tick values.
func Min(a, b Ticks) Ticks {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of two tick values.
func Max(a, b Ticks) Ticks {
	if a > b {
		return a
	}
	return b
}
