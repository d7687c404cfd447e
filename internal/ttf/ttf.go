// Package ttf implements the special class of piecewise-linear travel-time
// functions that arise in public transportation networks (Section 2 of the
// paper). A function f: Π → N0 is represented by a set of connection points
// P(f) ⊂ Π × N0; its value is
//
//	f(τ) = Δ(τ, τ_f) + w_f   for the (τ_f, w_f) ∈ P(f) minimizing Δ(τ, τ_f)+w_f,
//
// i.e. the travel time at τ is the wait for a good connection departing at
// τ_f plus the duration w_f of the itinerary starting with it.
//
// The package provides construction from (departure, duration) pairs, exact
// and fast evaluation, and the paper's connection reduction: the backward
// dominance scan that deletes points which are dominated by a point with a
// later departure and an earlier arrival. A reduced point set is exactly one
// whose induced staircase of arrival times fulfills the FIFO property.
package ttf

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"transit/internal/timeutil"
)

// Point is a connection point (τ, w): departing at time point τ ∈ Π, the
// itinerary takes w ticks.
type Point struct {
	Dep timeutil.Ticks // departure time point, in [0, π)
	W   timeutil.Ticks // duration (may exceed π for overnight itineraries)
}

// Arr returns the absolute arrival time τ + w of the point.
func (p Point) Arr() timeutil.Ticks { return p.Dep + p.W }

// Function is a periodic piecewise-linear travel-time function given by its
// connection points, sorted by increasing departure time point. A Function
// with no points is everywhere infinite (unreachable).
//
// The zero value is not usable; construct with New or FromArrivals.
type Function struct {
	period  timeutil.Period
	points  []Point
	reduced bool
}

// New builds a Function over the given period from arbitrary connection
// points. Points are copied, validated (departures wrapped into Π, durations
// non-negative), sorted by departure, and duplicates of the same departure
// keep only the minimum duration. The result is not necessarily reduced;
// call Reduce for the canonical form.
func New(period timeutil.Period, pts []Point) (*Function, error) {
	cp := make([]Point, 0, len(pts))
	for _, p := range pts {
		if p.W < 0 {
			return nil, fmt.Errorf("ttf: negative duration %d at departure %d", p.W, p.Dep)
		}
		if p.W.IsInf() {
			continue // unreachable points carry no information
		}
		cp = append(cp, Point{Dep: period.Wrap(p.Dep), W: p.W})
	}
	slices.SortFunc(cp, cmpPoint)
	return &Function{period: period, points: dedupe(cp)}, nil
}

// cmpPoint orders points by departure, then by duration.
func cmpPoint(a, b Point) int {
	if c := cmp.Compare(a.Dep, b.Dep); c != 0 {
		return c
	}
	return cmp.Compare(a.W, b.W)
}

// dedupe collapses equal departures of points sorted by cmpPoint in place,
// keeping the first (fastest) of each.
func dedupe(pts []Point) []Point {
	out := pts[:0]
	for _, p := range pts {
		if len(out) > 0 && out[len(out)-1].Dep == p.Dep {
			continue
		}
		out = append(out, p)
	}
	return out
}

// MustNew is New panicking on error; for tests and literals.
func MustNew(period timeutil.Period, pts []Point) *Function {
	f, err := New(period, pts)
	if err != nil {
		panic(err)
	}
	return f
}

// FromArrivals builds the profile function of a station from the per-
// connection labels of a profile search: deps[i] is the departure time point
// τ_dep(c_i) at the source and arrs[i] the absolute arrival time arr(v, i)
// (timeutil.Infinity when connection i was pruned or does not reach v). The
// result is reduced; see AppendReduced.
func FromArrivals(period timeutil.Period, deps, arrs []timeutil.Ticks) (*Function, error) {
	pts, err := AppendReduced(make([]Point, 0, len(deps)), period, deps, arrs)
	if err != nil {
		return nil, err
	}
	// The function keeps an exact-size copy, not room for every connection:
	// cached results hold it.
	return &Function{period: period, points: append([]Point(nil), pts...), reduced: true}, nil
}

// AppendReduced appends to dst the reduced connection points of the profile
// that FromArrivals builds from deps and arrs, and returns the extended
// slice. It allocates only when dst must grow, so a caller that reduces many
// profiles into one reused buffer pays no allocation per profile. On error
// dst comes back with its original length.
func AppendReduced(dst []Point, period timeutil.Period, deps, arrs []timeutil.Ticks) ([]Point, error) {
	if len(deps) != len(arrs) {
		return dst, fmt.Errorf("ttf: %d departures but %d arrivals", len(deps), len(arrs))
	}
	start := len(dst)
	ordered := true
	for i, d := range deps {
		a := arrs[i]
		if a.IsInf() {
			continue
		}
		w := a - d
		if w < 0 {
			return dst[:start], fmt.Errorf("ttf: connection %d arrives at %d before departing at %d", i, a, d)
		}
		p := Point{Dep: period.Wrap(d), W: w}
		if len(dst) > start && cmpPoint(dst[len(dst)-1], p) > 0 {
			ordered = false
		}
		dst = append(dst, p)
	}
	pts := dst[start:]
	if !ordered {
		slices.SortFunc(pts, cmpPoint)
	}
	pts = reduce(dedupe(pts), period.Len())
	return dst[:start+len(pts)], nil
}

// Period returns the period the function is defined over.
func (f *Function) Period() timeutil.Period { return f.period }

// Points returns the connection points (shared slice; callers must not
// modify it).
func (f *Function) Points() []Point { return f.points }

// NumPoints returns |P(f)|.
func (f *Function) NumPoints() int { return len(f.points) }

// Empty reports whether the function is everywhere infinite.
func (f *Function) Empty() bool { return len(f.points) == 0 }

// Reduced reports whether the point set is known to be dominance-free.
func (f *Function) Reduced() bool { return f.reduced }

// Reduce deletes all dominated connection points: a point is dominated if
// waiting for some circularly later departure yields an arrival that is no
// later. This is the paper's connection reduction, extended circularly so
// that the first connections of the next period can dominate the last
// connections of the current one. Reduction never changes the function
// value. It returns the number of points deleted.
func (f *Function) Reduce() int {
	n := len(f.points)
	f.points = reduce(f.points, f.period.Len())
	f.reduced = true
	return n - len(f.points)
}

// reduce deletes the dominated points of pts, sorted by strictly increasing
// departure, in place and returns the kept ones in order. It scans the
// points backward after their next-period copies: minArr is the earliest
// lifted arrival of every circularly later departure within one period, and
// a point survives only when it arrives strictly earlier.
func reduce(pts []Point, pi timeutil.Ticks) []Point {
	n := len(pts)
	if n <= 1 {
		return pts
	}
	minArr := timeutil.Infinity
	for _, p := range pts {
		minArr = min(minArr, p.Arr()+pi)
	}
	// Kept points are written from the back; w never passes the scan index.
	w := n
	for i := n - 1; i >= 0; i-- {
		if a := pts[i].Arr(); a < minArr {
			w--
			pts[w] = pts[i]
			minArr = a
		}
	}
	return pts[:copy(pts, pts[w:])]
}

// CheckCanonical reports why pts is not the reduced point set of a function
// over period, or nil when it is: departures strictly increasing in [0, π),
// durations non-negative with a finite arrival, and no point dominated by a
// circularly later one. Reduce leaves exactly such sets, so a loader of
// stored profiles can verify them instead of re-reducing. The check computes
// in 64 bits, so no period or duration can overflow it.
func CheckCanonical(period timeutil.Period, pts []Point) error {
	pi := int64(period.Len())
	arr := func(p Point) int64 { return int64(p.Dep) + int64(p.W) }
	minArr := int64(math.MaxInt64)
	for i, p := range pts {
		if p.Dep < 0 || int64(p.Dep) >= pi {
			return fmt.Errorf("ttf: point %d departs at %d, outside [0,%d)", i, p.Dep, pi)
		}
		if i > 0 && p.Dep <= pts[i-1].Dep {
			return fmt.Errorf("ttf: point %d departs at %d, not after %d", i, p.Dep, pts[i-1].Dep)
		}
		if p.W < 0 || arr(p) >= int64(timeutil.Infinity) {
			return fmt.Errorf("ttf: point %d has duration %d", i, p.W)
		}
		minArr = min(minArr, arr(p)+pi)
	}
	for i := len(pts) - 1; i >= 0; i-- {
		a := arr(pts[i])
		if a >= minArr {
			return fmt.Errorf("ttf: point %d (%d,%d) is dominated by a later departure", i, pts[i].Dep, pts[i].W)
		}
		minArr = a
	}
	return nil
}

// EvalExact returns f(τ) by scanning all connection points. It works on
// unreduced functions and is the reference implementation used in tests.
func (f *Function) EvalExact(tau timeutil.Ticks) timeutil.Ticks {
	if len(f.points) == 0 {
		return timeutil.Infinity
	}
	tau = f.period.Wrap(tau)
	best := timeutil.Infinity
	for _, p := range f.points {
		if v := f.period.Delta(tau, p.Dep) + p.W; v < best {
			best = v
		}
	}
	return best
}

// Eval returns the travel time f(τ) when departing at time τ (arbitrary
// absolute times are wrapped into Π). On reduced functions this is a binary
// search for the next departure (NextPoint); on unreduced functions it falls
// back to the exact scan.
func (f *Function) Eval(tau timeutil.Ticks) timeutil.Ticks {
	if !f.reduced {
		return f.EvalExact(tau)
	}
	p, wait := NextPoint(f.period, f.points, tau)
	return wait + p.W
}

// NextPoint returns the point of a reduced point set, sorted by departure,
// that a traveller present at the absolute time τ takes: the first departing
// at or after τ wrapped into Π, else the first of the next period. It also
// returns the wait until that departure. An empty set gives the zero Point
// and Infinity, so wait + W stays Infinity. Function.Eval,
// Function.NextDeparture and the distance table's look-up all evaluate
// through it.
func NextPoint(period timeutil.Period, pts []Point, tau timeutil.Ticks) (Point, timeutil.Ticks) {
	if len(pts) == 0 {
		return Point{}, timeutil.Infinity
	}
	pi := period.Len()
	if tau < 0 || tau >= pi { // Period.Wrap, with its in-range case inline
		tau = period.Wrap(tau)
	}
	// Lower bound: the first departure at or after tau. Written out rather
	// than through sort.Search so a look-up pays no closure call per probe.
	lo, hi := 0, len(pts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pts[m].Dep < tau {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(pts) { // past the last departure: first one of the next period
		return pts[0], pi - tau + pts[0].Dep
	}
	return pts[lo], pts[lo].Dep - tau
}

// EvalArrival returns the absolute arrival time when departing at the
// absolute time at: at + f(at).
func (f *Function) EvalArrival(at timeutil.Ticks) timeutil.Ticks {
	w := f.Eval(at)
	if w.IsInf() {
		return timeutil.Infinity
	}
	return at + w
}

// NextDeparture returns the connection point the function would use when
// departing at τ, i.e. the point with the smallest wait, together with the
// absolute wait. It requires a reduced function and panics otherwise, since
// on unreduced functions the next departure need not be optimal.
func (f *Function) NextDeparture(tau timeutil.Ticks) (Point, timeutil.Ticks) {
	if !f.reduced {
		panic("ttf: NextDeparture on unreduced function")
	}
	return NextPoint(f.period, f.points, tau)
}

// IsDominanceFree reports whether no point is dominated by a circularly
// later one, i.e. whether the induced arrival staircase fulfills the FIFO
// property of the paper. Reduced functions are always dominance-free.
func (f *Function) IsDominanceFree() bool {
	n := len(f.points)
	if n <= 1 {
		return true
	}
	pi := f.period.Len()
	for i := 0; i < n; i++ {
		ai := f.points[i].Arr()
		for d := 1; d < n; d++ {
			lift := timeutil.Ticks(0)
			if i+d >= n {
				lift = pi
			}
			if f.points[(i+d)%n].Arr()+lift <= ai {
				return false
			}
		}
	}
	return true
}

// MinMax returns the minimum and maximum duration over all connection
// points, or (Infinity, Infinity) for the empty function. The minimum is a
// global lower bound on f; the maximum plus a full period wait upper-bounds
// f.
func (f *Function) MinMax() (min, max timeutil.Ticks) {
	if len(f.points) == 0 {
		return timeutil.Infinity, timeutil.Infinity
	}
	min, max = f.points[0].W, f.points[0].W
	for _, p := range f.points[1:] {
		if p.W < min {
			min = p.W
		}
		if p.W > max {
			max = p.W
		}
	}
	return min, max
}

// Merge returns the pointwise minimum of f and g as a new reduced function.
// Both must share the same period.
func Merge(f, g *Function) *Function {
	if f.period.Len() != g.period.Len() {
		panic("ttf: merging functions with different periods")
	}
	pts := make([]Point, 0, len(f.points)+len(g.points))
	pts = append(pts, f.points...)
	pts = append(pts, g.points...)
	m := MustNew(f.period, pts)
	m.Reduce()
	return m
}

// Equal reports whether f and g take the same value at every time point of
// their (shared) period. It compares reduced forms, which are canonical.
func Equal(f, g *Function) bool {
	if f.period.Len() != g.period.Len() {
		return false
	}
	fr, gr := f.clone(), g.clone()
	fr.Reduce()
	gr.Reduce()
	if len(fr.points) != len(gr.points) {
		return false
	}
	for i := range fr.points {
		if fr.points[i] != gr.points[i] {
			return false
		}
	}
	return true
}

func (f *Function) clone() *Function {
	pts := make([]Point, len(f.points))
	copy(pts, f.points)
	return &Function{period: f.period, points: pts, reduced: f.reduced}
}

// String renders the function compactly for debugging.
func (f *Function) String() string {
	if len(f.points) == 0 {
		return "ttf{∞}"
	}
	s := "ttf{"
	for i, p := range f.points {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("(%d,%d)", p.Dep, p.W)
	}
	return s + "}"
}
