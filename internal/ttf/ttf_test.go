package ttf

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"transit/internal/timeutil"
)

var day = timeutil.NewPeriod(1440)

func TestNewSortsAndDeduplicates(t *testing.T) {
	f := MustNew(day, []Point{{600, 30}, {480, 10}, {480, 25}, {600, 20}})
	pts := f.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0] != (Point{480, 10}) || pts[1] != (Point{600, 20}) {
		t.Fatalf("got %v", pts)
	}
}

func TestNewRejectsNegativeDuration(t *testing.T) {
	if _, err := New(day, []Point{{480, -5}}); err == nil {
		t.Fatal("want error for negative duration")
	}
}

func TestNewWrapsDepartures(t *testing.T) {
	f := MustNew(day, []Point{{1500, 10}}) // 1500 ≡ 60
	if f.Points()[0].Dep != 60 {
		t.Fatalf("departure not wrapped: %v", f.Points()[0])
	}
}

func TestNewDropsInfinitePoints(t *testing.T) {
	f := MustNew(day, []Point{{480, timeutil.Infinity}, {500, 10}})
	if f.NumPoints() != 1 {
		t.Fatalf("infinite point not dropped: %v", f.Points())
	}
}

func TestEvalExactSimple(t *testing.T) {
	// Three trains as in Figure 2 of the paper.
	f := MustNew(day, []Point{{480, 60}, {540, 50}, {720, 40}})
	tests := []struct{ tau, want timeutil.Ticks }{
		{480, 60},                    // board train 1 immediately
		{400, 140},                   // wait 80 for train 1
		{500, 90},                    // wait 40 for train 2
		{540, 50},                    // board train 2
		{600, 160},                   // wait 120 for train 3
		{720, 40},                    // board train 3
		{721, 1440 - 721 + 480 + 60}, // missed the last; next day's train 1
	}
	for _, tc := range tests {
		if got := f.EvalExact(tc.tau); got != tc.want {
			t.Errorf("EvalExact(%d) = %d, want %d", tc.tau, got, tc.want)
		}
	}
}

func TestEvalExactPicksFasterLaterTrain(t *testing.T) {
	// A slow early train is beaten by a later fast one even before reduction.
	f := MustNew(day, []Point{{480, 200}, {500, 30}})
	if got := f.EvalExact(480); got != 50 {
		t.Errorf("EvalExact(480) = %d, want 50 (wait 20 + ride 30)", got)
	}
}

func TestReduceDeletesDominated(t *testing.T) {
	// (480,200) arrives 680; (500,30) arrives 530 → dominates the first.
	f := MustNew(day, []Point{{480, 200}, {500, 30}, {600, 60}})
	deleted := f.Reduce()
	if deleted != 1 {
		t.Fatalf("deleted %d, want 1", deleted)
	}
	pts := f.Points()
	if len(pts) != 2 || pts[0] != (Point{500, 30}) || pts[1] != (Point{600, 60}) {
		t.Fatalf("got %v", pts)
	}
}

func TestReduceTieDeletes(t *testing.T) {
	// Equal arrival: the earlier departure is dominated (later dep, same arr).
	f := MustNew(day, []Point{{480, 120}, {540, 60}}) // both arrive 600
	if deleted := f.Reduce(); deleted != 1 {
		t.Fatalf("deleted %d, want 1 (tie must delete the earlier departure)", deleted)
	}
	if f.Points()[0] != (Point{540, 60}) {
		t.Fatalf("kept wrong point: %v", f.Points())
	}
}

func TestReduceCircularWrap(t *testing.T) {
	// A hopeless 23:00 train taking 10h is dominated by next morning's
	// 06:00 express taking 1h: Δ(1380,360)+60 = 420+60 = 480 < 600.
	f := MustNew(day, []Point{{360, 60}, {1380, 600}})
	if deleted := f.Reduce(); deleted != 1 {
		t.Fatalf("deleted %d, want 1 (circular domination)", deleted)
	}
	if f.Points()[0] != (Point{360, 60}) {
		t.Fatalf("kept wrong point: %v", f.Points())
	}
}

func TestReduceKeepsUsefulNightTrain(t *testing.T) {
	// The night train is slow but still better than waiting for the morning
	// express: 1380+240=1620 arrival; waiting until 360 next day arrives
	// 1800+60. Both must survive.
	f := MustNew(day, []Point{{360, 60}, {1380, 240}})
	if deleted := f.Reduce(); deleted != 0 {
		t.Fatalf("deleted %d, want 0", deleted)
	}
}

func TestReduceEmptyAndSingle(t *testing.T) {
	f := MustNew(day, nil)
	if f.Reduce() != 0 || !f.Reduced() {
		t.Fatal("empty reduce broken")
	}
	g := MustNew(day, []Point{{100, 10}})
	if g.Reduce() != 0 || g.NumPoints() != 1 {
		t.Fatal("single-point reduce broken")
	}
}

// Reduction must never change the function value anywhere.
func TestReducePreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				Dep: timeutil.Ticks(rng.Intn(1440)),
				W:   timeutil.Ticks(rng.Intn(600)),
			}
		}
		f := MustNew(day, pts)
		g := f.clone()
		g.Reduce()
		for tau := timeutil.Ticks(0); tau < 1440; tau += 7 {
			if f.EvalExact(tau) != g.EvalExact(tau) {
				t.Fatalf("trial %d: reduction changed value at %d: %d vs %d\nbefore %v\nafter %v",
					trial, tau, f.EvalExact(tau), g.EvalExact(tau), f, g)
			}
		}
	}
}

// Reduction is idempotent and yields a dominance-free set.
func TestReduceIdempotentAndDominanceFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(25)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Dep: timeutil.Ticks(rng.Intn(1440)), W: timeutil.Ticks(rng.Intn(900))}
		}
		f := MustNew(day, pts)
		// On sorted, deduplicated points the linear check agrees with the
		// quadratic reference.
		if err := CheckCanonical(day, f.Points()); (err == nil) != f.IsDominanceFree() {
			t.Fatalf("trial %d: CheckCanonical says %v, IsDominanceFree %v on %v", trial, err, f.IsDominanceFree(), f)
		}
		f.Reduce()
		if !f.IsDominanceFree() {
			t.Fatalf("trial %d: reduced function not dominance-free: %v", trial, f)
		}
		if err := CheckCanonical(day, f.Points()); err != nil {
			t.Fatalf("trial %d: reduced function not canonical: %v", trial, err)
		}
		before := len(f.Points())
		if again := f.Reduce(); again != 0 || len(f.Points()) != before {
			t.Fatalf("trial %d: reduce not idempotent (deleted %d more)", trial, again)
		}
	}
}

// Fast Eval on reduced functions agrees with the exhaustive scan.
func TestEvalMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(15)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Dep: timeutil.Ticks(rng.Intn(1440)), W: timeutil.Ticks(rng.Intn(700))}
		}
		f := MustNew(day, pts)
		f.Reduce()
		for tau := timeutil.Ticks(0); tau < 1440; tau += 11 {
			if f.Eval(tau) != f.EvalExact(tau) {
				t.Fatalf("trial %d: Eval(%d)=%d, exact=%d on %v", trial, tau, f.Eval(tau), f.EvalExact(tau), f)
			}
		}
	}
}

// Every connection-point function satisfies the value-level FIFO property:
// f(τ1) ≤ Δ(τ1,τ2) + f(τ2), i.e. departing later never lets you arrive
// earlier when the waiting time is accounted for.
func TestValueFIFOProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Dep: timeutil.Ticks(rng.Intn(1440)), W: timeutil.Ticks(rng.Intn(500))}
		}
		f := MustNew(day, pts)
		for t1 := timeutil.Ticks(0); t1 < 1440; t1 += 37 {
			for t2 := t1; t2 < 1440; t2 += 53 {
				if f.EvalExact(t1) > day.Delta(t1, t2)+f.EvalExact(t2) {
					t.Fatalf("FIFO violated at (%d,%d) on %v", t1, t2, f)
				}
			}
		}
	}
}

func TestEvalArrival(t *testing.T) {
	f := MustNew(day, []Point{{480, 60}})
	f.Reduce()
	if got := f.EvalArrival(400); got != 540 {
		t.Errorf("EvalArrival(400) = %d, want 540", got)
	}
	// Absolute times past the period: departing day 1 at 07:00 (1860).
	if got := f.EvalArrival(1860); got != 1980 {
		t.Errorf("EvalArrival(1860) = %d, want 1980 (day 1, 09:00)", got)
	}
	empty := MustNew(day, nil)
	if !empty.EvalArrival(100).IsInf() {
		t.Error("EvalArrival on empty function must be infinite")
	}
}

func TestNextDeparture(t *testing.T) {
	f := MustNew(day, []Point{{480, 60}, {720, 40}})
	f.Reduce()
	p, wait := f.NextDeparture(500)
	if p.Dep != 720 || wait != 220 {
		t.Errorf("NextDeparture(500) = %v wait %d", p, wait)
	}
	p, wait = f.NextDeparture(1000)
	if p.Dep != 480 || wait != 920 {
		t.Errorf("NextDeparture(1000) = %v wait %d (wrap)", p, wait)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NextDeparture on unreduced function must panic")
			}
		}()
		g := MustNew(day, []Point{{1, 1}})
		g.NextDeparture(0)
	}()
}

func TestFromArrivals(t *testing.T) {
	deps := []timeutil.Ticks{480, 500, 520}
	arrs := []timeutil.Ticks{700, 590, timeutil.Infinity}
	f, err := FromArrivals(day, deps, arrs)
	if err != nil {
		t.Fatal(err)
	}
	// (480,220) arrives 700, dominated by (500,90) arriving 590; 520 pruned.
	if f.NumPoints() != 1 || f.Points()[0] != (Point{500, 90}) {
		t.Fatalf("got %v", f.Points())
	}
	if _, err := FromArrivals(day, deps, arrs[:2]); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := FromArrivals(day, []timeutil.Ticks{500}, []timeutil.Ticks{400}); err == nil {
		t.Error("arrival before departure must error")
	}
}

func TestMerge(t *testing.T) {
	f := MustNew(day, []Point{{480, 60}})
	g := MustNew(day, []Point{{480, 30}, {600, 20}})
	m := Merge(f, g)
	for tau := timeutil.Ticks(0); tau < 1440; tau += 13 {
		want := timeutil.Min(f.EvalExact(tau), g.EvalExact(tau))
		if got := m.EvalExact(tau); got != want {
			t.Fatalf("Merge value at %d: got %d want %d", tau, got, want)
		}
	}
}

func TestEqual(t *testing.T) {
	f := MustNew(day, []Point{{480, 200}, {500, 30}})
	g := MustNew(day, []Point{{500, 30}})
	if !Equal(f, g) {
		t.Error("functions equal after reduction must compare Equal")
	}
	h := MustNew(day, []Point{{500, 31}})
	if Equal(f, h) {
		t.Error("different functions compare Equal")
	}
	other := MustNew(timeutil.NewPeriod(100), []Point{{50, 30}})
	if Equal(f, other) {
		t.Error("different periods compare Equal")
	}
}

func TestMinMax(t *testing.T) {
	f := MustNew(day, []Point{{480, 60}, {500, 30}, {700, 90}})
	min, max := f.MinMax()
	if min != 30 || max != 90 {
		t.Errorf("MinMax = %d,%d want 30,90", min, max)
	}
	e := MustNew(day, nil)
	min, max = e.MinMax()
	if !min.IsInf() || !max.IsInf() {
		t.Error("empty MinMax must be infinite")
	}
}

func TestStringSmoke(t *testing.T) {
	if MustNew(day, nil).String() != "ttf{∞}" {
		t.Error("empty String")
	}
	if s := MustNew(day, []Point{{1, 2}}).String(); s != "ttf{(1,2)}" {
		t.Errorf("String = %q", s)
	}
}

// quick.Check: merging a function with itself is identity (after reduction).
func TestMergeSelfIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Dep: timeutil.Ticks(rng.Intn(1440)), W: timeutil.Ticks(rng.Intn(300))}
		}
		g := MustNew(day, pts)
		return Equal(Merge(g, g), g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Merge is commutative and associative (as pointwise minimum must be).
func TestMergeAlgebraicLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	mk := func() *Function {
		n := 1 + rng.Intn(8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Dep: timeutil.Ticks(rng.Intn(1440)), W: timeutil.Ticks(rng.Intn(400))}
		}
		return MustNew(day, pts)
	}
	for trial := 0; trial < 50; trial++ {
		f, g, h := mk(), mk(), mk()
		if !Equal(Merge(f, g), Merge(g, f)) {
			t.Fatalf("trial %d: merge not commutative", trial)
		}
		if !Equal(Merge(Merge(f, g), h), Merge(f, Merge(g, h))) {
			t.Fatalf("trial %d: merge not associative", trial)
		}
	}
}

// Function values are always within [minW, π + maxW]: at worst you wait a
// full period for the best connection.
func TestEvalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Dep: timeutil.Ticks(rng.Intn(1440)), W: timeutil.Ticks(rng.Intn(500))}
		}
		f := MustNew(day, pts)
		f.Reduce()
		mn, mx := f.MinMax()
		for tau := timeutil.Ticks(0); tau < 1440; tau += 61 {
			v := f.Eval(tau)
			if v < mn || v >= 1440+mx {
				t.Fatalf("trial %d: Eval(%d)=%d outside [%d, %d)", trial, tau, v, mn, 1440+mx)
			}
		}
	}
}

// Periodicity: f(τ) == f(τ + k·π) for absolute times.
func TestEvalPeriodicity(t *testing.T) {
	f := MustNew(day, []Point{{480, 60}, {900, 45}})
	f.Reduce()
	for tau := timeutil.Ticks(0); tau < 1440; tau += 77 {
		if f.Eval(tau) != f.Eval(tau+1440) || f.Eval(tau) != f.Eval(tau+4320) {
			t.Fatalf("Eval not periodic at %d", tau)
		}
	}
}

// AppendReduced gives exactly what New and Reduce give for the same labels,
// in any order and with departures outside Π, leaves dst's prefix alone and
// allocates nothing when dst has room.
func TestAppendReducedMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	prefix := []Point{{1, 2}, {3, 4}}
	for trial := 0; trial < 300; trial++ {
		k := rng.Intn(30)
		deps := make([]timeutil.Ticks, k)
		arrs := make([]timeutil.Ticks, k)
		var pts []Point
		for i := range deps {
			deps[i] = timeutil.Ticks(rng.Intn(1440))
			if trial%2 == 0 {
				deps[i] = timeutil.Ticks(i * 1440 / max(k, 1)) // sorted, as a search gives them
			}
			if rng.Intn(10) == 0 {
				deps[i] += 1440
			}
			arrs[i] = deps[i] + timeutil.Ticks(rng.Intn(600))
			if rng.Intn(5) == 0 {
				arrs[i] = timeutil.Infinity
				continue
			}
			pts = append(pts, Point{Dep: deps[i], W: arrs[i] - deps[i]})
		}
		want := MustNew(day, pts)
		want.Reduce()
		dst := append(make([]Point, 0, len(prefix)+k), prefix...)
		got, err := AppendReduced(dst, day, deps, arrs)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want.Points()) {
			t.Fatalf("trial %d: got %v, want %v after %v", trial, got, want.Points(), prefix)
		}
		if a := testing.AllocsPerRun(5, func() { _, _ = AppendReduced(dst[:len(prefix)], day, deps, arrs) }); a != 0 {
			t.Fatalf("trial %d: %v allocations with room in dst", trial, a)
		}
	}
	dst := []Point{{1, 2}}
	if got, err := AppendReduced(dst, day, []timeutil.Ticks{500}, []timeutil.Ticks{400}); err == nil || len(got) != 1 {
		t.Fatalf("arrival before departure: %v, %v", got, err)
	}
}

// NextPoint is the lower bound Eval and NextDeparture share: on every
// reduced function and time it names the point of least wait + duration.
func TestNextPointMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		pts := make([]Point, rng.Intn(12))
		for i := range pts {
			pts[i] = Point{Dep: timeutil.Ticks(rng.Intn(1440)), W: timeutil.Ticks(rng.Intn(700))}
		}
		f := MustNew(day, pts)
		f.Reduce()
		for tau := timeutil.Ticks(-1440); tau < 3*1440; tau += 13 {
			p, wait := NextPoint(day, f.Points(), tau)
			if got, want := wait+p.W, f.EvalExact(tau); got != want {
				t.Fatalf("trial %d: NextPoint(%d) = %v wait %d, exact %d on %v", trial, tau, p, wait, want, f)
			}
		}
	}
}
