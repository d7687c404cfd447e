// Package gen generates deterministic synthetic public transportation
// networks with the structural characteristics of the paper's five inputs:
// dense city bus grids with pronounced rush hours and a night break (Oahu,
// Los Angeles, Washington D.C.) and sparse railway topologies with few
// departures per station (Germany, Europe).
//
// The paper's GTFS and HaCon datasets are not redistributable or available
// offline; the generator reproduces the properties the algorithms are
// sensitive to — connections-per-station density, route structure, and the
// daily departure-time distribution — at configurable scale. All generation
// is deterministic in the seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// Kind distinguishes the two structural families.
type Kind int

const (
	// Bus generates a jittered grid with meandering high-frequency routes.
	Bus Kind = iota
	// Rail generates a geometric city network with long, infrequent lines.
	Rail
)

// Config parameterizes one synthetic network.
type Config struct {
	Name   string
	Kind   Kind
	Seed   int64
	Period timeutil.Ticks

	// Stations is the approximate number of stations (grid rounding may
	// adjust it slightly for Bus networks).
	Stations int
	// Routes is the number of directed routes to generate (each line of a
	// real network contributes two: one per direction).
	Routes int
	// RouteLen is the number of stations per route (mean; ±30% jitter).
	RouteLen int
	// TripsPerDay is the mean number of trips per route and day, spread
	// over the day by the Kind's frequency profile.
	TripsPerDay int
	// TransferMin/TransferMax bound per-station transfer times.
	TransferMin, TransferMax timeutil.Ticks
	// HopMin/HopMax bound per-hop travel times.
	HopMin, HopMax timeutil.Ticks
	// Dwell is the stop time at intermediate stations.
	Dwell timeutil.Ticks
}

// Family names the five network analogues of the paper's inputs.
type Family string

// The five families, each named after the paper input it stands in for;
// FamilyConfig holds their scale-1.0 sizes.
const (
	Oahu       Family = "oahu"
	LosAngeles Family = "losangeles"
	Washington Family = "washington"
	Germany    Family = "germany"
	Europe     Family = "europe"
)

// Families returns all families in the paper's table order.
func Families() []Family {
	return []Family{Oahu, LosAngeles, Washington, Germany, Europe}
}

// FamilyConfig returns the default configuration of a family, scaled by
// scale (1.0 = the sizes below; the paper's full-size networks correspond
// to roughly scale 10–17). Seed 0 picks the family default.
func FamilyConfig(f Family, scale float64, seed int64) (Config, error) {
	if scale <= 0 {
		return Config{}, fmt.Errorf("gen: non-positive scale %g", scale)
	}
	var cfg Config
	switch f {
	case Oahu:
		cfg = Config{
			Name: string(f), Kind: Bus, Stations: 400, Routes: 110, RouteLen: 13,
			TripsPerDay: 40, TransferMin: 1, TransferMax: 2, HopMin: 1, HopMax: 4, Dwell: 0,
		}
	case LosAngeles:
		cfg = Config{
			Name: string(f), Kind: Bus, Stations: 900, Routes: 230, RouteLen: 14,
			TripsPerDay: 36, TransferMin: 1, TransferMax: 3, HopMin: 1, HopMax: 4, Dwell: 0,
		}
	case Washington:
		cfg = Config{
			Name: string(f), Kind: Bus, Stations: 650, Routes: 160, RouteLen: 13,
			TripsPerDay: 36, TransferMin: 1, TransferMax: 3, HopMin: 1, HopMax: 4, Dwell: 0,
		}
	case Germany:
		cfg = Config{
			Name: string(f), Kind: Rail, Stations: 500, Routes: 140, RouteLen: 9,
			TripsPerDay: 24, TransferMin: 3, TransferMax: 6, HopMin: 8, HopMax: 45, Dwell: 1,
		}
	case Europe:
		cfg = Config{
			Name: string(f), Kind: Rail, Stations: 1500, Routes: 340, RouteLen: 9,
			TripsPerDay: 24, TransferMin: 3, TransferMax: 7, HopMin: 10, HopMax: 60, Dwell: 2,
		}
	default:
		return Config{}, fmt.Errorf("gen: unknown family %q", f)
	}
	cfg.Period = timeutil.DayMinutes
	cfg.Seed = seed
	if seed == 0 {
		cfg.Seed = int64(len(f))*7919 + 1
	}
	cfg.Stations = int(math.Round(float64(cfg.Stations) * scale))
	cfg.Routes = int(math.Round(float64(cfg.Routes) * scale))
	if cfg.Stations < 4 {
		cfg.Stations = 4
	}
	if cfg.Routes < 2 {
		cfg.Routes = 2
	}
	return cfg, nil
}

// hourlyWeights is a daily departure-frequency profile summing to 1.
type hourlyWeights [24]float64

func busProfile() hourlyWeights {
	w := hourlyWeights{
		0.8, 0.3, 0.15, 0.15, 0.4, 1.5, // 00–05: night break
		4, 7.5, 7.5, 5.5, 4.5, 4.5, // 06–11: morning rush
		4.5, 4.5, 5, 6, 7.5, 7.5, // 12–17: evening rush
		5.5, 4, 3, 2.2, 1.6, 1.2, // 18–23
	}
	return w.normalize()
}

func railProfile() hourlyWeights {
	w := hourlyWeights{
		0.4, 0.2, 0.2, 0.3, 0.8, 2, // sparse night trains
		3.5, 4.5, 4.5, 4, 4, 4,
		4, 4, 4, 4, 4.5, 4.5,
		4, 3.5, 2.5, 2, 1.2, 0.8,
	}
	return w.normalize()
}

func (w hourlyWeights) normalize() hourlyWeights {
	var sum float64
	for _, v := range w {
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Generate builds the synthetic timetable for the configuration.
func Generate(cfg Config) (*timetable.Timetable, error) {
	if cfg.Stations < 4 || cfg.Routes < 1 || cfg.RouteLen < 2 || cfg.TripsPerDay < 1 {
		return nil, fmt.Errorf("gen: degenerate config %+v", cfg)
	}
	if cfg.Period <= 0 {
		cfg.Period = timeutil.DayMinutes
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := timetable.NewBuilder(timeutil.NewPeriod(cfg.Period))

	var paths []pathSpec
	switch cfg.Kind {
	case Bus:
		paths = genBusTopology(cfg, rng, b)
	case Rail:
		paths = genRailTopology(cfg, rng, b)
	default:
		return nil, fmt.Errorf("gen: unknown kind %d", cfg.Kind)
	}

	profile := busProfile()
	if cfg.Kind == Rail {
		profile = railProfile()
	}

	// Per route: a fixed per-hop running time (so all trips share the
	// station sequence and similar speed), trips laid out by the profile.
	for ri, spec := range paths {
		path := spec.path
		hops := make([]timeutil.Ticks, len(path)-1)
		for h := range hops {
			hops[h] = cfg.HopMin + timeutil.Ticks(rng.Intn(int(cfg.HopMax-cfg.HopMin)+1))
		}
		trips := tripTimes(cfg, spec.tripFactor, profile, rng)
		for ti, dep := range trips {
			name := fmt.Sprintf("%s-r%d-t%d", cfg.Name, ri, ti)
			b.AddTrainRun(name, path, dep, hops, cfg.Dwell)
		}
	}
	return b.Build()
}

// pathSpec is a route's station sequence plus its relative trip frequency
// (1.0 = the configured TripsPerDay mean).
type pathSpec struct {
	path       []timetable.StationID
	tripFactor float64
}

// tripTimes spreads the route's trips over the day following the hourly
// profile, with small jitter, returning departure minutes. Trips are placed
// at quantiles of the cumulative profile, so even routes with very few
// daily trips (regional rail lines) get sensible departure times instead of
// losing them to per-hour rounding.
func tripTimes(cfg Config, factor float64, profile hourlyWeights, rng *rand.Rand) []timeutil.Ticks {
	total := int(math.Round(float64(cfg.TripsPerDay) * factor))
	if total < 1 {
		total = 1
	}
	// ±25% per-route variation keeps routes from being clones.
	total += rng.Intn(total/2+1) - total/4
	if total < 1 {
		total = 1
	}
	// Cumulative distribution over the 24 hours.
	var cum [25]float64
	for h := 0; h < 24; h++ {
		cum[h+1] = cum[h] + profile[h]
	}
	times := make([]timeutil.Ticks, 0, total)
	for j := 0; j < total; j++ {
		q := (float64(j) + 0.5) / float64(total) * cum[24]
		// Find the hour containing quantile q and interpolate within it.
		h := 0
		for h < 23 && cum[h+1] < q {
			h++
		}
		frac := 0.5
		if profile[h] > 0 {
			frac = (q - cum[h]) / profile[h]
		}
		m := int(float64(h*60) + frac*60)
		m += rng.Intn(9) - 4
		if m < 0 {
			m += int(cfg.Period)
		}
		t := timeutil.Ticks(m)
		if t >= cfg.Period {
			t -= cfg.Period
		}
		times = append(times, t)
	}
	return times
}

// genBusTopology builds a city bus network: a grid of intersection hubs
// whose connecting corridors are subdivided by intermediate stops served
// only by the lines running through that corridor — the degree structure of
// real bus networks (many degree-2 chain stops, few high-degree hubs),
// which is what makes transfer-station selection and local/via separation
// behave as in the paper. Coverage lines run along every row and column
// corridor (both directions, chunked to the route length); the remaining
// route budget is spent on meandering cross-town lines that share the same
// corridor stops.
func genBusTopology(cfg Config, rng *rand.Rand, b *timetable.Builder) []pathSpec {
	const sub = 3 // intermediate stops per corridor segment
	// stations ≈ w*h*(1+2*sub) ⇒ pick the intersection grid accordingly.
	cells := float64(cfg.Stations) / float64(1+2*sub)
	w := int(math.Round(math.Sqrt(cells * 1.4)))
	if w < 2 {
		w = 2
	}
	h := int(math.Round(cells / float64(w)))
	if h < 2 {
		h = 2
	}
	grid := make([][]timetable.StationID, h)
	for y := 0; y < h; y++ {
		grid[y] = make([]timetable.StationID, w)
		for x := 0; x < w; x++ {
			tr := cfg.TransferMin + timeutil.Ticks(rng.Intn(int(cfg.TransferMax-cfg.TransferMin)+1))
			grid[y][x] = b.AddStationAt(fmt.Sprintf("%s-x%d-%d", cfg.Name, x, y),
				tr, float64(x), float64(y))
		}
	}
	// Corridor stops between adjacent intersections, keyed by the lower
	// cell in reading order; hor[y][x] lies between (x,y) and (x+1,y).
	hor := make([][][]timetable.StationID, h)
	ver := make([][][]timetable.StationID, h)
	for y := 0; y < h; y++ {
		hor[y] = make([][]timetable.StationID, w)
		ver[y] = make([][]timetable.StationID, w)
		for x := 0; x < w; x++ {
			if x+1 < w {
				stops := make([]timetable.StationID, sub)
				for i := range stops {
					stops[i] = b.AddStationAt(fmt.Sprintf("%s-h%d-%d.%d", cfg.Name, x, y, i),
						cfg.TransferMin, float64(x)+float64(i+1)/float64(sub+1), float64(y))
				}
				hor[y][x] = stops
			}
			if y+1 < h {
				stops := make([]timetable.StationID, sub)
				for i := range stops {
					stops[i] = b.AddStationAt(fmt.Sprintf("%s-v%d-%d.%d", cfg.Name, x, y, i),
						cfg.TransferMin, float64(x), float64(y)+float64(i+1)/float64(sub+1))
				}
				ver[y][x] = stops
			}
		}
	}
	// expand turns an intersection sequence into the full stop sequence
	// through the corridors.
	expand := func(cells [][2]int) []timetable.StationID {
		var out []timetable.StationID
		for i, c := range cells {
			if i > 0 {
				p := cells[i-1]
				var stops []timetable.StationID
				var reversed bool
				switch {
				case p[1] == c[1] && p[0]+1 == c[0]:
					stops = hor[p[1]][p[0]]
				case p[1] == c[1] && p[0]-1 == c[0]:
					stops, reversed = hor[c[1]][c[0]], true
				case p[0] == c[0] && p[1]+1 == c[1]:
					stops = ver[p[1]][p[0]]
				case p[0] == c[0] && p[1]-1 == c[1]:
					stops, reversed = ver[c[1]][c[0]], true
				default:
					panic("gen: non-adjacent cells in corridor expansion")
				}
				if reversed {
					for j := len(stops) - 1; j >= 0; j-- {
						out = append(out, stops[j])
					}
				} else {
					out = append(out, stops...)
				}
			}
			out = append(out, grid[c[1]][c[0]])
		}
		return out
	}
	var paths []pathSpec
	addBoth := func(path []timetable.StationID, factor float64) {
		if len(path) < 2 {
			return
		}
		rev := make([]timetable.StationID, len(path))
		for i, s := range path {
			rev[len(path)-1-i] = s
		}
		paths = append(paths, pathSpec{path, factor}, pathSpec{rev, factor})
	}
	// Row and column lines cover every corridor.
	segLen := cfg.RouteLen * (sub + 1) // route length in expanded stops
	for y := 0; y < h; y++ {
		cells := make([][2]int, w)
		for x := 0; x < w; x++ {
			cells[x] = [2]int{x, y}
		}
		for _, seg := range chunkPath(expand(cells), segLen) {
			addBoth(seg, 1.0)
		}
	}
	for x := 0; x < w; x++ {
		cells := make([][2]int, h)
		for y := 0; y < h; y++ {
			cells[y] = [2]int{x, y}
		}
		for _, seg := range chunkPath(expand(cells), segLen) {
			addBoth(seg, 1.0)
		}
	}
	// Meandering cross-town lines.
	for len(paths) < cfg.Routes {
		length := jitterLen(cfg.RouteLen, rng)
		cells := walkCells(w, h, length, rng)
		if len(cells) < 2 {
			continue
		}
		addBoth(expand(cells), 1.0)
	}
	return paths
}

// walkCells walks a mostly-straight lattice path over the intersection
// grid with occasional turns.
func walkCells(w, h, length int, rng *rand.Rand) [][2]int {
	x, y := rng.Intn(w), rng.Intn(h)
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	d := rng.Intn(4)
	cells := [][2]int{{x, y}}
	seen := map[[2]int]bool{{x, y}: true}
	for len(cells) < length {
		if rng.Intn(5) == 0 {
			d = rng.Intn(4)
		}
		nx, ny := x+dirs[d][0], y+dirs[d][1]
		tries := 0
		for (nx < 0 || nx >= w || ny < 0 || ny >= h || seen[[2]int{nx, ny}]) && tries < 6 {
			d = rng.Intn(4)
			nx, ny = x+dirs[d][0], y+dirs[d][1]
			tries++
		}
		if nx < 0 || nx >= w || ny < 0 || ny >= h || seen[[2]int{nx, ny}] {
			break
		}
		x, y = nx, ny
		seen[[2]int{x, y}] = true
		cells = append(cells, [2]int{x, y})
	}
	return cells
}

// chunkPath splits a path into segments of at most routeLen stations that
// overlap by one station, so riders can transfer between consecutive
// segments of the same line.
func chunkPath(path []timetable.StationID, routeLen int) [][]timetable.StationID {
	if routeLen < 2 {
		routeLen = 2
	}
	var segs [][]timetable.StationID
	for lo := 0; lo < len(path)-1; lo += routeLen - 1 {
		hi := lo + routeLen
		if hi > len(path) {
			hi = len(path)
		}
		segs = append(segs, path[lo:hi])
		if hi == len(path) {
			break
		}
	}
	return segs
}

// genRailTopology scatters cities in the plane and guarantees strong
// connectivity with regional lines chunked from a walk of the Euclidean
// minimum spanning tree (each segment also runs reversed); the remaining
// route budget is spent on long express lines through the kNN city graph.
// Regional lines run a third of the express frequency, mirroring real rail
// timetables.
func genRailTopology(cfg Config, rng *rand.Rand, b *timetable.Builder) []pathSpec {
	n := cfg.Stations
	xs := make([]float64, n)
	ys := make([]float64, n)
	ids := make([]timetable.StationID, n)
	side := math.Sqrt(float64(n)) * 10
	for i := 0; i < n; i++ {
		xs[i], ys[i] = rng.Float64()*side, rng.Float64()*side
		tr := cfg.TransferMin + timeutil.Ticks(rng.Intn(int(cfg.TransferMax-cfg.TransferMin)+1))
		ids[i] = b.AddStationAt(fmt.Sprintf("%s-c%d", cfg.Name, i), tr, xs[i], ys[i])
	}
	dist2 := func(i, j int) float64 {
		dx, dy := xs[i]-xs[j], ys[i]-ys[j]
		return dx*dx + dy*dy
	}
	// Prim MST over the complete Euclidean graph.
	inTree := make([]bool, n)
	best := make([]float64, n)
	bestTo := make([]int, n)
	for i := range best {
		best[i] = math.Inf(1)
		bestTo[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		best[j] = dist2(0, j)
		bestTo[j] = 0
	}
	treeAdj := make([][]int, n)
	for added := 1; added < n; added++ {
		u, bd := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && best[j] < bd {
				u, bd = j, best[j]
			}
		}
		inTree[u] = true
		treeAdj[u] = append(treeAdj[u], bestTo[u])
		treeAdj[bestTo[u]] = append(treeAdj[bestTo[u]], u)
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if d := dist2(u, j); d < best[j] {
					best[j] = d
					bestTo[j] = u
				}
			}
		}
	}
	// DFS walk of the tree (each edge traversed twice) → regional lines.
	walk := make([]timetable.StationID, 0, 2*n)
	visited := make([]bool, n)
	var dfs func(int)
	dfs = func(u int) {
		visited[u] = true
		walk = append(walk, ids[u])
		for _, v := range treeAdj[u] {
			if !visited[v] {
				dfs(v)
				walk = append(walk, ids[u])
			}
		}
	}
	dfs(0)
	var paths []pathSpec
	var regional int
	addBoth := func(path []timetable.StationID, factor float64) {
		if len(path) < 2 {
			return
		}
		rev := make([]timetable.StationID, len(path))
		for i, s := range path {
			rev[len(path)-1-i] = s
		}
		paths = append(paths, pathSpec{path, factor}, pathSpec{rev, factor})
	}
	const regionalFactor = 1.0 / 4
	for _, seg := range chunkPath(walk, cfg.RouteLen) {
		addBoth(seg, regionalFactor)
	}
	regional = len(paths)

	// kNN adjacency (k=3) plus tree edges for express-line walks.
	const k = 3
	adj := make([][]int, n)
	copy(adj, treeAdj)
	for i := range adj {
		adj[i] = append([]int(nil), treeAdj[i]...)
	}
	for i := 0; i < n; i++ {
		type cand struct {
			j int
			d float64
		}
		cands := make([]cand, 0, n-1)
		for j := 0; j < n; j++ {
			if i != j {
				cands = append(cands, cand{j, dist2(i, j)})
			}
		}
		for a := 0; a < k && a < len(cands); a++ {
			min := a
			for b := a + 1; b < len(cands); b++ {
				if cands[b].d < cands[min].d {
					min = b
				}
			}
			cands[a], cands[min] = cands[min], cands[a]
			adj[i] = append(adj[i], cands[a].j)
			adj[cands[a].j] = append(adj[cands[a].j], i)
		}
	}
	for i := range adj {
		m := map[int]bool{}
		var out []int
		for _, j := range adj[i] {
			if !m[j] {
				m[j] = true
				out = append(out, j)
			}
		}
		adj[i] = out
	}
	for len(paths)-regional < cfg.Routes {
		length := jitterLen(cfg.RouteLen, rng)
		start := rng.Intn(n)
		path := []timetable.StationID{ids[start]}
		cur, prev := start, -1
		for len(path) < length {
			next := -1
			cands := adj[cur]
			if len(cands) == 0 {
				break
			}
			for tries := 0; tries < 4; tries++ {
				c := cands[rng.Intn(len(cands))]
				if c != prev && !contains(path, ids[c]) {
					next = c
					break
				}
			}
			if next < 0 {
				break
			}
			prev, cur = cur, next
			path = append(path, ids[cur])
		}
		addBoth(path, 1.0)
	}
	return paths
}

func jitterLen(mean int, rng *rand.Rand) int {
	lo := mean - mean*3/10
	hi := mean + mean*3/10
	if lo < 2 {
		lo = 2
	}
	if hi < lo {
		hi = lo
	}
	return lo + rng.Intn(hi-lo+1)
}

func contains(path []timetable.StationID, s timetable.StationID) bool {
	for _, p := range path {
		if p == s {
			return true
		}
	}
	return false
}
