package stationgraph

import (
	"math/rand"
	"testing"

	"transit/internal/timetable"
	"transit/internal/timeutil"
)

var day = timeutil.NewPeriod(1440)

// starNetwork: hub H connected to leaves L0..L3 in both directions, and a
// chain L3→L4→L5 hanging off one leaf.
func starNetwork(t testing.TB) *timetable.Timetable {
	t.Helper()
	b := timetable.NewBuilder(day)
	h := b.AddStation("H", 5)
	var leaves []timetable.StationID
	for i := 0; i < 4; i++ {
		leaves = append(leaves, b.AddStation("L", 2))
	}
	l4 := b.AddStation("L4", 2)
	l5 := b.AddStation("L5", 2)
	for i, l := range leaves {
		dep := timeutil.Ticks(400 + 10*i)
		b.AddTrainRun("out", []timetable.StationID{h, l}, dep, []timeutil.Ticks{7}, 0)
		b.AddTrainRun("in", []timetable.StationID{l, h}, dep+30, []timeutil.Ticks{7}, 0)
	}
	b.AddTrainRun("chain", []timetable.StationID{leaves[3], l4, l5}, 600, []timeutil.Ticks{5, 5}, 1)
	b.AddTrainRun("chain-back", []timetable.StationID{l5, l4, leaves[3]}, 700, []timeutil.Ticks{5, 5}, 1)
	tt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestBuildStationGraph(t *testing.T) {
	tt := starNetwork(t)
	g := Build(tt)
	if g.NumStations() != 7 {
		t.Fatalf("stations = %d", g.NumStations())
	}
	// Hub has degree 4 (the four leaves).
	if g.Degree(0) != 4 {
		t.Fatalf("hub degree = %d, want 4", g.Degree(0))
	}
	// L4 (id 5) has neighbours L3 and L5.
	if g.Degree(5) != 2 {
		t.Fatalf("L4 degree = %d, want 2", g.Degree(5))
	}
	// Arcs carry the minimum travel time.
	for _, a := range g.Out(0) {
		if a.W != 7 {
			t.Fatalf("hub out-arc weight %d, want 7", a.W)
		}
	}
	// Forward and reverse adjacency are mirror images.
	for s := timetable.StationID(0); int(s) < g.NumStations(); s++ {
		for _, a := range g.Out(s) {
			found := false
			for _, r := range g.In(a.To) {
				if r.To == s && r.W == a.W {
					found = true
				}
			}
			if !found {
				t.Fatalf("arc %d→%d missing in reverse adjacency", s, a.To)
			}
		}
	}
}

func TestComputeViasChain(t *testing.T) {
	tt := starNetwork(t)
	g := Build(tt)
	// Mark the hub (0) and L3 (4) as transfer stations. Target L5 (6):
	// DFS on reverse graph: L5 ← L4 ← L3(transfer, pruned).
	isTransfer := make([]bool, 7)
	isTransfer[0] = true
	isTransfer[4] = true
	v := g.ComputeVias(6, isTransfer)
	if len(v.Via) != 1 || v.Via[0] != 4 {
		t.Fatalf("via(L5) = %v, want [4]", v.Via)
	}
	if len(v.Local) != 1 || v.Local[0] != 5 {
		t.Fatalf("local(L5) = %v, want [5]", v.Local)
	}
	if !v.IsLocalSource(5) || !v.IsLocalSource(6) {
		t.Fatal("L4 and L5 itself must be local sources")
	}
	if v.IsLocalSource(0) || v.IsLocalSource(1) {
		t.Fatal("hub and leaves are not local to L5")
	}
}

func TestComputeViasTransferTarget(t *testing.T) {
	tt := starNetwork(t)
	g := Build(tt)
	isTransfer := make([]bool, 7)
	isTransfer[0] = true
	v := g.ComputeVias(0, isTransfer)
	if len(v.Via) != 1 || v.Via[0] != 0 || len(v.Local) != 0 {
		t.Fatalf("transfer target: via=%v local=%v", v.Via, v.Local)
	}
	if !v.IsLocalSource(0) {
		t.Fatal("target itself must be local")
	}
}

func TestComputeViasNoTransfers(t *testing.T) {
	tt := starNetwork(t)
	g := Build(tt)
	isTransfer := make([]bool, 7)
	v := g.ComputeVias(6, isTransfer)
	if len(v.Via) != 0 {
		t.Fatalf("no transfer stations but via=%v", v.Via)
	}
	// Everything reachable in reverse is local: L5←L4←L3←H←L0..L2.
	if len(v.Local) != 6 {
		t.Fatalf("local = %v, want all 6 others", v.Local)
	}
}

func TestSelectByDegree(t *testing.T) {
	tt := starNetwork(t)
	g := Build(tt)
	marked := g.SelectByDegree(2)
	// Only the hub (degree 4) exceeds 2; L3 has degree 2 (hub + L4).
	if !marked[0] {
		t.Fatal("hub not selected")
	}
	if CountMarked(marked) != 1 {
		t.Fatalf("selected %d stations, want 1: %v", CountMarked(marked), marked)
	}
}

func TestSelectByContractionKeepsHub(t *testing.T) {
	tt := starNetwork(t)
	g := Build(tt)
	marked := g.SelectByContraction(2)
	if CountMarked(marked) != 2 {
		t.Fatalf("kept %d, want 2", CountMarked(marked))
	}
	if !marked[0] {
		t.Fatalf("contraction removed the hub; kept %v", marked)
	}
}

func TestSelectByContractionBounds(t *testing.T) {
	tt := starNetwork(t)
	g := Build(tt)
	all := g.SelectByContraction(100)
	if CountMarked(all) != 7 {
		t.Fatal("keep >= n must mark all")
	}
	none := g.SelectByContraction(0)
	if CountMarked(none) != 0 {
		t.Fatalf("keep 0 marked %d", CountMarked(none))
	}
	neg := g.SelectByContraction(-5)
	if CountMarked(neg) != 0 {
		t.Fatal("negative keep must mark none")
	}
}

// Contraction must preserve shortest-path distances among survivors (that
// is its entire purpose); verify on random graphs against Floyd-Warshall.
func TestContractionPreservesDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(8)
		// Random weighted digraph, ~25% density.
		w := make([][]timeutil.Ticks, n)
		for i := range w {
			w[i] = make([]timeutil.Ticks, n)
			for j := range w[i] {
				w[i][j] = timeutil.Infinity
			}
			w[i][i] = 0
		}
		g := &Graph{n: n, out: make([][]Arc, n), in: make([][]Arc, n), deg: make([]int, n)}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Intn(4) == 0 {
					wt := timeutil.Ticks(1 + rng.Intn(20))
					g.out[i] = append(g.out[i], Arc{To: timetable.StationID(j), W: wt})
					g.in[j] = append(g.in[j], Arc{To: timetable.StationID(i), W: wt})
					w[i][j] = wt
				}
			}
		}
		// Floyd-Warshall ground truth.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if w[i][k].IsInf() {
					continue
				}
				for j := 0; j < n; j++ {
					if !w[k][j].IsInf() && w[i][k]+w[k][j] < w[i][j] {
						w[i][j] = w[i][k] + w[k][j]
					}
				}
			}
		}
		keep := 2 + rng.Intn(3)
		c := newContractor(g)
		c.run(n - keep)
		// Distances among survivors in the overlay must match ground truth.
		var survivors []int
		for s := 0; s < n; s++ {
			if !c.contracted[s] {
				survivors = append(survivors, s)
			}
		}
		for _, src := range survivors {
			// Dijkstra on the overlay restricted to uncontracted nodes.
			dist := make([]timeutil.Ticks, n)
			for i := range dist {
				dist[i] = timeutil.Infinity
			}
			dist[src] = 0
			visited := make([]bool, n)
			for {
				u, best := -1, timeutil.Infinity
				for i := 0; i < n; i++ {
					if !visited[i] && !c.contracted[i] && dist[i] < best {
						u, best = i, dist[i]
					}
				}
				if u < 0 {
					break
				}
				visited[u] = true
				for to, wt := range c.out[u] {
					if c.contracted[to] {
						continue
					}
					if nd := dist[u] + wt; nd < dist[to] {
						dist[to] = nd
					}
				}
			}
			for _, dst := range survivors {
				if dist[dst] != w[src][dst] {
					t.Fatalf("trial %d: overlay distance %d→%d is %d, want %d (survivors %v)",
						trial, src, dst, dist[dst], w[src][dst], survivors)
				}
			}
		}
	}
}

func TestSelectionString(t *testing.T) {
	if SelectionString([]bool{true, false, true}) != "2/3 transfer stations" {
		t.Fatal("SelectionString format changed")
	}
}
