// Package stationgraph implements the station graph G_S of Section 4: the
// condensation of a timetable with one node per station and an edge
// (S1, S2) whenever at least one train runs from S1 to S2. On top of it,
// the package provides
//
//   - the on-the-fly via-station computation: a DFS from the target in the
//     reverse station graph, pruned at transfer stations, yielding via(T),
//     local(T) and the local/global query classification;
//   - the two transfer-station selection strategies of the paper:
//     contraction (remove unimportant stations, adding shortcuts that
//     preserve distances between survivors) and station-graph degree.
package stationgraph

import (
	"fmt"
	"slices"
	"sort"

	"transit/internal/timetable"
	"transit/internal/timeutil"
)

// Arc is a directed edge of the station graph, weighted with the minimum
// travel time of any elementary connection between the two stations (the
// weight only steers contraction; correctness never depends on it).
type Arc struct {
	To timetable.StationID
	W  timeutil.Ticks
}

// Graph is the station graph G_S with forward and reverse adjacency.
// Immutable after Build; safe for concurrent readers. Each adjacency is a
// CSR: the rows are windows of one arc array, sorted by neighbour.
type Graph struct {
	n   int
	out [][]Arc
	in  [][]Arc
	deg []int // undirected degree: number of distinct neighbours
}

// Build condenses the timetable into its station graph: one arc per ordered
// station pair joined by a connection (cancelled ones included) or a
// footpath, weighted with the least duration among them.
func Build(tt *timetable.Timetable) *Graph {
	n := tt.NumStations()
	start := make([]int32, n+1)
	for _, c := range tt.Connections {
		start[c.From+1]++
	}
	for _, f := range tt.Footpaths {
		start[f.From+1]++
	}
	for s := 0; s < n; s++ {
		start[s+1] += start[s]
	}
	// Every candidate arc as a to<<32 | weight key in its tail's row; sorted,
	// a row's first key per head carries the least weight.
	keys := make([]uint64, start[n])
	fill := append([]int32(nil), start[:n]...)
	put := func(from, to timetable.StationID, w timeutil.Ticks) {
		keys[fill[from]] = uint64(to)<<32 | uint64(uint32(w))
		fill[from]++
	}
	for _, c := range tt.Connections {
		put(c.From, c.To, c.Duration())
	}
	for _, f := range tt.Footpaths {
		put(f.From, f.To, f.Walk)
	}
	offsets := make([]int32, n+1)
	arcs := make([]Arc, 0, len(keys))
	for s := 0; s < n; s++ {
		row := keys[start[s]:start[s+1]]
		slices.Sort(row)
		for i, k := range row {
			if to := timetable.StationID(k >> 32); i == 0 || to != arcs[len(arcs)-1].To {
				arcs = append(arcs, Arc{To: to, W: timeutil.Ticks(uint32(k))})
			}
		}
		offsets[s+1] = int32(len(arcs))
	}
	return newGraph(offsets, arcs)
}

// newGraph completes a graph from its forward CSR (rows sorted by head, no
// duplicates): the reverse rows come out of one counting pass already
// sorted by tail, and a station's degree is a merge of its two rows.
func newGraph(offsets []int32, arcs []Arc) *Graph {
	n := len(offsets) - 1
	g := &Graph{n: n, out: make([][]Arc, n), in: make([][]Arc, n), deg: make([]int, n)}
	start := make([]int32, n+1)
	for _, a := range arcs {
		start[a.To+1]++
	}
	for s := 0; s < n; s++ {
		start[s+1] += start[s]
	}
	rev := make([]Arc, len(arcs))
	for s := 0; s < n; s++ {
		g.out[s] = arcs[offsets[s]:offsets[s+1]:offsets[s+1]]
		g.in[s] = rev[start[s]:start[s]:start[s+1]]
	}
	for s := 0; s < n; s++ {
		for _, a := range g.out[s] {
			g.in[a.To] = append(g.in[a.To], Arc{To: timetable.StationID(s), W: a.W})
		}
	}
	for s := 0; s < n; s++ {
		out, in := g.out[s], g.in[s]
		d := len(out) + len(in)
		for i, j := 0, 0; i < len(out) && j < len(in); {
			switch {
			case out[i].To < in[j].To:
				i++
			case out[i].To > in[j].To:
				j++
			default:
				d--
				i++
				j++
			}
		}
		g.deg[s] = d
	}
	return g
}

// NumStations returns the number of stations.
func (g *Graph) NumStations() int { return g.n }

// Out returns the forward arcs of s (shared slice).
func (g *Graph) Out(s timetable.StationID) []Arc { return g.out[s] }

// In returns the reverse arcs of s (shared slice).
func (g *Graph) In(s timetable.StationID) []Arc { return g.in[s] }

// Degree returns the undirected degree of s (distinct neighbours).
func (g *Graph) Degree(s timetable.StationID) int { return g.deg[s] }

// Vias is the result of the via-station computation for a target station.
// The zero value is ready for (re)use with ComputeViasInto: a Vias retains
// its marks and slices across computations, so steady-state query traffic
// (one Vias per core.Workspace) runs the DFS without allocating.
type Vias struct {
	// Target is the station the DFS started from.
	Target timetable.StationID
	// Via are the transfer stations adjacent to the local set: every best
	// connection of a global query must pass through one of them.
	Via []timetable.StationID
	// Local are the non-transfer stations L with a simple path from L to
	// Target through non-transfer stations only (excluding Target itself).
	Local []timetable.StationID

	// Generation-stamped marks (cf. core.Workspace): a slot is set for the
	// current computation iff its stamp equals gen, so per-query reset is a
	// counter increment instead of a map allocation.
	gen     uint32
	seen    []uint32 // Target ∪ Local marks for O(1) locality tests
	viaMark []uint32 // dedup marks for Via collection
	stack   []timetable.StationID
}

// IsLocalSource reports whether an S→Target query is local, i.e. S lies in
// local(Target) ∪ {Target}. Global queries must cross a via station.
func (v *Vias) IsLocalSource(s timetable.StationID) bool {
	return int(s) >= 0 && int(s) < len(v.seen) && v.seen[s] == v.gen
}

// ComputeVias runs the reverse DFS from target, pruned at transfer
// stations, per Section 4 of the paper. isTransfer[s] marks S_trans. In the
// special case target ∈ S_trans, local(T) = ∅ and via(T) = {T}.
func (g *Graph) ComputeVias(target timetable.StationID, isTransfer []bool) *Vias {
	return g.ComputeViasInto(new(Vias), target, isTransfer)
}

// ComputeViasInto is the scratch-reusing form of ComputeVias: the DFS runs
// on v's retained marks and result slices and returns v. The previous
// contents of v are invalidated. Steady-state callers (core.Workspace)
// allocate nothing here beyond the first call's mark arrays.
func (g *Graph) ComputeViasInto(v *Vias, target timetable.StationID, isTransfer []bool) *Vias {
	if len(v.seen) < g.n {
		v.seen = make([]uint32, g.n)
		v.viaMark = make([]uint32, g.n)
		v.gen = 0
	}
	v.gen++
	if v.gen == 0 { // stamp wrap-around: wipe so stale marks cannot collide
		clear(v.seen)
		clear(v.viaMark)
		v.gen = 1
	}
	v.Target = target
	v.Via = v.Via[:0]
	v.Local = v.Local[:0]
	v.seen[target] = v.gen
	if isTransfer[target] {
		v.Via = append(v.Via, target)
		return v
	}
	stack := append(v.stack[:0], target)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.in[s] {
			p := a.To
			if isTransfer[p] {
				if v.viaMark[p] != v.gen {
					v.viaMark[p] = v.gen // touched, but pruned: do not descend
					v.Via = append(v.Via, p)
				}
				continue
			}
			if v.seen[p] != v.gen {
				v.seen[p] = v.gen
				v.Local = append(v.Local, p)
				stack = append(stack, p)
			}
		}
	}
	v.stack = stack
	slices.Sort(v.Via)
	slices.Sort(v.Local)
	return v
}

// SelectByDegree marks every station with undirected station-graph degree
// greater than k as a transfer station (the paper's "deg > k" strategy).
func (g *Graph) SelectByDegree(k int) []bool {
	marked := make([]bool, g.n)
	for s := 0; s < g.n; s++ {
		marked[s] = g.deg[s] > k
	}
	return marked
}

// SelectByContraction contracts stations in increasing order of importance
// until keep stations survive, and marks the survivors. Importance follows
// the contraction-hierarchies heuristic [12]: edge difference (shortcuts
// added minus arcs removed) plus the number of already-contracted
// neighbours, maintained lazily. Shortcuts preserve distances among the
// surviving stations, so later contraction decisions see faithful weights.
func (g *Graph) SelectByContraction(keep int) []bool {
	if keep < 0 {
		keep = 0
	}
	if keep >= g.n {
		marked := make([]bool, g.n)
		for i := range marked {
			marked[i] = true
		}
		return marked
	}
	c := newContractor(g)
	c.run(g.n - keep)
	marked := make([]bool, g.n)
	for s := 0; s < g.n; s++ {
		marked[s] = !c.contracted[s]
	}
	return marked
}

// contractor holds the mutable overlay graph during contraction.
type contractor struct {
	n          int
	out        []map[timetable.StationID]timeutil.Ticks
	in         []map[timetable.StationID]timeutil.Ticks
	contracted []bool
	delNbrs    []int // contracted-neighbour counters
}

func newContractor(g *Graph) *contractor {
	c := &contractor{
		n:          g.n,
		out:        make([]map[timetable.StationID]timeutil.Ticks, g.n),
		in:         make([]map[timetable.StationID]timeutil.Ticks, g.n),
		contracted: make([]bool, g.n),
		delNbrs:    make([]int, g.n),
	}
	for s := 0; s < g.n; s++ {
		c.out[s] = make(map[timetable.StationID]timeutil.Ticks, len(g.out[s]))
		c.in[s] = make(map[timetable.StationID]timeutil.Ticks, len(g.in[s]))
	}
	for s := 0; s < g.n; s++ {
		for _, a := range g.out[s] {
			c.out[s][a.To] = a.W
			c.in[a.To][timetable.StationID(s)] = a.W
		}
	}
	return c
}

// priority computes the lazy importance of station s: shortcuts needed
// minus arcs removed, plus deleted neighbours. Lower contracts earlier.
func (c *contractor) priority(s timetable.StationID) int {
	shortcuts := len(c.simulate(s))
	removed := len(c.out[s]) + len(c.in[s])
	return 2*(shortcuts-removed) + c.delNbrs[s]
}

// shortcut is a u→w edge bridging a contracted station.
type shortcut struct {
	u, w timetable.StationID
	wgt  timeutil.Ticks
}

// simulate returns the shortcuts contraction of s would add. A shortcut
// u→w of weight W(u,s)+W(s,w)
// is skipped when a witness path of at most that weight avoiding s exists;
// the witness search is a Dijkstra limited to a settle budget, erring on
// the side of adding a redundant shortcut (which preserves correctness).
func (c *contractor) simulate(s timetable.StationID) []shortcut {
	var res []shortcut
	for u, wu := range c.in[s] {
		if c.contracted[u] {
			continue
		}
		for w, ww := range c.out[s] {
			if c.contracted[w] || u == w {
				continue
			}
			need := wu + ww
			if !c.witness(u, w, s, need) {
				res = append(res, shortcut{u: u, w: w, wgt: need})
			}
		}
	}
	return res
}

// witnessSettleLimit bounds the witness Dijkstra; small limits only cause
// extra (harmless) shortcuts.
const witnessSettleLimit = 64

// witness reports whether a path u→w of weight ≤ cap exists that avoids
// the station being contracted.
func (c *contractor) witness(u, w, avoid timetable.StationID, cap timeutil.Ticks) bool {
	dist := map[timetable.StationID]timeutil.Ticks{u: 0}
	// A tiny pairing of slices acts as a scratch heap; witness searches are
	// so small that an indexed heap would cost more than it saves.
	type qi struct {
		s timetable.StationID
		d timeutil.Ticks
	}
	queue := []qi{{u, 0}}
	settled := 0
	for len(queue) > 0 && settled < witnessSettleLimit {
		// Extract min.
		mi := 0
		for i := 1; i < len(queue); i++ {
			if queue[i].d < queue[mi].d {
				mi = i
			}
		}
		cur := queue[mi]
		queue[mi] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if cur.d > dist[cur.s] {
			continue
		}
		settled++
		if cur.s == w {
			return cur.d <= cap
		}
		if cur.d > cap {
			continue
		}
		for to, wt := range c.out[cur.s] {
			if to == avoid || c.contracted[to] {
				continue
			}
			nd := cur.d + wt
			if d, ok := dist[to]; !ok || nd < d {
				dist[to] = nd
				queue = append(queue, qi{to, nd})
			}
		}
	}
	d, ok := dist[w]
	return ok && d <= cap
}

// contract removes s, applying its shortcuts.
func (c *contractor) contract(s timetable.StationID) {
	for _, sc := range c.simulate(s) {
		if old, ok := c.out[sc.u][sc.w]; !ok || sc.wgt < old {
			c.out[sc.u][sc.w] = sc.wgt
			c.in[sc.w][sc.u] = sc.wgt
		}
	}
	c.contracted[s] = true
	for u := range c.in[s] {
		if !c.contracted[u] {
			c.delNbrs[u]++
			delete(c.out[u], s)
		}
	}
	for w := range c.out[s] {
		if !c.contracted[w] {
			c.delNbrs[w]++
			delete(c.in[w], s)
		}
	}
}

// run contracts count stations in lazy priority order.
func (c *contractor) run(count int) {
	type entry struct {
		s    timetable.StationID
		prio int
	}
	// Initial priorities.
	entries := make([]entry, 0, c.n)
	for s := 0; s < c.n; s++ {
		entries = append(entries, entry{timetable.StationID(s), c.priority(timetable.StationID(s))})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].prio != entries[j].prio {
			return entries[i].prio < entries[j].prio
		}
		return entries[i].s < entries[j].s
	})
	// Lazy heap emulation over a sorted slice: re-evaluate the head; if it
	// no longer has the smallest priority, re-insert and retry. The slice
	// is small (stations, not nodes), so O(n log n) passes are fine.
	contractedCount := 0
	for contractedCount < count && len(entries) > 0 {
		head := entries[0]
		entries = entries[1:]
		if c.contracted[head.s] {
			continue
		}
		cur := c.priority(head.s)
		if len(entries) > 0 && cur > entries[0].prio {
			// Re-insert at the right position (lazy update).
			pos := sort.Search(len(entries), func(i int) bool { return entries[i].prio >= cur })
			entries = append(entries, entry{})
			copy(entries[pos+1:], entries[pos:])
			entries[pos] = entry{head.s, cur}
			continue
		}
		c.contract(head.s)
		contractedCount++
	}
}

// CountMarked returns the number of true entries; a convenience for
// logging selection results.
func CountMarked(marked []bool) int {
	n := 0
	for _, m := range marked {
		if m {
			n++
		}
	}
	return n
}

// String renders selection statistics.
func SelectionString(marked []bool) string {
	return fmt.Sprintf("%d/%d transfer stations", CountMarked(marked), len(marked))
}
