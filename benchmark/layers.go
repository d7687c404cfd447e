package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"transit"
	apiv1 "transit/api/v1"
	"transit/internal/admit"
	"transit/internal/catalog"
	"transit/internal/core"
	"transit/internal/dtable"
	"transit/internal/faultfs"
	"transit/internal/graph"
	"transit/internal/live"
	"transit/internal/obs"
	"transit/internal/pq"
	"transit/internal/snapshot"
	"transit/internal/stationgraph"
	"transit/internal/stats"
	"transit/internal/timetable"
	"transit/internal/wal"
)

// The probes below call one layer at a time through its public functions, on
// the workload's own network and inputs, and record a span around each call.
// They give the per-layer numbers of a traced run; none of them is timed by
// an untraced run.

// parts is a network taken apart into what the layers below transit.Network
// work on, obtained the way any other process would: through a snapshot.
type parts struct {
	tt    *timetable.Timetable
	g     *graph.Graph
	sg    *stationgraph.Graph
	table *dtable.Table // nil without preprocessing
}

// takeApart writes n as a snapshot and reads it back, reporting the
// snapshot layer's numbers on the way, then rebuilds graph and station graph
// from the timetable to time those builds alone.
func takeApart(n *transit.Network, tr *tracer, m metrics) (*parts, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	_, end := tr.begin("snapshot.Write", 0, 0)
	err := n.WriteSnapshot(&buf)
	end()
	if err != nil {
		return nil, err
	}
	m.set("snapshot.write_ms", ms(time.Since(t0)), "ms")
	m.set("snapshot.bytes", float64(buf.Len()), "B")

	t0 = time.Now()
	_, end = tr.begin("transit.LoadSnapshot", 0, 0)
	_, _, err = transit.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	end()
	if err != nil {
		return nil, err
	}
	m.set("snapshot.load_ms", ms(time.Since(t0)), "ms")

	d, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	p := &parts{tt: d.TT, table: d.Table}
	t0 = time.Now()
	_, end = tr.begin("graph.Build", 0, 0)
	p.g = graph.Build(d.TT)
	end()
	m.set("graph.build_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	_, end = tr.begin("stationgraph.Build", 0, 0)
	p.sg = stationgraph.Build(d.TT)
	end()
	m.set("stationgraph.build_s", time.Since(t0).Seconds(), "s")
	return p, nil
}

// buildMetrics reports the set-up stages that netSpec.build timed.
func buildMetrics(st buildStages, m metrics) {
	m.set("gen.generate_s", st.generate.Seconds(), "s")
	if st.pre != nil {
		m.set("dtable.build_s", st.pre.Elapsed.Seconds(), "s")
		m.set("dtable.bytes", float64(st.pre.TableBytes), "B")
	}
}

// effort sums the counters of direct core calls.
type effort struct {
	n        int
	total    stats.Counters
	maxThr   int64 // Σ over queries of the busiest thread's settled count
	elapsed  []float64
	tableHit int
	local    int
}

func (ef *effort) add(run *stats.Run, el time.Duration) {
	ef.n++
	ef.total.Add(run.Total)
	ef.maxThr += run.MaxThreadSettled()
	ef.elapsed = append(ef.elapsed, ms(el))
}

func (ef *effort) sumMS() float64 {
	s := 0.0
	for _, e := range ef.elapsed {
		s += e
	}
	return s
}

// search runs q directly on the core layer — no Plan, no pooling — with the
// given thread count, with or without the distance table.
func (p *parts) search(ws *core.Workspace, q query, threads int, table bool, ef *effort, tr *tracer, req int) error {
	opts := core.Options{Threads: threads}
	switch q.Kind {
	case transit.KindOneToAll:
		_, end := tr.begin("core.OneToAll", 0, req)
		t0 := time.Now()
		res, err := ws.OneToAll(p.g, q.From, opts)
		el := time.Since(t0)
		end()
		if err != nil {
			return err
		}
		ef.add(&res.Run, el)
	default:
		env := core.QueryEnv{Graph: p.g}
		if table && p.table != nil {
			env.StationGraph, env.Table = p.sg, p.table
		}
		_, end := tr.begin("core.StationToStation", 0, req)
		t0 := time.Now()
		res, err := ws.StationToStation(env, q.From, q.To, core.QueryOptions{Options: opts})
		el := time.Since(t0)
		end()
		if err != nil {
			return err
		}
		ef.add(&res.Run, el)
		if res.TableHit {
			ef.tableHit++
		}
		if res.Local {
			ef.local++
		}
	}
	return nil
}

// coreProbe replays the first k queries of the workload's list through the
// core layer: at one thread (where every count repeats exactly for a seed),
// at nproc threads (the paper's speed-up and its two ceilings), without the
// distance table (what the table prunes), and through Plan (what the public
// entry point adds).
func coreProbe(p *parts, n *transit.Network, list []query, k, nproc int, tr *tracer, m metrics) error {
	if k > len(list) {
		k = len(list)
	}
	ws := core.NewWorkspace()
	var seq, par, bare effort
	// Untimed queries grow the workspace (per thread count), so times and
	// allocations below are the steady state's.
	for _, t := range []int{nproc, 1} {
		if err := p.search(ws, list[0], t, true, &effort{}, nil, 0); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < k; i++ {
		if err := p.search(ws, list[i], 1, true, &seq, tr, i+1); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	for i := 0; i < k; i++ {
		if err := p.search(ws, list[i], nproc, true, &par, tr, i+1); err != nil {
			return err
		}
	}
	settled := float64(seq.total.SettledConns)
	m.set("core.search_ms_p50", median(seq.elapsed), "ms")
	m.set("core.settled_per_query", settled/float64(k), "count")
	m.set("core.queue_ops_per_query", float64(seq.total.QueuePushes+seq.total.QueuePops)/float64(k), "count")
	m.set("core.relaxed_per_query", float64(seq.total.Relaxed)/float64(k), "count")
	m.set("core.pruned_frac", ratio(float64(seq.total.PrunedConns), float64(seq.total.QueuePops)), "frac")
	m.set("core.ns_per_settled", ratio(seq.sumMS()*1e6, settled), "ns")
	m.set("core.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/float64(k), "count")
	m.set("core.bytes_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(k), "B")
	m.set("core.speedup", ratio(seq.sumMS(), par.sumMS()), "ratio")
	m.set("core.ideal_speedup", ratio(settled, float64(par.maxThr)), "ratio")
	m.set("core.thread_imbalance", ratio(float64(par.maxThr)*float64(nproc), float64(par.total.SettledConns)), "ratio")
	m.set("core.extra_work_frac", ratio(float64(par.total.SettledConns), settled)-1, "frac")
	m.set("core.table_hit_frac", float64(seq.tableHit)/float64(k), "frac")
	m.set("core.local_frac", float64(seq.local)/float64(k), "frac")

	if p.table != nil {
		kb := min(k, 200) // unpruned searches are slow: a fifth of the list is plenty
		var pruned effort
		for i := 0; i < kb; i++ {
			if err := p.search(ws, list[i], 1, false, &bare, tr, i+1); err != nil {
				return err
			}
			if err := p.search(ws, list[i], 1, true, &pruned, nil, 0); err != nil {
				return err
			}
		}
		m.set("dtable.prune_gain", ratio(float64(bare.total.SettledConns), float64(pruned.total.SettledConns)), "ratio")
	}

	// Plan against the direct call, alternating so both see the same
	// machine state; the median difference is what Plan adds.
	ctx := context.Background()
	var diff []float64
	for i := 0; i < k; i++ {
		var direct effort
		if err := p.search(ws, list[i], 1, true, &direct, nil, 0); err != nil {
			return err
		}
		_, end := tr.begin("transit.Plan", 0, i+1)
		t0 := time.Now()
		_, err := n.Plan(ctx, list[i].request())
		el := time.Since(t0)
		end()
		if err != nil {
			return err
		}
		diff = append(diff, (ms(el)-direct.elapsed[0])*1000)
	}
	m.set("transit.plan_overhead_us", median(diff), "us")
	return nil
}

// timeQueryProbe times the scalar time-query — what an arrival request that
// misses the cache costs — from k seeded (source, departure) draws.
func timeQueryProbe(p *parts, seed int64, k int, tr *tracer, m metrics) error {
	rng := rngFor(seed, "timequery")
	ws := core.NewWorkspace()
	var el []float64
	for i := 0; i < k; i++ {
		src := timetable.StationID(rng.Intn(p.tt.NumStations()))
		dep := transit.Ticks(rng.Intn(1440))
		_, end := tr.begin("core.TimeQuery", 0, i+1)
		t0 := time.Now()
		_, err := ws.TimeQuery(p.g, src, dep, core.Options{})
		d := time.Since(t0)
		end()
		if err != nil {
			return err
		}
		el = append(el, ms(d))
	}
	m.set("core.timequery_ms_p50", median(el), "ms")
	return nil
}

// pqProbe times the priority queue alone: fill with random keys, drain.
func pqProbe(seed int64, m metrics) {
	const items = 1 << 14
	rng := rngFor(seed, "pq")
	keys := make([]transit.Ticks, items)
	for i := range keys {
		keys[i] = transit.Ticks(rng.Intn(1 << 20))
	}
	h := pq.New(items)
	ops := 0
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		h.Reset(items)
		for i, k := range keys {
			h.Push(int32(i), k)
		}
		for !h.Empty() {
			h.PopMin()
		}
		ops += 2 * items
	}
	m.set("pq.ns_per_op", float64(time.Since(t0).Nanoseconds())/float64(ops), "ns")
}

// tableLookupProbe times Table.D between random transfer stations.
func tableLookupProbe(t *dtable.Table, seed int64, m metrics) {
	rng := rngFor(seed, "lookup")
	st := t.Stations()
	type look struct {
		from, to timetable.StationID
		at       transit.Ticks
	}
	looks := make([]look, 1<<12)
	for i := range looks {
		looks[i] = look{st[rng.Intn(len(st))], st[rng.Intn(len(st))], transit.Ticks(rng.Intn(1440))}
	}
	var sink transit.Ticks
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		for _, l := range looks {
			sink += t.D(l.from, l.to, l.at)
		}
		n += len(looks)
	}
	_ = sink
	m.set("dtable.lookup_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
}

// perCall runs f for about 100 ms and returns the mean time of one call.
func perCall(f func()) time.Duration {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		for i := 0; i < 64; i++ {
			f()
		}
		n += 64
	}
	return time.Since(t0) / time.Duration(n)
}

// requestPathProbes time, in process, the layers a cache hit passes through
// in tpserver: catalog pin, result cache hit path, response rendering and
// the latency histogram.
func requestPathProbes(n *transit.Network, list []query, m metrics) error {
	ctx := context.Background()
	reg := live.NewRegistry(n, live.Config{})
	defer reg.Close()
	cat := catalog.NewStatic("default", reg)
	m.set("catalog.acquire_ns", float64(perCall(func() {
		if h, err := cat.Acquire(ctx, "default"); err == nil {
			h.Release()
		}
	}).Nanoseconds()), "ns")

	var q query
	for _, q = range list {
		if q.Kind == transit.KindProfile {
			break
		}
	}
	req := q.request()
	cache := admit.NewCache(64, 0)
	fill := func(ctx context.Context, r transit.Request) (*transit.Result, error) { return n.Plan(ctx, r) }
	res, _, err := cache.Plan(ctx, "default", 0, req, fill)
	if err != nil {
		return err
	}
	m.set("admit.cache_hit_us", float64(perCall(func() {
		cache.Plan(ctx, "default", 0, req, fill)
	}).Nanoseconds())/1000, "us")

	var encErr error
	m.set("apiv1.encode_us", float64(perCall(func() {
		body, err := apiv1.NewProfileResponse(n, req, res)
		if err == nil {
			_, err = json.Marshal(body)
		}
		if err != nil {
			encErr = err
		}
	}).Nanoseconds())/1000, "us")
	if encErr != nil {
		return encErr
	}

	hist := obs.NewHistogram(obs.DurationBounds())
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = rng.ExpFloat64() / 1000
	}
	i := 0
	m.set("obs.observe_ns", float64(perCall(func() {
		hist.Observe(vals[i%len(vals)])
		i++
	}).Nanoseconds()), "ns")
	return nil
}

// updateReplay replays delay batches, one span per layer per batch, through
// everything a POST /delays passes on its way to a repaired table:
// Timetable.Patch → Graph.PatchTimes (the two halves of ApplyUpdates, on a
// graph of the probe's own) → Network.ApplyUpdates → wal.Journal.Append →
// live.Registry.Apply with a journal → Network.Repreprocess, the incremental
// table repair, accumulating touched connections against the last fully
// built table exactly as live.Registry does.
func updateReplay(n *transit.Network, p *parts, batches []batch, sel transit.TransferSelection, dir string, tr *tracer, m metrics) error {
	journal, _, err := wal.Open(faultfs.Disk, filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer journal.Close()
	reg := live.NewRegistry(n, live.Config{Policy: live.ServeUnpruned})
	defer reg.Close()
	if _, err := reg.RecoverJournal(filepath.Join(dir, "probe-live.wal")); err != nil {
		return err
	}

	var ttPatch, gPatch, apply, appendMS, liveApply, repair []float64
	var touched, walBytes, rows, rowsRepaired, rowsWindowed float64
	cur, g := n, p.g
	base, pending := n, []transit.TouchedConn(nil)
	for i, b := range batches {
		root, endRoot := tr.begin("update", 0, i+1)
		t0 := time.Now()
		_, end := tr.begin("transit.ApplyUpdates", root, i+1)
		next, st, err := cur.ApplyUpdates(b.Ops)
		end()
		if err != nil {
			return err
		}
		apply = append(apply, ms(time.Since(t0)))
		touched += float64(len(st.Touched))

		// The same change, one layer down.
		ups := make([]timetable.ConnUpdate, len(st.Touched))
		ids := make([]timetable.ConnID, len(st.Touched))
		for j, tc := range st.Touched {
			c := g.TT.Connections[tc.Conn]
			ups[j] = timetable.ConnUpdate{ID: timetable.ConnID(tc.Conn), Dep: tc.NewDep, Arr: tc.NewDep + c.Duration()}
			ids[j] = timetable.ConnID(tc.Conn)
		}
		t0 = time.Now()
		_, end = tr.begin("timetable.Patch", root, i+1)
		ntt, err := g.TT.Patch(ups)
		end()
		if err != nil {
			return err
		}
		ttPatch = append(ttPatch, ms(time.Since(t0)))
		t0 = time.Now()
		_, end = tr.begin("graph.PatchTimes", root, i+1)
		g, err = g.PatchTimes(ntt, ids)
		end()
		if err != nil {
			return err
		}
		gPatch = append(gPatch, ms(time.Since(t0)))

		size := journal.Size()
		t0 = time.Now()
		_, end = tr.begin("wal.Append", root, i+1)
		err = journal.Append(uint64(i+1), b.Ops)
		end()
		if err != nil {
			return err
		}
		appendMS = append(appendMS, ms(time.Since(t0)))
		walBytes += float64(journal.Size() - size)

		t0 = time.Now()
		_, end = tr.begin("live.Apply", root, i+1)
		_, _, err = reg.Apply(b.Ops)
		end()
		if err != nil {
			return err
		}
		liveApply = append(liveApply, ms(time.Since(t0)))

		if base.Preprocessed() {
			pending = transit.MergeTouched(pending, st.Touched)
			t0 = time.Now()
			_, end = tr.begin("dtable.Repair", root, i+1)
			pre, ps, err := next.Repreprocess(base, pending, sel, transit.Options{})
			end()
			if err != nil {
				return err
			}
			repair = append(repair, ms(time.Since(t0)))
			rows += float64(ps.Rows)
			rowsRepaired += float64(ps.RowsRepaired)
			rowsWindowed += float64(ps.RowsWindowed)
			if ps.FullRebuild {
				base, pending = pre, nil
			}
		}
		cur = next
		endRoot()
	}
	k := float64(len(batches))
	m.set("transit.apply_updates_ms_p50", median(apply), "ms")
	m.set("transit.touched_per_batch", touched/k, "count")
	m.set("timetable.patch_ms_p50", median(ttPatch), "ms")
	m.set("graph.patch_ms_p50", median(gPatch), "ms")
	m.set("wal.append_ms_p50", median(appendMS), "ms")
	m.set("wal.append_ms_p95", quantile(sorted(appendMS), 0.95), "ms")
	m.set("wal.bytes_per_batch", walBytes/k, "B")
	m.set("live.apply_ms_p50", median(liveApply), "ms")
	m.set("dtable.repair_ms_p50", median(repair), "ms")
	m.set("dtable.rows_repaired_frac", ratio(rowsRepaired, rows), "frac")
	m.set("dtable.rows_windowed_frac", ratio(rowsWindowed, rows), "frac")
	return nil
}
