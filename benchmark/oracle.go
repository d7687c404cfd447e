package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"

	"transit"
	"transit/internal/core"
	"transit/internal/graph"
	"transit/internal/timetable"
)

// A digest fingerprints an answer in its canonical form — per target the
// reduced profile's connection points and the walking time — so the timed
// loop can record every answer in eight bytes and the oracles, which derive
// the same canonical form independently, can be compared against it.

type digester struct {
	h   hash.Hash64
	buf [4]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) sum() uint64 { return d.h.Sum64() }

func (d *digester) ticks(t transit.Ticks) {
	binary.LittleEndian.PutUint32(d.buf[:], uint32(int32(t)))
	d.h.Write(d.buf[:])
}

// profile folds one target's canonical profile into the digest.
func (d *digester) profile(pts []transit.ConnectionPoint, walk transit.Ticks) {
	d.ticks(transit.Ticks(len(pts)))
	for _, p := range pts {
		d.ticks(p.Departure)
		d.ticks(p.Arrival)
	}
	d.ticks(walk)
}

// digestResult fingerprints a Plan answer of the in-process workloads: a
// station-to-station profile, or a one-to-all result over every station.
func digestResult(n *transit.Network, res *transit.Result) (uint64, error) {
	d := newDigester()
	switch res.Kind() {
	case transit.KindProfile:
		p, err := res.Profile()
		if err != nil {
			return 0, err
		}
		d.profile(p.Connections(), p.WalkOnly())
	case transit.KindOneToAll:
		all, err := res.All()
		if err != nil {
			return 0, err
		}
		for s := 0; s < n.NumStations(); s++ {
			p, err := all.To(transit.StationID(s))
			if err != nil {
				return 0, err
			}
			d.profile(p.Connections(), p.WalkOnly())
		}
	default:
		return 0, fmt.Errorf("benchmark: no digest for %s results", res.Kind())
	}
	return d.sum(), nil
}

// digestOracle fingerprints what a label-correcting search from the query's
// source says the answer to q is, in the same canonical form.
func digestOracle(lc *core.ProfileResult, q query, stations int) (uint64, error) {
	d := newDigester()
	one := func(t timetable.StationID) error {
		f, err := lc.StationProfile(t)
		if err != nil {
			return err
		}
		pts := make([]transit.ConnectionPoint, 0, f.NumPoints())
		for _, p := range f.Points() {
			pts = append(pts, transit.ConnectionPoint{Departure: p.Dep, Arrival: p.Arr()})
		}
		d.profile(pts, lc.WalkOnly(t))
		return nil
	}
	if q.Kind == transit.KindProfile {
		if err := one(q.To); err != nil {
			return 0, err
		}
		return d.sum(), nil
	}
	for s := 0; s < stations; s++ {
		if err := one(timetable.StationID(s)); err != nil {
			return 0, err
		}
	}
	return d.sum(), nil
}

// record is one timed answer: which query of the list it answered and the
// digest of what came back.
type record struct {
	qi     int32
	digest uint64
}

// verdict is the outcome of checking a phase's answers.
type verdict struct {
	checked  int // answers compared with an oracle or with their first twin
	oracle   int // distinct queries re-derived by the independent oracles
	failed   int
	firstErr string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if v.firstErr == "" {
		v.firstErr = fmt.Sprintf(format, args...)
	}
}

// verifyInproc checks the recorded answers of an in-process phase. Every
// answer must equal the first answer to the same query. A seeded sample of
// the distinct queries is then re-derived twice over, independently of the
// profile search under test: point evaluations by connection scan (every
// sampled query, one seeded departure each) and whole profiles by
// label-correcting search (the first lcSample of them). The recorded digest
// ties the re-run answer that the oracles inspect to the answer that was
// timed.
func verifyInproc(n *transit.Network, list []query, recs []record, seed int64, sample, lcSample, workers int) verdict {
	var v verdict
	first := make(map[int32]uint64)
	var order []int32
	for _, r := range recs {
		d, seen := first[r.qi]
		if !seen {
			first[r.qi] = r.digest
			order = append(order, r.qi)
			continue
		}
		v.checked++
		if d != r.digest {
			v.fail("query %d answered differently on a later pass", r.qi)
		}
	}
	rng := rngFor(seed, "verify")
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if len(order) > sample {
		order = order[:sample]
	}

	g := graph.Build(n.Timetable())
	csa := core.NewConnectionScan(n.Timetable())
	departs := make([]transit.Ticks, len(order))
	for i := range departs {
		departs[i] = transit.Ticks(rng.Intn(1440))
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				err := checkOne(n, g, csa, list[order[i]], first[order[i]], departs[i], i < lcSample)
				mu.Lock()
				v.checked++
				v.oracle++
				if err != nil {
					v.fail("query %d (%+v): %v", order[i], list[order[i]], err)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	return v
}

func checkOne(n *transit.Network, g *graph.Graph, csa *core.CSASchedule, q query, want uint64, dep transit.Ticks, withLC bool) error {
	res, err := n.Plan(context.Background(), q.request())
	if err != nil {
		return err
	}
	got, err := digestResult(n, res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("re-run digest %x differs from the timed answer's %x", got, want)
	}
	// The scan must unroll enough days to see the profile's own answer: a
	// best connection on a sparse network can wait out most of a day at
	// more than one transfer.
	var targets []transit.StationID
	var arrive func(transit.StationID) transit.Ticks
	switch q.Kind {
	case transit.KindProfile:
		p, _ := res.Profile()
		targets = []transit.StationID{q.To}
		arrive = func(transit.StationID) transit.Ticks { return p.EarliestArrival(dep) }
	case transit.KindOneToAll:
		all, _ := res.All()
		for s := 0; s < n.NumStations(); s++ {
			targets = append(targets, transit.StationID(s))
		}
		arrive = func(t transit.StationID) transit.Ticks { return all.EarliestArrival(t, dep) }
	}
	days := 2
	for _, t := range targets {
		if a := arrive(t); !a.IsInf() && int(a/n.Period())+2 > days {
			days = int(a/n.Period()) + 2
		}
	}
	scan, err := csa.Query(q.From, dep, days)
	if err != nil {
		return err
	}
	for _, t := range targets {
		if a, b := arrive(t), scan.StationArrival(t); a != b {
			return fmt.Errorf("arrival at %d departing %d: profile says %d, connection scan %d", t, dep, a, b)
		}
	}
	if !withLC {
		return nil
	}
	lc, err := core.LabelCorrecting(g, q.From, core.Options{})
	if err != nil {
		return err
	}
	od, err := digestOracle(lc, q, n.NumStations())
	if err != nil {
		return err
	}
	if od != want {
		return fmt.Errorf("label-correcting oracle digest %x differs from the answer's %x", od, want)
	}
	return nil
}
