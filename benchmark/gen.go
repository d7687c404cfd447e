package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"strconv"

	"transit"
)

// rngFor derives an independent generator per (seed, stream), so adding a
// draw to one stream never shifts another.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// query is one generated read. Depart is minutes after midnight; kinds that
// take no departure leave it 0.
type query struct {
	Kind   transit.Kind
	From   transit.StationID
	To     transit.StationID
	Depart transit.Ticks
}

// request is the Plan request for q at one thread, tpserver's default.
func (q query) request() transit.Request {
	return transit.Request{Kind: q.Kind, From: q.From, To: q.To, Depart: q.Depart,
		Options: transit.Options{Threads: 1}}
}

func clock(t transit.Ticks) string { return fmt.Sprintf("%02d:%02d", t/60, t%60) }

// path is the /v1 request path and query string of q.
func (q query) path(debugTrace bool) string {
	v := url.Values{}
	v.Set("from", strconv.Itoa(int(q.From)))
	v.Set("to", strconv.Itoa(int(q.To)))
	var ep string
	switch q.Kind {
	case transit.KindProfile:
		ep = "/v1/profile"
	case transit.KindJourney:
		ep = "/v1/journey"
		v.Set("depart", clock(q.Depart))
	default:
		ep = "/v1/arrival"
		v.Set("depart", clock(q.Depart))
	}
	if debugTrace {
		v.Set("debug", "trace")
	}
	return ep + "?" + v.Encode()
}

// A workload's query population is part of its data set, like its network:
// it is drawn from datasetSeed, sized to the run, and --seed decides the
// order it is sent in (and the delay batches and the verification samples).
// Which few hundred station pairs a seed happened to draw for the slow
// request kinds moved serve_churn's 95th percentile between 9 and 14 ms; the
// order they are sent in moves it between 9 and 10.

// inSeedOrder puts a population in the order the seed gives it.
func inSeedOrder(seed int64, stream string, pop []query) []query {
	rngFor(seed, stream).Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
	return pop
}

// genSources is a one-to-all query from every station, in seeded order.
func genSources(seed int64, stations int) []query {
	pop := make([]query, stations)
	for i := range pop {
		pop[i] = query{Kind: transit.KindOneToAll, From: transit.StationID(i)}
	}
	return inSeedOrder(seed, "sources", pop)
}

// genPairs is n uniform random station pairs (from ≠ to) as profile queries,
// in seeded order.
func genPairs(seed int64, n, stations int) []query {
	rng := rngFor(datasetSeed, "pairs")
	pop := make([]query, n)
	for i := range pop {
		f, t := uniformPair(rng, stations)
		pop[i] = query{Kind: transit.KindProfile, From: f, To: t}
	}
	return inSeedOrder(seed, "pairs", pop)
}

func uniformPair(rng *rand.Rand, stations int) (transit.StationID, transit.StationID) {
	f := rng.Intn(stations)
	t := rng.Intn(stations - 1)
	if t >= f {
		t++
	}
	return transit.StationID(f), transit.StationID(t)
}

// mixKind draws a kind: arrivals and journeys out of ten, the rest profiles.
func mixKind(rng *rand.Rand, arrivals, journeys int) transit.Kind {
	switch x := rng.Intn(10); {
	case x < arrivals:
		return transit.KindEarliestArrival
	case x < arrivals+journeys:
		return transit.KindJourney
	default:
		return transit.KindProfile
	}
}

// hotDeparts is the small departure pool of serve_hot: commuters cluster on
// a few times, which is what gives the result cache keys to repeat.
var hotDeparts = []transit.Ticks{7*60 + 30, 8 * 60, 12*60 + 15, 17*60 + 45}

// genHot is n reads with zipf-skewed stations (s = 1.4), four departure
// times and the mix 6:3:1 arrival:journey:profile, in seeded order: a key
// space small enough that most requests repeat.
func genHot(seed int64, n, stations int) []query {
	rng := rngFor(datasetSeed, "hot")
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(stations-1))
	out := make([]query, n)
	for i := range out {
		f := int(zipf.Uint64())
		t := int(zipf.Uint64())
		if t == f {
			t = (t + 1) % stations
		}
		q := query{Kind: mixKind(rng, 6, 3), From: transit.StationID(f), To: transit.StationID(t)}
		if q.Kind != transit.KindProfile {
			q.Depart = hotDeparts[rng.Intn(len(hotDeparts))]
		}
		out[i] = q
	}
	return inSeedOrder(seed, "hot", out)
}

// genCold is n reads with uniform stations and a uniform departure minute,
// in seeded order: a key space far larger than the result cache.
func genCold(seed int64, n, stations int) []query {
	return inSeedOrder(seed, "cold", drawCold(rngFor(datasetSeed, "cold"), n, stations))
}

// drawCold draws genCold's reads. The mix is 8:1:1 arrival:journey:profile.
// With 6:3:1 the median read sat at the 83rd percentile of the arrivals,
// exactly where the arrivals that wait behind a journey or a table rebuild
// begin, and moved 2× between runs of one seed.
func drawCold(rng *rand.Rand, n, stations int) []query {
	out := make([]query, n)
	for i := range out {
		f, t := uniformPair(rng, stations)
		q := query{Kind: mixKind(rng, 8, 1), From: f, To: t}
		if q.Kind != transit.KindProfile {
			q.Depart = transit.Ticks(rng.Intn(1440))
		}
		out[i] = q
	}
	return out
}

// delayOpWire is the POST /delays form of one transit.DelayOp.
type delayOpWire struct {
	Train    string `json:"train,omitempty"`
	Route    *int   `json:"route,omitempty"`
	From     string `json:"from,omitempty"`
	To       string `json:"to,omitempty"`
	DelayMin int    `json:"delay_min"`
}

type delayBatchWire struct {
	Ops []delayOpWire `json:"ops"`
}

// batch is one delay batch in both forms: what the model folds and what the
// updater is sent.
type batch struct {
	Ops  []transit.DelayOp
	Wire delayBatchWire
}

// genBatches draws n delay batches for network net.
func genBatches(seed int64, n int, net *transit.Network) []batch {
	tt := net.Timetable()
	trains := make([]string, len(tt.Trains))
	for i, t := range tt.Trains {
		trains[i] = t.Name
	}
	return drawBatches(rngFor(seed, "batches"), n, trains, len(tt.Routes()))
}

// drawBatches draws n delay batches of 1–3 selectors, each 1–15 minutes late.
// The first selector names a train, so no batch is a no-op; the others name
// a train or a route restricted to a two-hour departure window. Delays
// accumulate: nothing is ever reset or cancelled.
func drawBatches(rng *rand.Rand, n int, trains []string, routes int) []batch {
	out := make([]batch, n)
	for i := range out {
		var b batch
		for j, k := 0, 1+rng.Intn(3); j < k; j++ {
			delay := 1 + rng.Intn(15)
			if j == 0 || rng.Intn(3) > 0 {
				name := trains[rng.Intn(len(trains))]
				b.Ops = append(b.Ops, transit.DelayOp{Train: name, Delay: transit.Ticks(delay)})
				b.Wire.Ops = append(b.Wire.Ops, delayOpWire{Train: name, DelayMin: delay})
				continue
			}
			route := rng.Intn(routes)
			from := transit.Ticks(60 * (5 + rng.Intn(16)))
			to := from + 120
			b.Ops = append(b.Ops, transit.DelayOp{Routes: []int{route}, WindowFrom: from, WindowTo: to, Delay: transit.Ticks(delay)})
			b.Wire.Ops = append(b.Wire.Ops, delayOpWire{Route: &route, From: clock(from), To: clock(to), DelayMin: delay})
		}
		out[i] = b
	}
	return out
}

// hashQueries and hashBatches fingerprint generated inputs, so a test can
// pin that a seed reproduces them.
func hashQueries(qs []query) uint64 {
	h := fnv.New64a()
	for _, q := range qs {
		fmt.Fprintf(h, "%s|%d|%d|%d;", q.Kind, q.From, q.To, q.Depart)
	}
	return h.Sum64()
}

func hashBatches(bs []batch) uint64 {
	h := fnv.New64a()
	for _, b := range bs {
		for _, op := range b.Ops {
			fmt.Fprintf(h, "%s|%v|%d|%d|%d,", op.Train, op.Routes, op.WindowFrom, op.WindowTo, op.Delay)
		}
		h.Write([]byte{';'})
	}
	return h.Sum64()
}
