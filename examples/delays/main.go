// Delays: the fully dynamic scenario the paper's conclusion points at
// (Müller-Hannemann et al. [20]). Because the one-to-all profile search
// needs *no preprocessing*, a delayed train simply means: apply the delay,
// refresh the cheap query structures, query again — fast enough for
// on-line use after every delay message.
//
// The example delays all morning trips of one route by 20 minutes with
// ApplyUpdates (the incremental copy-on-write patch behind the live-update
// subsystem, internal/live), checks the patched network against query
// structures rebuilt from scratch from the patched timetable, compares their
// cost, and then cancels the route outright.
//
//	go run ./examples/delays
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"transit"
)

func main() {
	net, err := transit.Generate("washington", 0.2, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("network:", net.Stats())

	src := transit.StationID(1)
	dst := transit.StationID(net.NumStations() - 2)

	before, _ := profile(net, src, dst)

	// Pick the route with the most morning departures out of src and
	// delay its 07:00–10:00 trips by 20 minutes the live-update way (patch
	// in place), then rebuild the query structures from the patched
	// timetable the way the paper's conclusion describes.
	route := busiestMorningRoute(net, src)
	ops := []transit.DelayOp{{Routes: []int{route}, WindowFrom: 420, WindowTo: 600, Delay: 20}}
	start := time.Now()
	patched, st, err := net.ApplyUpdates(ops)
	if err != nil {
		log.Fatal(err)
	}
	incremental := time.Since(start)

	start = time.Now()
	rebuilt := transit.NewNetwork(patched.Timetable())
	fullRebuild := time.Since(start)

	after, stats := profile(patched, src, dst)
	fmt.Printf("\ndelayed %d connections (%d trains)\n", st.ConnsRetimed, st.TrainsDelayed)
	fmt.Printf("  full rebuild (NewNetwork):     %v\n", fullRebuild)
	fmt.Printf("  incremental (ApplyUpdates):    %v  (%.0fx faster)\n",
		incremental, float64(fullRebuild)/float64(incremental))
	fmt.Printf("  re-query on patched snapshot:  %v\n", stats.Elapsed)

	ref, _ := profile(rebuilt, src, dst)
	fmt.Printf("\n%-12s %-16s %-16s\n", "depart", "arrive (before)", "arrive (after)")
	for _, at := range []string{"07:00", "07:45", "08:30", "09:15", "12:00"} {
		dep, _ := transit.ParseClock(at)
		b := before.EarliestArrival(dep)
		a := after.EarliestArrival(dep)
		if ra := ref.EarliestArrival(dep); ra != a {
			log.Fatalf("paths disagree at %s: rebuild %d, incremental %d", at, ra, a)
		}
		mark := ""
		if a != b {
			mark = fmt.Sprintf("  ← %+d min", a-b)
		}
		fmt.Printf("%-12s %-16s %-16s%s\n", at, net.FormatClock(b), net.FormatClock(a), mark)
	}

	// Cancellations ride the same patch path: drop the route entirely and
	// watch the profile fall back to alternatives.
	cancelled, cst, err := patched.ApplyUpdates([]transit.DelayOp{{Routes: []int{route}, Cancel: true}})
	if err != nil {
		log.Fatal(err)
	}
	pc, _ := profile(cancelled, src, dst)
	dep, _ := transit.ParseClock("08:30")
	fmt.Printf("\ncancelled the route outright (%d connections): 08:30 arrival %s → %s\n",
		cst.ConnsCancelled, net.FormatClock(after.EarliestArrival(dep)), net.FormatClock(pc.EarliestArrival(dep)))
}

// profile runs one station-to-station profile query on four threads.
func profile(net *transit.Network, from, to transit.StationID) (*transit.Profile, transit.QueryStats) {
	res, err := net.Plan(context.Background(), transit.Request{
		Kind: transit.KindProfile, From: from, To: to, Options: transit.Options{Threads: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	p, _ := res.Profile()
	return p, res.Stats()
}

// busiestMorningRoute returns the route class with the most 07:00–10:00
// departures from src.
func busiestMorningRoute(net *transit.Network, src transit.StationID) int {
	deps, err := net.Departures(src)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[int]int{}
	for _, c := range deps {
		if c.Dep >= 420 && c.Dep <= 600 {
			counts[c.Route]++
		}
	}
	best, bestN := 0, -1
	for r, n := range counts {
		if n > bestN {
			best, bestN = r, n
		}
	}
	return best
}
