// Quickstart: generate a small city network, ask for the earliest arrival,
// the full daily profile, and a concrete itinerary between two stations.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"transit"
)

func main() {
	// A small synthetic city bus network (structural analogue of the
	// paper's Oahu input; see the internal/gen package comment). Real data
	// loads with transit.LoadGTFS("feed/") or transit.ReadNetwork(file).
	net, err := transit.Generate("oahu", 0.15, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("network:", net.Stats())

	src := transit.StationID(0)
	dst := transit.StationID(net.NumStations() / 2)
	fmt.Printf("\nfrom %q to %q\n", net.Station(src).Name, net.Station(dst).Name)

	// 1. A plain time-query: depart at 08:15, when do we arrive? Every
	// query kind runs through the unified, context-aware entry point
	// Network.Plan.
	ctx := context.Background()
	dep, _ := transit.ParseClock("08:15")
	res, err := net.Plan(ctx, transit.Request{
		Kind: transit.KindEarliestArrival, From: src, To: dst, Depart: dep,
	})
	if err != nil {
		log.Fatal(err)
	}
	arr, _ := res.Arrival()
	fmt.Printf("depart %s → arrive %s (%d min)\n",
		net.FormatClock(dep), net.FormatClock(arr), arr-dep)

	// 1b. The batch form: one matrix request answers many pairs at once
	// (the /v1/matrix endpoint of cmd/tpserver).
	mres, err := net.Plan(ctx, transit.Request{
		Kind:    transit.KindMatrix,
		Sources: []transit.StationID{src, dst},
		Targets: []transit.StationID{src, dst},
		Depart:  dep,
	})
	if err != nil {
		log.Fatal(err)
	}
	m, _ := mres.Matrix()
	fmt.Printf("2×2 travel matrix at %s:\n", net.FormatClock(dep))
	for i, row := range m {
		for j, a := range row {
			mins := "—"
			if !a.IsInf() {
				mins = fmt.Sprintf("%d min", a-dep)
			}
			fmt.Printf("  [%d→%d] %s", i, j, mins)
		}
		fmt.Println()
	}

	// 2. The full profile: every relevant connection of the day in one
	// query (the paper's core contribution), computed in parallel.
	pres, err := net.Plan(ctx, transit.Request{
		Kind: transit.KindProfile, From: src, To: dst, Options: transit.Options{Threads: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	profile, _ := pres.Profile()
	stats := pres.Stats()
	conns := profile.Connections()
	fmt.Printf("\n%d relevant connections today (settled %d labels in %v):\n",
		len(conns), stats.SettledConnections, stats.Elapsed)
	for i, c := range conns {
		if i >= 5 {
			fmt.Printf("  … and %d more\n", len(conns)-5)
			break
		}
		fmt.Printf("  dep %s  arr %s  (%d min)\n",
			net.FormatClock(c.Departure), net.FormatClock(c.Arrival), c.Arrival-c.Departure)
	}

	// 3. A concrete itinerary with trains and transfers.
	ares, err := net.Plan(ctx, transit.Request{
		Kind: transit.KindOneToAll, From: src, Options: transit.Options{TrackJourneys: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	all, _ := ares.All()
	journey, err := all.Journey(dst, dep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nitinerary (%d transfers):\n", journey.Transfers())
	for _, leg := range journey.Legs {
		fmt.Printf("  %-28s %s %s → %s %s\n",
			leg.Train, leg.FromName, net.FormatClock(leg.Departure),
			leg.ToName, net.FormatClock(leg.Arrival))
	}
}
