// Commuter: the scenario from the paper's introduction — a commuter wants
// *all* good options between home and work for the whole day, not a single
// departure: the morning options, the evening return options, and how
// travel time varies over the day (rush-hour service vs. night gaps).
//
// One profile query answers all of it. The example also shows the effect
// of preprocessing: the same query against a distance-table-accelerated
// network, with work counters side by side.
//
//	go run ./examples/commuter
package main

import (
	"context"
	"fmt"
	"log"

	"transit"
)

func main() {
	net, err := transit.Generate("losangeles", 0.2, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("network:", net.Stats())

	home := transit.StationID(3)
	work := transit.StationID(net.NumStations() - 4)
	fmt.Printf("home %q → work %q\n\n", net.Station(home).Name, net.Station(work).Name)

	morning, stats := profile(net, home, work)
	evening, _ := profile(net, work, home)

	fmt.Println("morning options (06:30–09:30):")
	printWindow(net, morning, "06:30", "09:30")
	fmt.Println("\nevening options (16:30–19:30):")
	printWindow(net, evening, "16:30", "19:30")

	// Travel time over the day: the profile evaluates in O(log n) at any
	// departure time, so plotting is trivial.
	fmt.Println("\ntravel time by hour of day (home → work):")
	for h := 0; h < 24; h += 2 {
		dep := transit.Ticks(h * 60)
		tt := morning.TravelTime(dep)
		bar := ""
		for i := transit.Ticks(0); i < tt && i < 90; i += 5 {
			bar += "▇"
		}
		fmt.Printf("  %02d:00  %4d min  %s\n", h, tt, bar)
	}

	// Preprocessing pays off for repeated station-to-station queries.
	pre, ps, err := net.Preprocess(transit.TransferSelection{Fraction: 0.10}, transit.Options{Threads: 4})
	if err != nil {
		log.Fatal(err)
	}
	_, accel := profile(pre, home, work)
	fmt.Printf("\npreprocessing: %d transfer stations, %.1f MiB, built in %v\n",
		ps.TransferStations, float64(ps.TableBytes)/(1<<20), ps.Elapsed)
	fmt.Printf("query work: %d settled labels without table, %d with (%.0f%%)\n",
		stats.SettledConnections, accel.SettledConnections,
		100*float64(accel.SettledConnections)/float64(stats.SettledConnections))
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

func printWindow(net *transit.Network, p *transit.Profile, from, to string) {
	lo, _ := transit.ParseClock(from)
	hi, _ := transit.ParseClock(to)
	shown := 0
	for _, c := range p.Connections() {
		if c.Departure < lo || c.Departure > hi {
			continue
		}
		fmt.Printf("  dep %s  arr %s  (%d min)\n",
			net.FormatClock(c.Departure), net.FormatClock(c.Arrival), c.Arrival-c.Departure)
		shown++
		if shown >= 8 {
			fmt.Println("  …")
			break
		}
	}
	if shown == 0 {
		fmt.Println("  (no connections in window)")
	}
}
