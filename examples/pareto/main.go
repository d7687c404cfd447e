// Pareto: the multi-criteria extension from the paper's future-work
// section — minimize arrival time *and* number of transfers together. One
// search yields, for every station and every departure time, the full
// trade-off curve: "arrive at 9:04 with 0 transfers, 8:51 with 1, 8:43
// with 2".
//
//	go run ./examples/pareto
package main

import (
	"context"
	"fmt"
	"log"

	"transit"
)

func main() {
	net, err := transit.Generate("germany", 0.25, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("network:", net.Stats())

	src := transit.StationID(0)
	res, err := net.Plan(context.Background(), transit.Request{
		Kind: transit.KindPareto, From: src, MaxTransfers: 4, Options: transit.Options{Threads: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	pareto, _ := res.Pareto()
	st := pareto.Stats()
	fmt.Printf("multi-criteria one-to-all from %q: %d settled labels in %v\n\n",
		net.Station(src).Name, st.SettledConnections, st.Elapsed)

	dep, _ := transit.ParseClock("08:00")
	shown := 0
	for dst := transit.StationID(1); int(dst) < net.NumStations() && shown < 6; dst++ {
		choices, err := pareto.Choices(dst, dep)
		if err != nil {
			log.Fatal(err)
		}
		if len(choices) < 2 {
			continue // only interesting when there is a real trade-off
		}
		shown++
		fmt.Printf("to %q departing %s:\n", net.Station(dst).Name, net.FormatClock(dep))
		for _, c := range choices {
			fmt.Printf("  %d transfer(s) → arrive %s\n", c.Transfers, net.FormatClock(c.Arrival))
		}
	}
	if shown == 0 {
		fmt.Println("(no stations with a transfers/time trade-off at this departure)")
		return
	}

	// The trade-off as a daily profile: compare travel time with at most
	// 0 transfers vs unlimited, hour by hour.
	fmt.Println("\ntravel-time vs transfer budget over the day (last target above):")
	var target transit.StationID
	for dst := transit.StationID(net.NumStations() - 1); dst > 0; dst-- {
		if ch, _ := pareto.Choices(dst, dep); len(ch) >= 2 {
			target = dst
			break
		}
	}
	direct, err := pareto.To(target, 0)
	if err != nil {
		log.Fatal(err)
	}
	any, err := pareto.To(target, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-18s %-18s\n", "depart", "≤0 transfers", "≤4 transfers")
	for h := 6; h <= 20; h += 2 {
		d := transit.Ticks(h * 60)
		f := func(p *transit.Profile) string {
			a := p.EarliestArrival(d)
			if a.IsInf() {
				return "unreachable"
			}
			return fmt.Sprintf("%s (%d min)", net.FormatClock(a), a-d)
		}
		fmt.Printf("%02d:00    %-18s %-18s\n", h, f(direct), f(any))
	}
}
