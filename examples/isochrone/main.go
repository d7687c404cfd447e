// Isochrone: network analysis built on the one-to-all profile search. A
// single one-to-all request yields, for every station, the complete
// travel-time function from a source — enough to compute reachability maps
// for *every* departure time at once, where a classic Dijkstra would need one
// run per departure time.
//
// The example renders an ASCII isochrone map of a rail network at two
// departure times and reports all-day accessibility statistics.
//
//	go run ./examples/isochrone
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"transit"
)

func main() {
	net, err := transit.Generate("germany", 0.3, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("network:", net.Stats())

	hub := busiestStation(net)
	fmt.Printf("source: %q\n", net.Station(hub).Name)

	// ONE query — then any departure time is a lookup.
	res, err := net.Plan(context.Background(), transit.Request{
		Kind: transit.KindOneToAll, From: hub, Options: transit.Options{Threads: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	all, _ := res.All()
	st := all.Stats()
	fmt.Printf("one-to-all profile search: %d settled labels in %v\n\n",
		st.SettledConnections, st.Elapsed)

	for _, at := range []string{"08:00", "23:00"} {
		dep, _ := transit.ParseClock(at)
		fmt.Printf("isochrones departing %s:\n", at)
		drawMap(net, all, dep)
		fmt.Println()
	}

	// All-day accessibility: for each station, best and worst travel time
	// over all departures — derived from the profile, no extra searches.
	type acc struct {
		name     string
		min, max transit.Ticks
	}
	var rows []acc
	for s := 0; s < net.NumStations(); s++ {
		id := transit.StationID(s)
		if id == hub {
			continue
		}
		p, err := all.To(id)
		if err != nil || p.Empty() {
			continue
		}
		mn, mx := transit.Ticks(1<<30), transit.Ticks(0)
		for _, c := range p.Connections() {
			d := c.Arrival - c.Departure
			if d < mn {
				mn = d
			}
			if d > mx {
				mx = d
			}
		}
		rows = append(rows, acc{net.Station(id).Name, mn, mx})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].min < rows[j].min })
	fmt.Println("best-connected stations (min / max travel time over the day):")
	for i, r := range rows {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-18s %4d / %4d min\n", r.name, r.min, r.max)
	}
}

// busiestStation picks the station with the most outgoing connections.
func busiestStation(net *transit.Network) transit.StationID {
	tt := net.Timetable()
	best, bestN := transit.StationID(0), -1
	for s := 0; s < tt.NumStations(); s++ {
		if n := len(tt.Outgoing(transit.StationID(s))); n > bestN {
			best, bestN = transit.StationID(s), n
		}
	}
	return best
}

// drawMap bins stations into a coarse grid by their layout coordinates and
// prints the minimum travel time class per cell.
func drawMap(net *transit.Network, all *transit.AllProfiles, dep transit.Ticks) {
	const W, H = 48, 16
	minX, maxX, minY, maxY := 1e18, -1e18, 1e18, -1e18
	for s := 0; s < net.NumStations(); s++ {
		st := net.Station(transit.StationID(s))
		minX, maxX = min(minX, st.X), max(maxX, st.X)
		minY, maxY = min(minY, st.Y), max(maxY, st.Y)
	}
	grid := make([][]transit.Ticks, H)
	for y := range grid {
		grid[y] = make([]transit.Ticks, W)
		for x := range grid[y] {
			grid[y][x] = transit.Infinity
		}
	}
	for s := 0; s < net.NumStations(); s++ {
		id := transit.StationID(s)
		st := net.Station(id)
		x := int((st.X - minX) / (maxX - minX + 1e-9) * (W - 1))
		y := int((st.Y - minY) / (maxY - minY + 1e-9) * (H - 1))
		arr := all.EarliestArrival(id, dep)
		if arr.IsInf() {
			continue
		}
		if d := arr - dep; d < grid[y][x] {
			grid[y][x] = d
		}
	}
	classes := []struct {
		limit transit.Ticks
		ch    byte
	}{{60, '#'}, {120, '+'}, {240, '.'}, {1 << 30, ' '}}
	for y := 0; y < H; y++ {
		line := make([]byte, W)
		for x := 0; x < W; x++ {
			d := grid[y][x]
			c := byte(' ')
			if !d.IsInf() {
				for _, cl := range classes {
					if d <= cl.limit {
						c = cl.ch
						break
					}
				}
			} else {
				c = ' '
			}
			line[x] = c
		}
		fmt.Printf("  %s\n", line)
	}
	fmt.Println("  # ≤1h   + ≤2h   . ≤4h")
}
