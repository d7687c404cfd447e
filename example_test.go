package transit_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"transit"
)

// exampleNetwork builds a tiny deterministic three-station network: an
// express and a local line from Airport via Center to Harbor, hourly.
func exampleNetwork() *transit.Network {
	tb := transit.NewTimetableBuilder(0) // 0 = the 1440-minute day
	airport := tb.AddStation("Airport", 2)
	center := tb.AddStation("Center", 3)
	harbor := tb.AddStation("Harbor", 2)
	for h := 6; h <= 22; h++ {
		// Express: Airport →(24 min)→ Center, on the hour.
		if err := tb.AddTrain(fmt.Sprintf("X%02d", h), []transit.StationID{airport, center},
			transit.Ticks(h*60), []transit.Ticks{24}, 0); err != nil {
			log.Fatal(err)
		}
		// Local: Airport →(40)→ Center →(15)→ Harbor, at half past.
		if err := tb.AddTrain(fmt.Sprintf("L%02d", h), []transit.StationID{airport, center, harbor},
			transit.Ticks(h*60+30), []transit.Ticks{40, 15}, 2); err != nil {
			log.Fatal(err)
		}
	}
	net, err := tb.Build()
	if err != nil {
		log.Fatal(err)
	}
	return net
}

// earliestArrival answers one earliest-arrival request through Plan.
func earliestArrival(net *transit.Network, from, to transit.StationID, dep transit.Ticks) transit.Ticks {
	res, err := net.Plan(context.Background(), transit.Request{
		Kind: transit.KindEarliestArrival, From: from, To: to, Depart: dep,
	})
	if err != nil {
		log.Fatal(err)
	}
	arr, _ := res.Arrival()
	return arr
}

// A plain time-query: depart at 08:10, when do we arrive? The 08:00 express
// is gone, so the answer rides the 08:30 local.
func ExampleResult_Arrival() {
	net := exampleNetwork()
	airport, _ := net.StationByName("Airport")
	center, _ := net.StationByName("Center")

	dep, _ := transit.ParseClock("08:10")
	res, err := net.Plan(context.Background(), transit.Request{
		Kind: transit.KindEarliestArrival, From: airport, To: center, Depart: dep,
	})
	if err != nil {
		log.Fatal(err)
	}
	arr, err := res.Arrival()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("depart %s, arrive %s (%d min)\n",
		net.FormatClock(dep), net.FormatClock(arr), arr-dep)
	// Output:
	// depart 08:10, arrive 09:10 (60 min)
}

// A profile query: all best connections of the whole period in one search —
// the paper's core operation. Both lines appear: a traveller present at
// hh:30 sharp is better off on the local than waiting for the next express.
func ExampleResult_Profile() {
	net := exampleNetwork()
	airport, _ := net.StationByName("Airport")
	center, _ := net.StationByName("Center")

	res, err := net.Plan(context.Background(), transit.Request{
		Kind: transit.KindProfile, From: airport, To: center, Options: transit.Options{Threads: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	profile, err := res.Profile()
	if err != nil {
		log.Fatal(err)
	}
	conns := profile.Connections()
	fmt.Printf("%d relevant connections; first three:\n", len(conns))
	for _, c := range conns[:3] {
		fmt.Printf("  dep %s arr %s\n", net.FormatClock(c.Departure), net.FormatClock(c.Arrival))
	}
	// Output:
	// 34 relevant connections; first three:
	//   dep 06:00 arr 06:24
	//   dep 06:30 arr 07:10
	//   dep 07:00 arr 07:24
}

// A dynamic update: delay one train and cancel another. ApplyUpdates
// returns a new network sharing all untouched structure with the old one,
// which keeps serving concurrent queries unchanged.
func ExampleNetwork_ApplyUpdates() {
	net := exampleNetwork()
	airport, _ := net.StationByName("Airport")
	center, _ := net.StationByName("Center")
	dep, _ := transit.ParseClock("07:55")

	before := earliestArrival(net, airport, center, dep)
	updated, stats, err := net.ApplyUpdates([]transit.DelayOp{
		{Train: "X08", Delay: 20},    // 08:00 express leaves 08:20
		{Train: "X09", Cancel: true}, // 09:00 express never runs
	})
	if err != nil {
		log.Fatal(err)
	}
	after := earliestArrival(updated, airport, center, dep)
	fmt.Printf("delayed %d train(s), cancelled %d\n", stats.TrainsDelayed, stats.TrainsCancelled)
	fmt.Printf("07:55 traveller: %s before, %s after\n", net.FormatClock(before), net.FormatClock(after))
	// Output:
	// delayed 1 train(s), cancelled 1
	// 07:55 traveller: 08:24 before, 08:44 after
}

// Persistence: write the query-ready network into the versioned snapshot
// container and boot a fresh Network from it — the tpserver -snapshot path.
func ExampleLoadSnapshot() {
	net := exampleNetwork()

	var buf bytes.Buffer
	if err := net.WriteSnapshot(&buf); err != nil {
		log.Fatal(err)
	}
	loaded, state, err := transit.LoadSnapshot(&buf)
	if err != nil {
		log.Fatal(err)
	}
	airport, _ := loaded.StationByName("Airport")
	harbor, _ := loaded.StationByName("Harbor")
	dep, _ := transit.ParseClock("08:00")
	arr := earliestArrival(loaded, airport, harbor, dep)
	fmt.Printf("epoch %d snapshot; Airport→Harbor at %s arrives %s\n",
		state.Epoch, loaded.FormatClock(dep), loaded.FormatClock(arr))
	// Output:
	// epoch 0 snapshot; Airport→Harbor at 08:00 arrives 09:27
}

// The unified request API: every query kind goes through one cancellable
// entry point, Network.Plan, which the /v1 HTTP surface of cmd/tpserver
// mirrors one-to-one (docs/API.md). Validation failures carry
// machine-readable codes.
func ExampleNetwork_Plan() {
	net := exampleNetwork()
	ctx := context.Background()
	airport, _ := net.StationByName("Airport")
	center, _ := net.StationByName("Center")
	harbor, _ := net.StationByName("Harbor")
	dep, _ := transit.ParseClock("08:00")

	// A scalar earliest-arrival request.
	res, err := net.Plan(ctx, transit.Request{
		Kind: transit.KindEarliestArrival, From: airport, To: harbor, Depart: dep,
	})
	if err != nil {
		log.Fatal(err)
	}
	arr, _ := res.Arrival()
	fmt.Printf("Airport→Harbor arrives %s\n", net.FormatClock(arr))

	// A batch matrix request: every sources×targets pair in one call.
	res, err = net.Plan(ctx, transit.Request{
		Kind:    transit.KindMatrix,
		Sources: []transit.StationID{airport, center},
		Targets: []transit.StationID{harbor},
		Depart:  dep,
	})
	if err != nil {
		log.Fatal(err)
	}
	m, _ := res.Matrix()
	fmt.Printf("matrix minutes: Airport %d, Center %d\n", m[0][0]-dep, m[1][0]-dep)

	// Malformed requests fail with a typed, machine-readable code — the
	// same code the /v1 error envelope carries on the wire.
	_, err = net.Plan(ctx, transit.Request{Kind: "teleport"})
	fmt.Println("error code:", transit.ErrorCodeOf(err))
	// Output:
	// Airport→Harbor arrives 09:27
	// matrix minutes: Airport 87, Center 27
	// error code: unknown_kind
}
