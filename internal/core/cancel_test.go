package core

import (
	"errors"
	"testing"
	"time"

	"transit/internal/timetable"
)

// closedDone returns an already-closed cancellation channel: the
// deterministic way to exercise the abort paths, since a search observes it
// at its entry check before settling anything.
func closedDone() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestCancelClosedDone verifies that every search entry point honours an
// already-closed Options.Done with ErrCancelled, for one and for several
// threads.
func TestCancelClosedDone(t *testing.T) {
	g := workspaceNet(t)
	src := timetable.StationID(0)
	for _, threads := range []int{1, 4} {
		opts := Options{Threads: threads, Done: closedDone()}

		if _, err := NewWorkspace().OneToAll(g, src, opts); !errors.Is(err, ErrCancelled) {
			t.Errorf("threads=%d: OneToAll err = %v, want ErrCancelled", threads, err)
		}
		if _, err := NewWorkspace().OneToAllWindow(g, src, 0, 600, opts); !errors.Is(err, ErrCancelled) {
			t.Errorf("threads=%d: OneToAllWindow err = %v, want ErrCancelled", threads, err)
		}
		if _, err := OneToAllPareto(g, src, 3, opts); !errors.Is(err, ErrCancelled) {
			t.Errorf("threads=%d: OneToAllPareto err = %v, want ErrCancelled", threads, err)
		}
		if _, err := NewWorkspace().TimeQuery(g, src, 480, opts); !errors.Is(err, ErrCancelled) {
			t.Errorf("threads=%d: TimeQuery err = %v, want ErrCancelled", threads, err)
		}
		env := QueryEnv{Graph: g}
		if _, err := NewWorkspace().StationToStation(env, src, 5, QueryOptions{Options: opts}); !errors.Is(err, ErrCancelled) {
			t.Errorf("threads=%d: StationToStation err = %v, want ErrCancelled", threads, err)
		}
		ws := NewWorkspace()
		if _, err := ws.EarliestArrival(env, src, 5, 480, QueryOptions{Options: opts}); !errors.Is(err, ErrCancelled) {
			t.Errorf("threads=%d: EarliestArrival err = %v, want ErrCancelled", threads, err)
		}
		if _, err := ws.JourneySearch(env, src, 5, 480, QueryOptions{Options: opts}); !errors.Is(err, ErrCancelled) {
			t.Errorf("threads=%d: JourneySearch err = %v, want ErrCancelled", threads, err)
		}
		if _, err := ws.TimeQueryTo(g, src, 480, []timetable.StationID{5}, opts); !errors.Is(err, ErrCancelled) {
			t.Errorf("threads=%d: TimeQueryTo err = %v, want ErrCancelled", threads, err)
		}
	}
}

// TestCancelMidFlight closes Done while a sequence of profile searches is
// running and accepts either outcome per search — completed before the
// close, or ErrCancelled after it — but requires that at least one search
// observed the cancellation, and that every error is ErrCancelled.
func TestCancelMidFlight(t *testing.T) {
	g := workspaceNet(t)
	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(done)
	}()
	ws := NewWorkspace()
	sawCancel := false
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; !sawCancel && time.Now().Before(deadline); i++ {
		src := timetable.StationID(i % g.TT.NumStations())
		_, err := ws.OneToAll(g, src, Options{Done: done})
		switch {
		case err == nil:
		case errors.Is(err, ErrCancelled):
			sawCancel = true
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if !sawCancel {
		t.Fatal("no search observed the cancellation within the deadline")
	}
	// The workspace stays usable after an abort: the next query bumps the
	// generation and must answer exactly like a fresh search.
	reused, err := ws.OneToAll(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewWorkspace().OneToAll(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.TT.NumStations(); s++ {
		st := timetable.StationID(s)
		for i := 0; i < fresh.K(); i++ {
			if got, want := reused.StationArrival(st, i), fresh.StationArrival(st, i); got != want {
				t.Fatalf("post-cancel reuse: arr(%d,%d) = %d, fresh search says %d", s, i, got, want)
			}
		}
	}
}

// TestCancelNilDoneUnaffected pins the default: a nil Done channel never
// cancels and produces identical results to the pre-cancellation code path.
func TestCancelNilDoneUnaffected(t *testing.T) {
	g := workspaceNet(t)
	if _, err := NewWorkspace().OneToAll(g, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	open := make(chan struct{})
	defer close(open)
	withOpen, err := NewWorkspace().OneToAll(g, 0, Options{Done: open})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewWorkspace().OneToAll(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.TT.NumStations(); s++ {
		st := timetable.StationID(s)
		for i := 0; i < plain.K(); i++ {
			if got, want := withOpen.StationArrival(st, i), plain.StationArrival(st, i); got != want {
				t.Fatalf("open-done run diverged: arr(%d,%d) = %d vs %d", s, i, got, want)
			}
		}
	}
}
