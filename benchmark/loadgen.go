package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// shot is one HTTP read: which query it carried, when it was due, when a
// worker picked it up, sent it and had the answer (offsets from the phase
// start), and what came back.
type shot struct {
	qi     int
	due    time.Duration
	picked time.Duration
	sent   time.Duration
	done   time.Duration
	status int
	body   []byte
	err    error
	// Epoch window of serve_churn: the last epoch the replica was seen at
	// before the read was sent, and the number of batches posted by the time
	// it was answered. The answer must be the model's at an epoch in between.
	epochLo, epochHi uint64
}

// latency is what the user waited. A request that came due while every
// worker was still waiting for an earlier answer is timed from the instant it
// was due, so a stall charges the requests queued behind it too. A request
// whose worker was idle and merely woke late from its sleep (about half a
// millisecond on this sandbox, several times a cache hit's service time) is
// timed from when it was sent: that delay is the generator's, and lateness
// reports it.
func (s *shot) latency() time.Duration {
	if s.picked > s.due {
		return s.done - s.due
	}
	return s.done - s.sent
}

// lateness is how long the generator itself held the request back after it
// was both due and had a worker.
func (s *shot) lateness() time.Duration { return s.sent - max(s.due, s.picked) }

// loadgen sends a query list to one server from a fixed set of workers, each
// on its own kept-alive connection, so at most `workers` requests are in
// flight: on a two-core sandbox more concurrency than cores measures the
// scheduler, not the server.
type loadgen struct {
	client     *http.Client
	base       string
	list       []query
	workers    int
	debugTrace bool
	// visible and posted, when set, stamp each shot's epoch window.
	visible, posted *atomic.Uint64
}

func (lg *loadgen) fire(s *shot, start time.Time) {
	if lg.visible != nil {
		s.epochLo = lg.visible.Load()
	}
	s.sent = time.Since(start)
	resp, err := lg.client.Get(lg.base + lg.list[s.qi%len(lg.list)].path(lg.debugTrace))
	if err != nil {
		s.err = err
		s.done = time.Since(start)
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Since(start)
	s.status = resp.StatusCode
	if lg.posted != nil {
		s.epochHi = lg.posted.Load()
	}
}

// openLoop sends list[first], list[first+1], … on a fixed schedule of `rate`
// requests per second for d, whether or not earlier ones have come back. A
// request whose turn comes while every worker is still waiting for an answer
// goes out late, and its latency counts from when it was due.
func (lg *loadgen) openLoop(first int, rate float64, d time.Duration) []shot {
	return lg.schedule(first, int(rate*d.Seconds()), time.Duration(float64(time.Second)/rate))
}

// schedule sends n requests, the i-th due i×interval after the start.
func (lg *loadgen) schedule(first, n int, interval time.Duration) []shot {
	shots := make([]shot, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < lg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &shots[i]
				s.qi = first + i
				s.due = time.Duration(i) * interval
				s.picked = time.Since(start)
				if wait := s.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				lg.fire(s, start)
			}
		}()
	}
	wg.Wait()
	return shots
}

// closedLoop has every worker send its next request as soon as the previous
// one is answered, for d: the server's capacity with `workers` callers.
func (lg *loadgen) closedLoop(first int, d time.Duration) (shots []shot, elapsed time.Duration) {
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < lg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []shot
			for time.Since(start) < d {
				s := shot{qi: first + int(next.Add(1)-1)}
				s.due = time.Since(start)
				s.picked = s.due
				lg.fire(&s, start)
				mine = append(mine, s)
			}
			mu.Lock()
			shots = append(shots, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return shots, time.Since(start)
}
