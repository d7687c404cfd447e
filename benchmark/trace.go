package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer: its name (layer.operation), start and
// end as nanoseconds since the tracer was made, the span that caused it
// (0 = none) and the request it belongs to (0 = none, e.g. set-up work).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Request int    `json:"request,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it, plus its id
// for use as a child's parent.
func (t *tracer) begin(name string, parent, request int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: start})
	t.mu.Unlock()
	return id, func() {
		e := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = e
		t.mu.Unlock()
	}
}

// add records a span measured elsewhere (a server-reported stage): it is
// placed at the end of its parent's interval so far, lasting d.
func (t *tracer) add(name string, parent, request int, startNS int64, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		StartNS: startNS, EndNS: startNS + d.Nanoseconds()})
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover (children of one parent do not overlap here: a layer
// call returns before the next is made).
func selfTimes(spans []span) map[string]time.Duration {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := s.EndNS - s.StartNS - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMS   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

// write stores the spans as outDir/trace-<workload>.json.
func (t *tracer) write(outDir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, SelfMS: map[string]float64{}, Spans: t.spans}
	t.mu.Unlock()
	for name, d := range selfTimes(tf.Spans) {
		tf.SelfMS[name] = ms(d)
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
