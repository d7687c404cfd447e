package stats

import (
	"strings"
	"testing"
)

func TestCountersAdd(t *testing.T) {
	a := Counters{SettledConns: 1, PrunedConns: 2, QueuePushes: 3, QueuePops: 4, Relaxed: 5}
	b := Counters{SettledConns: 10, PrunedConns: 20, QueuePushes: 30, QueuePops: 40, Relaxed: 50}
	a.Add(b)
	if a.SettledConns != 11 || a.PrunedConns != 22 || a.QueuePushes != 33 || a.QueuePops != 44 || a.Relaxed != 55 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if !strings.Contains(a.String(), "settled=11") {
		t.Fatalf("String = %q", a.String())
	}
}

func TestRunCriticalPath(t *testing.T) {
	r := Run{PerThread: []Counters{{SettledConns: 10}, {SettledConns: 30}, {SettledConns: 20}}}
	if r.MaxThreadSettled() != 30 {
		t.Fatalf("MaxThreadSettled = %d", r.MaxThreadSettled())
	}
	seq := Run{Total: Counters{SettledConns: 60}}
	if got := r.IdealSpeedup(&seq); got != 2.0 {
		t.Fatalf("IdealSpeedup = %f, want 2", got)
	}
	empty := Run{}
	if empty.IdealSpeedup(&seq) != 1 {
		t.Fatal("empty run speedup must be 1")
	}
}
