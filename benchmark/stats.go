package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's named numbers. set panics on a repeated name: the
// contract is one value per metric per run.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if _, dup := m[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	m[name] = metric{Value: v, Unit: unit}
}

// quantile reads the q-quantile of an ascending sample by nearest rank; an
// empty sample reads 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procStatusKiB reads one "Vm…: n kB" field of /proc/<pid>/status.
func procStatusKiB(pid int, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("benchmark: no %s in /proc/%d/status", field, pid)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	kib, err := procStatusKiB(pid, "VmHWM")
	return kib / 1024, err
}
