// Command benchmark is the repository's one benchmark: four workloads over
// the whole stack — library, distance table, HTTP server, delay ingestion,
// replication — each printing the end-to-end metrics a user would see, or,
// with -trace 1, per-layer numbers from a shortened traced copy. Every timed
// answer is checked against an independent oracle. BENCHMARK.json at the
// root of the repository declares the workloads and metrics; README.md in
// this directory explains them.
//
//	bash benchmark/run.sh --workload serve_hot --seed 7 --seconds 20 --trace 0
//	go run -C benchmark . -seed 7             # every workload, untraced
//	go run -C benchmark . -seed 7 -trace 1    # per-layer numbers, trace files
//	go run -C benchmark . -seed 7 -repeat 2   # self-agreement check
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// declared mirrors BENCHMARK.json.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// env is what every workload needs from its surroundings.
type env struct {
	root   string // checkout root (holds BENCHMARK.json, cmd/, benchmark/)
	build  string // root/.bench_build: binaries and per-run temporary dirs
	outDir string // root/benchmark/out: trace files
	nproc  int
	decl   declared
	procs  *procSet
}

// outcome is one run of one workload.
type outcome struct {
	attempted int
	failed    int
	m         metrics
	info      []string // lines for a human reader, printed before the result
	firstErr  string   // first verification failure, if any
}

func (o *outcome) infof(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

// workload is one named set of inputs. run measures for the given seconds
// with tracing off and returns the end-to-end metrics; trace runs the
// shortened copy with spans and returns the per-layer metrics.
type workload interface {
	name() string
	run(e *env, seed int64, seconds float64) (*outcome, error)
	trace(e *env, seed int64, seconds float64) (*outcome, error)
}

func workloads() []workload {
	return []workload{onetoallDense, s2sTable, serveHot, serveChurn}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of every input generator")
		seconds = flag.Float64("seconds", 0, "seconds each run measures (default: run_seconds of BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		repeat  = flag.Int("repeat", 1, "run the set this many times and fail if end-to-end metrics disagree beyond their bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *repeat < 1 {
		flag.Usage()
		return 2
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer e.procs.stopAll()
	// A signal must not leave servers or temporary directories behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.procs.stopAll()
		os.Exit(130)
	}()

	if *seconds <= 0 {
		*seconds = float64(e.decl.RunSeconds)
	}
	var todo []workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name() {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	ok := true
	var passes []map[string]metrics
	for r := 0; r < *repeat; r++ {
		pass := make(map[string]metrics)
		for _, w := range todo {
			out, err := runOne(e, w, *seed, *seconds, *traced == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name(), err)
				return 1
			}
			pass[w.name()] = out.m
			if out.failed > 0 {
				ok = false
			}
		}
		passes = append(passes, pass)
	}
	if *repeat > 1 && *traced == 0 && !agree(e.decl.EndToEnd, passes) {
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// newEnv finds the checkout root from the working directory (the root
// itself under run.sh, benchmark/ under go run -C) and reads BENCHMARK.json.
func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := ""
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tpserver")); err == nil {
			root = dir
			break
		}
	}
	if root == "" {
		return nil, errors.New("run from the repository root or from benchmark/: cmd/tpserver not found")
	}
	e := &env{
		root:   root,
		build:  filepath.Join(root, ".bench_build"),
		outDir: filepath.Join(root, "benchmark", "out"),
		nproc:  runtime.GOMAXPROCS(0),
		procs:  &procSet{},
	}
	if n := runtime.NumCPU(); e.nproc > n {
		e.nproc = n
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &e.decl); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(e.build, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// runOne runs one workload once, checks that it emitted exactly the
// declared metrics, and prints the human-readable lines followed by the
// result object.
func runOne(e *env, w workload, seed int64, seconds float64, traced bool) (*outcome, error) {
	var out *outcome
	var err error
	decls := e.decl.EndToEnd
	if traced {
		decls = e.decl.PerLayer
		out, err = w.trace(e, seed, seconds)
	} else {
		out, err = w.run(e, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	if err := conform(out.m, decls, traced); err != nil {
		return nil, err
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%v\n", w.name(), seed, seconds, traced)
	for _, line := range out.info {
		fmt.Println("#", line)
	}
	names := make([]string, 0, len(out.m))
	for n := range out.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, out.m[n].Value, out.m[n].Unit)
	}
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed or were answered wrongly; first: %s\n",
			w.name(), out.failed, out.attempted, out.firstErr)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.m})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return out, nil
}

// conform checks a run's metrics against the declaration: every declared
// name exactly once with its unit, nothing undeclared. A traced run reports
// 0 for the per-layer metrics of layers its workload does not exercise.
func conform(m metrics, decls []metricDecl, fillMissing bool) error {
	want := make(map[string]string, len(decls))
	for _, d := range decls {
		want[d.Name] = d.Unit
		got, ok := m[d.Name]
		switch {
		case !ok && fillMissing:
			m[d.Name] = metric{Value: 0, Unit: d.Unit}
		case !ok:
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", d.Name)
		case got.Unit != d.Unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, got.Unit, d.Unit)
		}
	}
	for n := range m {
		if _, ok := want[n]; !ok {
			return fmt.Errorf("metric %s measured but not declared in BENCHMARK.json", n)
		}
	}
	return nil
}

// agree is the self-agreement check of -repeat: between the first pass and
// each later one, no end-to-end metric may be worse by more than its bound.
func agree(decls []metricDecl, passes []map[string]metrics) bool {
	ok := true
	for wl, first := range passes[0] {
		for _, d := range decls {
			a := first[d.Name].Value
			for i, p := range passes[1:] {
				b := p[wl][d.Name].Value
				worse := (b - a) / a
				if d.Better == "higher" {
					worse = (a - b) / a
				}
				if worse > d.Bound {
					fmt.Fprintf(os.Stderr, "benchmark: %s %s: pass %d reads %g, pass 1 read %g: worse by %.1f%%, bound %.1f%%\n",
						wl, d.Name, i+2, b, a, 100*worse, 100*d.Bound)
					ok = false
				}
			}
		}
	}
	return ok
}
