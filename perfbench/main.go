// Command perfbench is the broker's outside-in benchmark. It runs one
// seeded workload against the real code: an in-process broker wired
// as cmd/cdt-server wires it by default, driven over loopback HTTP
// through the public client package (serve_fresh_mem, serve_aged_wal),
// or the mechanism and experiment harness called in process
// (paper_replay). It checks the outputs, prints a report, and ends
// with one JSON line:
//
//	{"correct": true, "attempted": n, "failed": n, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones in BENCHMARK.json;
// with -trace 1 they are the per-layer ones, from a run that also
// records spans around every layer call it makes.
//
// Run it through run.sh, which builds it inside the checkout:
//
//	bash perfbench/run.sh --workload serve_fresh_mem --seed 1 --seconds 10 --trace 0
//
// The exit status is non-zero when a correctness check fails or the
// run cannot complete.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's outcome.
type report struct {
	result
	problems []string
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workDirName is where a run keeps its state dirs and span dumps,
// relative to the checkout root; it is the build directory run.sh uses
// and .gitignore excludes.
const workDirName = ".bench_build"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: serve_fresh_mem, serve_aged_wal, or paper_replay")
		seed     = flag.Int64("seed", 1, "seed every input of the run is derived from")
		seconds  = flag.Int("seconds", 20, "measured duration in seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(filepath.Join(root, workDirName), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env := runEnv{
		workload: *workload,
		root:     root,
		workDir:  work,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		cpus:     runtime.NumCPU(),
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d CPUs=%d GOMAXPROCS=%d\n",
		*workload, *seed, *seconds, *trace, env.cpus, runtime.GOMAXPROCS(0))
	rep := newReport()
	if err := w(ctx, env, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := checkMetricSet(rep, env.traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printMetrics(rep)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runEnv is what every workload receives.
type runEnv struct {
	workload string
	root     string // checkout root (inputs such as baselines/ are read from here)
	workDir  string // per-run scratch inside the build directory
	seed     int64
	seconds  time.Duration
	traced   bool
	cpus     int // figure workers: one per CPU
}

// spanFile is where a traced run writes its spans, one JSON object per
// line. It outlives the run's scratch directory.
func (e runEnv) spanFile() string {
	return filepath.Join(e.root, workDirName, fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func printMetrics(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("attempted %d, failed %d, correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
