// Command perfbench is the repository's benchmark: four seeded
// workloads over tcserve, cold start and the batched evaluator, each
// checked against an independent oracle. Run it from the repository
// root through the wrapper, which builds this command and tcserve from
// the same source tree first:
//
//	bash perfbench/run.sh --workload eval-matmul8 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures the end-to-end metrics (tcserve driven as
// a black box from a child process, or the library from outside for
// the in-process workload). With --trace 1 it replays a fixed count of
// the same seeded requests and records spans around calls into each
// layer's public functions, printing per-layer metrics and writing the
// spans to .bench_build/perfbench/. Either way the last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Every earlier line is a human-readable report, including a
// provenance line (source revision, Go version, GOMAXPROCS, NumCPU,
// seed and the generator's CPU share). METRICS.md in this directory
// defines each workload and metric.
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
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload run receives.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	tcserve  string // path of the tcserve binary built from this tree
	root     string // repository root (the checkout)
	work     string // this run's scratch directory, removed at exit
	out      string // where trace files are kept
	tally    *tally
	metrics  map[string]metric
	notes    []string // report lines printed before the result
}

func (e *env) set(name string, v float64, unit string) {
	e.metrics[name] = metric{Value: v, Unit: unit}
}

func (e *env) notef(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(*env) error
}{
	"eval-matmul8":       {runEvalMatMul8, traceEvalMatMul8},
	"graph-n8":           {runGraphN8, traceGraphN8},
	"coldstart-matmul16": {runColdStart16, traceColdStart16},
	"batch64-matmul8":    {runBatch64, traceBatch64},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 25, "measured seconds per run (untraced runs)")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		tcserve  = flag.String("tcserve", "", "tcserve binary built from this tree")
		root     = flag.String("root", ".", "repository root")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatalf("unknown workload %q (want one of %v)", *workload, names)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *tcserve == "" {
		fatalf("--tcserve is required (use perfbench/run.sh)")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	out := filepath.Join(absRoot, ".bench_build", "perfbench")
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		fatalf("scratch dir: %v", err)
	}
	// Children must not outlive the benchmark, whichever way it ends.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAllChildren()
		os.RemoveAll(work)
		os.Exit(1)
	}()

	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		tcserve:  *tcserve,
		root:     absRoot,
		work:     work,
		out:      out,
		tally:    &tally{},
		metrics:  map[string]metric{},
	}
	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	err = run(e)
	stopAllChildren()
	os.RemoveAll(work)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}

	fmt.Printf("perfbench: workload=%s seed=%d trace=%d\n", *workload, *seed, *trace)
	prov, _ := json.Marshal(map[string]any{"provenance": provenance(e)})
	fmt.Println(string(prov))
	t := e.tally.snapshot()
	fmt.Printf("perfbench: attempted=%d failed=%d (errors=%d refused=%d wrong=%d) fail_frac=%.6f\n",
		t.attempted, t.failed(), t.errors, t.refused, t.wrong, t.failFrac())
	for _, n := range e.notes {
		fmt.Println("perfbench: " + n)
	}
	for _, ex := range t.examples {
		fmt.Println("perfbench: failure: " + ex)
	}
	res := result{
		Correct:   t.failed() == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed(),
		Metrics:   e.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// provenance stamps the facts a result needs to be compared with
// another: which source, which toolchain, how many cores, which seed.
func provenance(e *env) map[string]any {
	return map[string]any{
		"source":          sourceRevision(e.root),
		"go":              runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"numcpu":          runtime.NumCPU(),
		"workload":        e.workload,
		"seed":            e.seed,
		"client.cpu_frac": e.tally.snapshot().cpuFrac,
	}
}

func fatalf(format string, args ...any) {
	stopAllChildren()
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

var errWrong = errors.New("wrong answer")
