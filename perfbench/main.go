// Command perfbench is LogGrep's end-to-end benchmark. It drives the
// library, archive, ingest and server layers only through their public
// functions, on inputs it generates from a seed, checks every output
// against an oracle, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (see README.md); with
// -trace 1 the run is repeated with spans around every call into a layer
// and the metrics are the per-layer set.
//
// Usage (from the repository root, see run.sh):
//
//	bash perfbench/run.sh --workload compress|query|serve --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Workers is the archive writer and query worker count of every workload:
// the benchmark machine has 2 cores.
const Workers = 2

func main() {
	if os.Getenv(roleEnv) == roleServeClient {
		os.Exit(serveLoadMain())
	}
	workload := flag.String("workload", "", "compress, query or serve")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	state := flag.String("state", ".bench_build/perfbench-state", "directory for the traced run's spans and serve's ingest files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(Workers)
	opts := RunOptions{
		Seed:     *seed,
		Duration: time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		StateDir: *state,
		Size:     PaperSize(),
	}
	rep, err := Run(*workload, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.Print(os.Stdout, opts.Trace)
}

// RunOptions configures one benchmark run.
type RunOptions struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	// StateDir holds the written-out spans of traced runs and the serve
	// workload's ingest directory while it runs.
	StateDir string
	Size     Size
}

// Run executes one workload. An error means the run could not be set up;
// wrong answers and failed operations are counted in the report instead.
func Run(workload string, o RunOptions) (*Report, error) {
	var wl func(*Report, RunOptions) error
	switch workload {
	case "compress":
		wl = runCompress
	case "query":
		wl = runQuery
	case "serve":
		wl = runServe
	default:
		return nil, fmt.Errorf("unknown -workload %q (want compress, query or serve)", workload)
	}
	if err := os.MkdirAll(o.StateDir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport(workload)
	steal0, total0 := hostCPU()
	if err := wl(rep, o); err != nil {
		return nil, err
	}
	steal1, total1 := hostCPU()
	rep.Layer.Set("host.steal_ratio", "ratio", ratio(steal1-steal0, total1-total0))
	if o.Trace {
		rep.finishTrace(o)
	}
	return rep, nil
}

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics is an insertion-ordered metric set.
type Metrics struct {
	names []string
	m     map[string]Metric
}

// Set records (or overwrites) a metric.
func (ms *Metrics) Set(name, unit string, v float64) {
	if ms.m == nil {
		ms.m = map[string]Metric{}
	}
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = Metric{Value: v, Unit: unit}
}

// Get returns a metric's value (0 when absent).
func (ms *Metrics) Get(name string) float64 { return ms.m[name].Value }

// Report accumulates one run's metrics, operation counts and failures.
type Report struct {
	Workload string
	// E2E holds the end-to-end metrics, always from untraced execution.
	E2E Metrics
	// Layer holds the per-layer metrics of a traced run.
	Layer Metrics
	// Counts are exact quantities of the untraced run; they must repeat
	// within the invocation (see count).
	Counts    map[string]int64
	Attempted int
	Failed    int
	Problems  []string
	// Invalid marks a run whose measurement does not mean what it
	// claims (an open-loop generator that fell behind).
	Invalid string
	tracer  *Tracer
}

func newReport(workload string) *Report {
	return &Report{Workload: workload, Counts: map[string]int64{}}
}

// Fail counts one failed operation and keeps its reason (the first few).
func (r *Report) Fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// Check counts one attempted operation, failing it unless ok.
func (r *Report) Check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Fail(format, args...)
	}
}

// Correct reports whether every operation succeeded and the run is valid.
func (r *Report) Correct() bool { return r.Failed == 0 && r.Invalid == "" && r.Attempted > 0 }

// Print writes every metric as a "name value unit" line, then the JSON
// result line. The JSON carries the end-to-end set, or the per-layer set
// of a traced run.
func (r *Report) Print(f *os.File, traced bool) {
	for _, p := range r.Problems {
		fmt.Fprintln(f, "problem:", p)
	}
	if r.Invalid != "" {
		fmt.Fprintln(f, "invalid:", r.Invalid)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(f, "%s attempted %d failed %d error_rate %g\n", r.Workload, r.Attempted, r.Failed, errRate)
	label := "end-to-end"
	if traced {
		label = "end-to-end (untraced reference pass)"
	}
	printSet(f, label, &r.E2E)
	printSet(f, "per-layer", &r.Layer)
	counts := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		counts = append(counts, k)
	}
	sort.Strings(counts)
	for _, k := range counts {
		fmt.Fprintf(f, "count %-40s %d\n", k, r.Counts[k])
	}
	set := &r.E2E
	if traced {
		set = &r.Layer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct(), max(r.Attempted, 1), r.Failed, set.m}
	if r.Attempted == 0 {
		out.Failed = 1
	}
	line, _ := json.Marshal(out) // only float64 and string fields: cannot fail
	fmt.Fprintln(f, string(line))
}

func printSet(f *os.File, label string, ms *Metrics) {
	if len(ms.names) == 0 {
		return
	}
	fmt.Fprintf(f, "# %s\n", label)
	for _, n := range ms.names {
		fmt.Fprintf(f, "%-40s %.6g %s\n", n, ms.m[n].Value, ms.m[n].Unit)
	}
}
