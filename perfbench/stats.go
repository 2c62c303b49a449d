package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"loggrep"
	"loggrep/internal/obsv"
)

// Percentile returns the q-quantile (0..1) of samples by nearest rank.
// With fewer than 1/(1-q) samples this is the maximum.
func Percentile[T ~int64 | ~float64](samples []T, q float64) T {
	if len(samples) == 0 {
		return 0
	}
	s := append([]T(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// Median returns the median of xs (the mean of the middle two for an
// even count).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes int64) float64 { return float64(bytes) / 1e6 }

// writeLatency records write_p50_ms and write_p99_ms into m. Serve's
// acknowledgements split into a fast majority and a slow share that waited
// on a seal; a percentile near the boundary between the two (p85–p90)
// moves from run to run, while the 99th sits well inside the slow share.
func (r *Report) writeLatency(m *Metrics, samples []time.Duration) {
	m.Set("write_p50_ms", "ms", ms(Percentile(samples, 0.50)))
	m.Set("write_p99_ms", "ms", ms(Percentile(samples, 0.99)))
	if m == &r.E2E {
		r.Layer.Set("samples.write", "count", float64(len(samples)))
	}
}

// readLatency records read_p50_ms and read_p90_ms into m, and the untraced
// run's 99th percentile as a per-layer figure. Serve sends a few hundred
// queries a run, too few for a 99th percentile that repeats; the 90th has
// tens of samples beyond it on every workload.
func (r *Report) readLatency(m *Metrics, samples []time.Duration) {
	m.Set("read_p50_ms", "ms", ms(Percentile(samples, 0.50)))
	m.Set("read_p90_ms", "ms", ms(Percentile(samples, 0.90)))
	if m == &r.E2E {
		r.Layer.Set("tail.read_p99_ms", "ms", ms(Percentile(samples, 0.99)))
		r.Layer.Set("samples.read", "count", float64(len(samples)))
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// HeapSampler samples the program's live heap while a measured phase
// runs: after each garbage collection, the bytes it found reachable, less
// those the benchmark's own inputs held before the program's work started
// (a collection right then makes that baseline exact). A live
// figure rather than the process's resident set leaves out the
// benchmark's inputs and the collector's headroom, which grows with those
// inputs. The serve workload runs its load in another process, so there
// the server's heap is all that is measured beside the benchmark's plan.
type HeapSampler struct {
	base    float64
	stop    chan struct{}
	samples chan []float64
	once    sync.Once
	got     []float64
}

var heapKeys = []string{"/gc/heap/live:bytes", "/gc/cycles/total:gc-cycles"}

// heapLive returns the live heap of the last collection and the number of
// collections so far.
func heapLive() (float64, uint64) {
	s := make([]metrics.Sample, len(heapKeys))
	for i, k := range heapKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return 0, 0
	}
	return float64(s[0].Value.Uint64()), s[1].Value.Uint64()
}

// heapBaseline collects garbage and returns the live heap: what the
// benchmark holds before the program's work starts.
func heapBaseline() float64 {
	settle()
	live, _ := heapLive()
	return live
}

// StartHeapSampler starts polling every millisecond, keeping one figure
// per collection (a collection cycle takes longer than that, so none is
// missed); base is the benchmark's own live heap (see heapBaseline).
func StartHeapSampler(base float64) *HeapSampler {
	_, cycles := heapLive()
	h := &HeapSampler{base: base, stop: make(chan struct{}), samples: make(chan []float64, 1)}
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		var out []float64
		for {
			select {
			case <-h.stop:
				h.samples <- out
				return
			case <-t.C:
				if live, n := heapLive(); n != cycles {
					cycles = n
					out = append(out, live)
				}
			}
		}
	}()
	return h
}

// Stop stops sampling and waits for the sampler to exit. It may be
// called more than once.
func (h *HeapSampler) Stop() {
	h.once.Do(func() {
		close(h.stop)
		h.got = <-h.samples
	})
}

// StopMeanMB stops sampling and returns the mean of the per-collection
// figures above the baseline, in MB. A phase has twenty or more collections;
// their mean repeats from run to run within a few percent, while a high
// percentile or the maximum depends on which collections happened to meet
// the largest operations in flight. A phase without a collection reports
// what it left live, from one collection at its end.
func (h *HeapSampler) StopMeanMB() float64 {
	h.Stop()
	samples := h.got
	if len(samples) == 0 {
		runtime.GC()
		live, _ := heapLive()
		samples = append(samples, live)
	}
	var sum float64
	for _, x := range samples {
		sum += x - h.base
	}
	return sum / float64(len(samples)) / 1e6
}

// hostCPU reads the machine's stolen and total CPU time in clock ticks
// from /proc/stat (zeros where it is unavailable). On a virtual machine,
// steal is time the host ran something else while this guest wanted to
// run; it explains runs whose timings stand out.
func hostCPU() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// RuntimeSample is a point-in-time reading of the Go runtime's own
// accounting, taken from outside the program's code.
type RuntimeSample struct {
	GCCPU, TotalCPU float64 // seconds
	Mallocs         uint64
	AllocBytes      uint64
}

var runtimeKeys = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

// ReadRuntime samples GC CPU time, total CPU time and heap allocations.
func ReadRuntime() RuntimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return RuntimeSample{GCCPU: f(0), TotalCPU: f(1), Mallocs: u(2), AllocBytes: u(3)}
}

// Sub returns the change from earlier to s.
func (s RuntimeSample) Sub(earlier RuntimeSample) RuntimeSample {
	return RuntimeSample{
		GCCPU:      s.GCCPU - earlier.GCCPU,
		TotalCPU:   s.TotalCPU - earlier.TotalCPU,
		Mallocs:    s.Mallocs - earlier.Mallocs,
		AllocBytes: s.AllocBytes - earlier.AllocBytes,
	}
}

// GCFraction is the share of CPU time the garbage collector used.
func (s RuntimeSample) GCFraction() float64 {
	if s.TotalCPU <= 0 {
		return 0
	}
	return s.GCCPU / s.TotalCPU
}

// ProgramCounters is a snapshot of the counters and histogram sums the
// program exports through loggrep.Metrics(). Histograms appear as
// "<name>.sum" and "<name>.count".
type ProgramCounters map[string]float64

// ReadCounters snapshots the program's exported counters.
func ReadCounters() ProgramCounters {
	pc := ProgramCounters{}
	for k, v := range loggrep.Metrics().CounterValues() {
		pc[k] = float64(v)
	}
	for _, p := range loggrep.Metrics().Snapshot() {
		if p.Kind == obsv.KindHistogram && len(p.Labels) == 0 {
			pc[p.Name+".sum"] = float64(p.Hist.Sum)
			pc[p.Name+".count"] = float64(p.Hist.Count)
		}
	}
	return pc
}

// Delta returns later[name] - pc[name].
func (pc ProgramCounters) Delta(later ProgramCounters, name string) float64 {
	return later[name] - pc[name]
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// count records an exact count of the untraced run, or, from the traced
// run of the same invocation (tr != nil), checks that it repeats the
// untraced run's value. Later changes make count-based claims on these
// numbers, so a count that does not repeat is a failed check.
func (r *Report) count(tr *Tracer, name string, v int64) {
	if tr == nil {
		r.Counts[name] = v
		return
	}
	r.Check(r.Counts[name] == v, "count %s = %d in the traced run, %d in the untraced run", name, v, r.Counts[name])
}

// settle runs a garbage collection so one phase's garbage is not
// collected on the next phase's clock.
func settle() { runtime.GC() }
