package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Its layer is the name's first dot-separated
// part ("archive.open" belongs to "archive").
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int64  `json:"req"`    // request (operation) id shared by its spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// Layer returns the layer a span belongs to.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pass nil and take no timestamps.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	req   int64
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// NewReq returns a fresh request id.
func (t *Tracer) NewReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records an already-measured span: a stage timing the program
// reports itself (QueryTraced spans), placed at an offset from its
// parent's start, or, with parent 0, a call timed by another process,
// placed at an offset from the tracer's start.
func (t *Tracer) Add(name string, parent int, req int64, offset, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := offset.Nanoseconds()
	if parent != 0 {
		start += t.spans[parent-1].Start
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start, End: start + dur.Nanoseconds()})
}

// Do runs fn inside a span.
func (t *Tracer) Do(name string, parent int, req int64, fn func()) time.Duration {
	id := t.Begin(name, parent, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.End(id)
	return d
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// SelfTimes returns each layer's self time: for every span, its duration
// minus the part of its interval that its child spans cover (children
// that overlap each other are counted once, and only within the parent),
// summed per layer.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := coveredWithin(children[s.ID], s.Start, s.End)
		out[s.Layer()] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredWithin returns the length of the union of intervals clipped to
// [lo, hi].
func coveredWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	started := false
	for _, x := range clipped {
		switch {
		case !started:
			curA, curB, started = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// SpanStats sums the durations and counts of spans with one name.
func SpanStats(spans []Span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.Dur()
			n++
		}
	}
	return total, n
}

// layers lists every layer whose self time a traced run reports.
var layers = []string{"logparse", "rtpattern", "core", "capsule", "lzma", "strmatch", "blockindex", "archive", "ingest", "server"}

// finishTrace reports per-layer self times and the tracing overhead, and
// writes the spans out.
func (r *Report) finishTrace(o RunOptions) {
	spans := r.tracer.Spans()
	self := SelfTimes(spans)
	for _, l := range layers {
		r.Layer.Set(l+".self_s", "s", self[l].Seconds())
	}
	r.Layer.Set("trace.spans", "count", float64(len(spans)))
	if o.StateDir != "" {
		path := filepath.Join(o.StateDir, fmt.Sprintf("spans-%s-seed%d-%s.jsonl", r.Workload, o.Seed, o.Size.Name))
		if err := r.tracer.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
}

// overheads records how much tracing changed each end-to-end metric: the
// traced run's value against the untraced run's, as a share of the
// untraced value.
func (r *Report) overheads(traced *Metrics) {
	for _, n := range r.E2E.names {
		base := r.E2E.Get(n)
		r.Layer.Set("trace.overhead."+n, "ratio", ratio(traced.Get(n)-base, base))
	}
}
