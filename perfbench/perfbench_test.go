package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"loggrep"
	"loggrep/internal/loggen"
)

// TestMain lets the test binary serve as the serve workload's load
// process, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == roleServeClient {
		os.Exit(serveLoadMain())
	}
	os.Exit(m.Run())
}

// smallSize is every workload at a few seconds' scale: three log types,
// two blocks each, a short query prefix and two small ingest streams.
func smallSize() Size {
	return Size{
		Name:          "small",
		Types:         loggen.Production()[:3],
		LinesPerType:  4000,
		MinBlockLines: 1900,
		SetupReps:     2,
		MinQueries:    60,
		PoolPerType:   3,
		Serve: ServeSize{
			Streams:          2,
			LinesPerBatch:    10,
			BatchesPerSecond: 50,
			ThinkTime:        10 * time.Millisecond,
			SealBytes:        200 << 10,
			MaxSealedBytes:   256 << 20,
			AllocQueries:     20,
		},
	}
}

// benchmarkSpec reads the metric names BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (workloads, e2e, layer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	return workloads, e2e, layer
}

func sameNames(t *testing.T, what string, got *Metrics, want []string) {
	t.Helper()
	g := append([]string(nil), got.names...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, " ") != strings.Join(w, " ") {
		t.Errorf("%s metrics differ from BENCHMARK.json\n got %v\nwant %v", what, g, w)
	}
}

// TestWorkloads runs every workload small, untraced and traced, and
// checks it answers correctly and reports exactly the metrics
// BENCHMARK.json lists, every end-to-end one non-zero.
func TestWorkloads(t *testing.T) {
	workloads, e2e, layer := benchmarkSpec(t)
	state := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			o := RunOptions{Seed: 7, Duration: time.Second, Trace: traced, StateDir: state, Size: smallSize()}
			rep, err := Run(wl, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !rep.Correct() {
				t.Errorf("%s traced=%v: not correct: %d of %d failed, invalid %q, problems %v", wl, traced, rep.Failed, rep.Attempted, rep.Invalid, rep.Problems)
			}
			sameNames(t, wl+" end-to-end", &rep.E2E, e2e)
			for _, n := range e2e {
				if rep.E2E.Get(n) <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, n, rep.E2E.Get(n))
				}
			}
			if traced {
				sameNames(t, wl+" per-layer", &rep.Layer, layer)
			}
		}
	}
}

// TestCountsMustRepeat checks that a traced run fails when an exact
// count differs from the untraced run's, and passes when it repeats.
func TestCountsMustRepeat(t *testing.T) {
	r := newReport("query")
	r.count(nil, "query.archive_bytes", 100)
	tr := NewTracer()
	r.count(tr, "query.archive_bytes", 100)
	if !r.Correct() {
		t.Fatalf("a repeated count failed: %v", r.Problems)
	}
	r.count(tr, "query.archive_bytes", 101)
	if r.Correct() {
		t.Fatal("a count that did not repeat passed")
	}
}

// TestSelfTimes checks the span arithmetic: a span's self time is its
// duration minus the union of its children's intervals within it.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "archive.query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.parse", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.filter", Start: 20, End: 50},    // overlaps 2
		{ID: 4, Parent: 1, Name: "core.verify", Start: 90, End: 120},   // runs past its parent
		{ID: 5, Parent: 3, Name: "lzma.decode", Start: 25, End: 35},    // grandchild
		{ID: 6, Name: "archive.open", Start: 200, End: 210},            // another root
		{ID: 7, Parent: 6, Name: "capsule.read", Start: 150, End: 160}, // entirely outside its parent
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{
		// 100 - |[10,50] ∪ [90,100]| = 100 - 50, plus archive.open's 10.
		"archive": 60,
		// parse 20 + filter (30 - 10 covered by lzma) + verify 30.
		"core":    70,
		"lzma":    10,
		"capsule": 10,
	}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self time of %s = %d, want %d", l, self[l], w)
		}
	}
	if got := coveredWithin(nil, 0, 10); got != 0 {
		t.Errorf("coveredWithin(nil) = %d", got)
	}
	if got := coveredWithin([][2]int64{{0, 5}, {5, 8}, {2, 3}}, 1, 10); got != 7 {
		t.Errorf("touching intervals: covered %d, want 7", got)
	}
}

// TestOracleMatchesRawQuery checks the keyword shortcut gives exactly
// loggrep.RawQuery's answer for every command class the workloads send.
func TestOracleMatchesRawQuery(t *testing.T) {
	sz := smallSize()
	rng := rand.New(rand.NewSource(3))
	for _, td := range GenCorpus(sz, 3) {
		cmds := append(queryWords(td.Type.Query), td.Type.Query, "INFO", "node-1", AbsentNeedle(rng, td.Raw), WildcardCommand(rng, td))
		for _, cmd := range cmds {
			got, err := td.Oracle(cmd)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := loggrep.RawQuery(td.Raw, cmd)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got, want) {
				t.Errorf("%s %q: oracle %d lines, RawQuery %d", td.Type.Name, cmd, len(got), len(want))
			}
		}
	}
}

// TestBlockBytesForTwo checks the threshold cuts any line mix into
// exactly two blocks.
func TestBlockBytesForTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var lens []int
		n, longest := 0, 0
		for i := 0; i < 2+rng.Intn(300); i++ {
			l := 1 + rng.Intn(1+rng.Intn(200))
			lens = append(lens, l)
			n += l
			longest = max(longest, l)
		}
		b := blockBytesForTwo(n, longest)
		// Simulate the writer: cut at the last line end within b bytes
		// while at least b bytes are buffered.
		blocks, buf := 0, 0
		for _, l := range lens {
			buf += l
		}
		for buf >= b {
			cut, acc := 0, 0
			for _, l := range lens {
				if acc+l > b {
					break
				}
				acc += l
				cut++
			}
			lens = lens[cut:]
			buf -= acc
			blocks++
		}
		if buf > 0 {
			blocks++
		}
		if blocks != 2 {
			t.Fatalf("trial %d: %d blocks, want 2", trial, blocks)
		}
	}
}

// TestPrefixConsistent pins the rule a concurrent stream query is held to.
func TestPrefixConsistent(t *testing.T) {
	oracle := []int{3, 7, 12}
	cases := []struct {
		got    []int
		lo, hi int64
		ok     bool
	}{
		{[]int{3, 7}, 8, 10, true},      // line 12 not yet acknowledged nor sent
		{[]int{3}, 8, 10, false},        // line 7 was acknowledged, missing
		{[]int{3, 7, 12}, 8, 10, false}, // line 12 was never sent
		{[]int{3, 7, 12}, 8, 13, true},
		{[]int{3, 8}, 0, 20, false}, // not the oracle's lines
		{nil, 0, 3, true},
	}
	for i, c := range cases {
		if prefixConsistent(c.got, oracle, c.lo, c.hi) != c.ok {
			t.Errorf("case %d: prefixConsistent(%v, %d, %d) != %v", i, c.got, c.lo, c.hi, c.ok)
		}
	}
}
