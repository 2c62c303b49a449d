package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loggrep/internal/loggen"
)

// The serve workload's load (the open-loop ingest generator and the
// closed-loop query client) runs in a child process: the benchmark binary
// started again with roleEnv set. The server's process then spends its CPU
// time and heap on the server alone, and cpu_s_per_mb and live_heap_mb
// describe the program, not the client that measures it.
//
// Protocol: the parent writes a loadConfig as JSON on the child's stdin.
// The child regenerates the plan from it, writes the JSON string "ready"
// on stdout, waits for the JSON value true on stdin, runs the measured
// phase, writes a loadResult and exits.
const (
	roleEnv         = "PERFBENCH_ROLE"
	roleServeClient = "serve-load"
)

// loadConfig is what the load process needs to regenerate the serve plan
// and reach the server.
type loadConfig struct {
	Base     string
	Seed     int64
	Duration time.Duration
	Types    []string // the corpus's log types by name
	Serve    ServeSize
}

// loadQuery is one query the load process sent.
type loadQuery struct {
	Stream int
	Cmd    string
}

// loadResult is what the load process measured and checked.
type loadResult struct {
	Attempted int
	Failures  []string
	Rejected  int             // requests refused with 429 or 503
	Acked     []int64         // acknowledged lines per stream, prefill included
	AckLat    []time.Duration // per batch, from when it was due
	Late      []time.Duration // per batch, how late it was sent
	IngestAt  []int64         // per batch, wall-clock start of its POST (Unix ns)
	IngestDur []time.Duration // per batch, the POST's round trip
	QueryLat  []time.Duration // per answered query
	Queries   []loadQuery     // every query sent, in order
	Matches   int64
}

// loadProcess is a running load child.
type loadProcess struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *json.Decoder
	done bool
}

// startLoad starts the load process and sends it its configuration.
func startLoad(cfg loadConfig) (*loadProcess, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"="+roleServeClient)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	lp := &loadProcess{cmd: cmd, in: in, out: json.NewDecoder(out)}
	if err := json.NewEncoder(in).Encode(cfg); err != nil {
		lp.kill()
		return nil, fmt.Errorf("serve load process: %w", err)
	}
	return lp, nil
}

// ready waits until the load process has generated its inputs.
func (lp *loadProcess) ready() error {
	var s string
	if err := lp.out.Decode(&s); err != nil || s != "ready" {
		return fmt.Errorf("serve load process did not get ready (%q, %v)", s, err)
	}
	return nil
}

// run starts the measured phase and returns the load process's result
// once it has exited.
func (lp *loadProcess) run() (*loadResult, error) {
	if _, err := io.WriteString(lp.in, "true\n"); err != nil {
		return nil, fmt.Errorf("serve load process: %w", err)
	}
	var res loadResult
	derr := lp.out.Decode(&res)
	lp.in.Close()
	werr := lp.cmd.Wait()
	lp.done = true
	if derr != nil || werr != nil {
		return nil, fmt.Errorf("serve load process: result %v, exit %v", derr, werr)
	}
	return &res, nil
}

// kill stops a load process that has not finished, and waits for it.
func (lp *loadProcess) kill() {
	if lp.done {
		return
	}
	lp.done = true
	// The process may have exited already; either way Wait reaps it, and
	// its exit status no longer matters.
	_ = lp.cmd.Process.Kill()
	lp.in.Close()
	_ = lp.cmd.Wait()
}

// serveLoadMain is the load process's main function; it returns the exit
// code.
func serveLoadMain() int {
	runtime.GOMAXPROCS(Workers)
	in := json.NewDecoder(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench serve load:", err)
		return 1
	}
	var cfg loadConfig
	if err := in.Decode(&cfg); err != nil {
		return fail(err)
	}
	sz := Size{Serve: cfg.Serve}
	for _, name := range cfg.Types {
		lt, ok := loggen.ByName(name)
		if !ok {
			return fail(fmt.Errorf("unknown log type %q", name))
		}
		sz.Types = append(sz.Types, lt)
	}
	plan, err := planServe(sz, cfg.Seed, cfg.Duration)
	if err != nil {
		return fail(err)
	}
	// Oracles: the Table-1 query of each stream over its whole planned
	// content; an answer must equal a prefix of it (see prefixConsistent).
	table1 := make([][]int, len(plan.streams))
	for k, td := range plan.streams {
		if table1[k], err = td.Oracle(td.Type.Query); err != nil {
			return fail(err)
		}
	}
	if err := out.Encode("ready"); err != nil {
		return fail(err)
	}
	var start bool
	if err := in.Decode(&start); err != nil || !start {
		return fail(fmt.Errorf("no start signal (%v)", err))
	}
	if err := out.Encode(runLoad(cfg, plan, table1)); err != nil {
		return fail(err)
	}
	return 0
}

// runLoad runs the measured phase: the open-loop generator POSTs each
// batch at its due time on one connection while one closed-loop client
// queries the streams on another, until the generator has sent its last
// batch.
func runLoad(cfg loadConfig, plan *servePlan, table1 [][]int) *loadResult {
	res := &loadResult{}
	acked := make([]atomic.Int64, len(plan.streams))
	sent := make([]atomic.Int64, len(plan.streams))
	for k := range plan.streams {
		acked[k].Store(int64(plan.prefillLines[k]))
		sent[k].Store(int64(plan.prefillLines[k]))
	}
	ingestC, queryC := newHTTPClient(cfg.Base), newHTTPClient(cfg.Base)
	defer ingestC.c.CloseIdleConnections()
	defer queryC.c.CloseIdleConnections()

	var wg sync.WaitGroup
	genDone := make(chan struct{})
	var genFailed []string
	genRejected := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(genDone)
		start := time.Now()
		for b, body := range plan.batches {
			due := start.Add(time.Duration(b) * plan.interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			k := plan.batchStream[b]
			sent[k].Add(int64(plan.perBatch))
			t := time.Now()
			res.Late = append(res.Late, t.Sub(due))
			status, accepted, err := ingestC.post(body)
			res.IngestAt = append(res.IngestAt, t.UnixNano())
			res.IngestDur = append(res.IngestDur, time.Since(t))
			res.AckLat = append(res.AckLat, time.Since(due))
			if err != nil || status != http.StatusOK || accepted != plan.perBatch {
				if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
					genRejected++
				}
				genFailed = append(genFailed, fmt.Sprintf("ingest batch %d: status %d accepted %d: %v", b, status, accepted, err))
				continue
			}
			acked[k].Add(int64(plan.perBatch))
		}
	}()
	// Each query is sent a think time after the previous one answered. The
	// think time leaves the two cores slack beside a seal, so
	// acknowledgements wait on the seal's contention, not on a saturated
	// machine.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed0004))
	needleCheck := make([][][]byte, len(plan.streams))
	for k, td := range plan.streams {
		needleCheck[k] = needleInputs(td.Raw)
	}
	think := time.NewTimer(0)
	defer think.Stop()
queries:
	for q := 0; ; q++ {
		select {
		case <-genDone:
			break queries
		case <-think.C:
		}
		// Streams in turn; on each, one Table-1 query then three fresh
		// absent needles. The two classes' latencies differ severalfold
		// (Table-1 answers carry thousands of raw-tail matches), so the
		// shares keep the median among the needles and the 90th percentile
		// among the Table-1 queries rather than on the boundary between
		// them.
		k := q % len(plan.streams)
		td := plan.streams[k]
		cmd := td.Type.Query
		if q/len(plan.streams)%4 != 0 {
			cmd = AbsentNeedle(rng, needleCheck[k]...)
		}
		before := acked[k].Load()
		t := time.Now()
		status, qr, err := queryC.query(plan.names[k], cmd)
		lat := time.Since(t)
		think.Reset(cfg.Serve.ThinkTime)
		after := sent[k].Load()
		res.Attempted++
		res.Queries = append(res.Queries, loadQuery{Stream: k, Cmd: cmd})
		if err != nil || status != http.StatusOK {
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				res.Rejected++
			}
			res.Failures = append(res.Failures, fmt.Sprintf("serve query %q: status %d: %v", cmd, status, err))
			continue
		}
		res.QueryLat = append(res.QueryLat, lat)
		res.Matches += int64(len(qr.Lines))
		var want []int
		if cmd == td.Type.Query {
			want = table1[k]
		}
		if !prefixConsistent(qr.Lines, want, before, after) || qr.Partial {
			res.Failures = append(res.Failures, fmt.Sprintf("serve query %q on %s: %d matches not consistent with the %d..%d acknowledged lines", cmd, plan.names[k], len(qr.Lines), before, after))
		}
	}
	wg.Wait()
	res.Rejected += genRejected
	res.Failures = append(res.Failures, genFailed...)
	res.Attempted += len(plan.batches)
	for k := range plan.streams {
		res.Acked = append(res.Acked, acked[k].Load())
	}
	return res
}
