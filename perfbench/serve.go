package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/blobstore"
	"loggrep/internal/core"
	"loggrep/internal/flightrec"
	"loggrep/internal/ingest"
	"loggrep/internal/liveops"
	"loggrep/internal/loggen"
	"loggrep/internal/server"
)

const serveTenant = "bench"

// servePlan is the serve workload's generated input: each stream's lines
// in append order, the prefill bodies and the measured phase's batches.
type servePlan struct {
	streams      []*TypeData // whole planned content per stream
	names        []string    // stream names
	prefillLines []int       // lines per stream ingested during set-up
	batches      [][]byte    // NDJSON bodies of the open-loop phase, in due order
	batchStream  []int       // the stream each batch appends to
	perBatch     int         // lines in each batch
	interval     time.Duration
}

// planServe generates the serve inputs from the seed.
func planServe(sz Size, seed int64, dur time.Duration) (*servePlan, error) {
	ss := sz.Serve
	nBatches := int(dur.Seconds() * ss.BatchesPerSecond)
	p := &servePlan{perBatch: ss.LinesPerBatch, interval: time.Duration(float64(time.Second) / ss.BatchesPerSecond)}
	// Batch b appends LinesPerBatch lines to stream b mod Streams, so the
	// batches rotate over the log types and each costs one WAL fsync.
	for k := 0; k < ss.Streams; k++ {
		measuredLines := (nBatches - k + ss.Streams - 1) / ss.Streams * ss.LinesPerBatch
		// The streams' log types are fixed, spread over the type list;
		// the seed varies their content.
		lt := sz.Types[k*len(sz.Types)/ss.Streams]
		// Loggen lines average well over 40 bytes, so this many lines
		// cover the prefill; the measured phase's lines follow them.
		lines := lt.Lines(typeSeed(seed, 100+k), int(2*ss.SealBytes/40)+measuredLines)
		n := prefillLines(lines, ss.SealBytes, measuredLines, 0.45+0.3*float64(k)/float64(max(ss.Streams-1, 1)))
		if len(lines)-n < measuredLines {
			return nil, fmt.Errorf("serve plan: %s lines too short for the prefill", lt.Name)
		}
		lines = lines[:n+measuredLines]
		p.streams = append(p.streams, newTypeData(lt, k, lines))
		p.names = append(p.names, fmt.Sprintf("s%d-%s", k, lt.Name))
		p.prefillLines = append(p.prefillLines, n)
	}
	for b := 0; b < nBatches; b++ {
		k := b % ss.Streams
		off := p.prefillLines[k] + b/ss.Streams*ss.LinesPerBatch
		p.batches = append(p.batches, ndjson(p.names[k], p.streams[k].LinesRange(off, off+ss.LinesPerBatch)))
		p.batchStream = append(p.batchStream, k)
	}
	return p, nil
}

// prefillLines returns how many leading lines to ingest before measuring
// so that the stream seals once during the prefill and again after frac
// of the measured phase's lines: one segment of sealBytes plus a raw tail
// of sealBytes less frac of the measured bytes. Streams get fractions
// spread over 0.45–0.75, so their measured-phase seals follow one another,
// most queries meet a nearly full raw tail (a query's cost is mostly the
// tail scan, so its median does not sit between a short-tail and a
// long-tail cluster), and the last part of the phase is seal-free, which
// shows whether the generator's backlog recovers.
func prefillLines(lines []string, sealBytes int64, measuredLines int, frac float64) int {
	var total int64
	for _, l := range lines[:min(len(lines), measuredLines)] {
		total += int64(len(l) + 1)
	}
	avg := float64(total) / float64(max(min(len(lines), measuredLines), 1))
	target := 2*sealBytes - int64(frac*avg*float64(measuredLines))
	var n int
	for b := int64(0); n < len(lines) && b < target; n++ {
		b += int64(len(lines[n]) + 1)
	}
	return n
}

// ndjson renders one ingest body of lines for a stream.
func ndjson(stream string, lines []string) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, l := range lines {
		_ = enc.Encode(struct {
			Line   string `json:"line"`
			Stream string `json:"stream"`
		}{l, stream}) // strings always encode
	}
	return b.Bytes()
}

// serveEnv is a running server configured like loggrepd's defaults:
// fsync before each ack, 4 MB seals, flight recorder and live-ops plane
// on, listening on loopback.
type serveEnv struct {
	sv     *server.Server
	mgr    *ingest.Manager
	rec    *flightrec.Recorder
	hs     *http.Server
	served chan error
	base   string
	// client sends the set-up's prefill and the traced run's replayed
	// queries; the measured phase's load comes from the load process.
	client *httpClient
	cfg    ingest.Config
}

func ingestConfig(dir string, ss ServeSize) ingest.Config {
	policy := blobstore.Policy{Name: "ingest", MaxAttempts: 3, AttemptTimeout: 2 * time.Second, BreakerFailures: 5, BreakerOpenFor: 5 * time.Second}
	opts := archive.DefaultOptions()
	opts.Workers = Workers
	return ingest.Config{
		Dir:            filepath.Join(dir, "ingest"),
		SealBytes:      ss.SealBytes,
		SealAge:        30 * time.Second,
		MaxTenantBytes: 64 << 20,
		MaxSealedBytes: ss.MaxSealedBytes,
		Archive:        opts,
		Blobs:          blobstore.Wrap(blobstore.NewLocal(filepath.Join(dir, "ingest")), policy),
	}
}

func startServe(dir string, ss ServeSize) (*serveEnv, error) {
	env := &serveEnv{cfg: ingestConfig(dir, ss)}
	mgr, _, err := ingest.Open(env.cfg)
	if err != nil {
		return nil, err
	}
	env.mgr = mgr
	sv := server.New()
	sv.QueryTimeout = 30 * time.Second
	sv.MaxTimeout = 5 * time.Minute
	sv.Liveops = liveops.New(liveops.Config{InflightMax: 1024, UsageWindows: 12})
	sv.Ingest = mgr
	env.rec = flightrec.NewRecorder(flightrec.Config{
		Dir: filepath.Join(dir, "flightrec"), EventRingSize: 256, Cooldown: time.Minute, MaxBundles: 8,
		StateFn: func() any { return sv.SourcesSummary() },
	})
	env.rec.Start()
	sv.FlightRec = env.rec
	sv.Liveops.SLO.OnFastBurn(env.rec.RecordSLOBurn)
	env.sv = sv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.rec.Stop()
		mgr.Close()
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: sv.Handler()}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	env.client = newHTTPClient(env.base)
	return env, nil
}

// stop shuts the server down and closes the ingest manager, waiting for
// the serving goroutine and the recorder to exit.
func (env *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := env.hs.Shutdown(ctx)
	if serr := <-env.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	env.client.c.CloseIdleConnections()
	env.rec.Stop()
	if cerr := env.mgr.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// httpClient talks to the server over one keep-alive connection.
type httpClient struct {
	base string
	c    *http.Client
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, c: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// post sends one ingest body and returns the status and accepted count.
func (h *httpClient) post(body []byte) (int, int, error) {
	resp, err := h.c.Post(h.base+"/ingest?tenant="+serveTenant, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var ir struct {
		Accepted int `json:"accepted"`
	}
	data, err := io.ReadAll(resp.Body)
	if err == nil {
		err = json.Unmarshal(data, &ir)
	}
	return resp.StatusCode, ir.Accepted, err
}

type queryResp struct {
	Lines   []int `json:"lines"`
	Partial bool  `json:"partial"`
}

// query sends one /v1/query request.
func (h *httpClient) query(stream, cmd string) (int, *queryResp, error) {
	u := h.base + "/v1/query?source=" + url.QueryEscape(serveTenant+"/"+stream) + "&q=" + url.QueryEscape(cmd)
	resp, err := h.c.Get(u)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, err
	}
	var qr queryResp
	return resp.StatusCode, &qr, json.Unmarshal(data, &qr)
}

// waitSealed waits until every stream has at least one sealed segment and
// no closed segment awaits sealing.
func (env *serveEnv) waitSealed(streams int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		done := 0
		for _, info := range env.mgr.Snapshot() {
			if info.SealedSegs >= 1 && info.RawSegs <= 1 {
				done++
			}
		}
		if done >= streams {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: seals did not finish within %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// serveRun is what one serve phase measured.
type serveRun struct {
	setup        time.Duration
	load         *loadResult
	cpu          time.Duration // the server process's CPU during the measured phase
	heapMB       float64
	ingestedRaw  int64
	rt           RuntimeSample
	c0, c1, cEnd ProgramCounters // before set-up, before and after the measured phase
	sealed       []sealedSeg     // kept by traced runs for the layer probes
}

// sealedSeg is one sealed segment file's bytes and its stream's log type.
type sealedSeg struct {
	path string
	typ  loggen.LogType
	data []byte
}

// runServe is the serve workload.
func runServe(r *Report, o RunOptions) error {
	run, err := servePhase(r, o, nil)
	if err != nil {
		return err
	}
	run.metrics(r, &r.E2E)
	queries := float64(len(run.load.Queries))
	r.Layer.Set("runtime.gc_cpu_fraction", "ratio", run.rt.GCFraction())
	r.Layer.Set("runtime.alloc_bytes_per_raw_byte", "ratio", float64(run.rt.AllocBytes)/float64(run.ingestedRaw))
	r.Layer.Set("runtime.allocs_per_query", "count", ratio(float64(run.rt.Mallocs), queries))
	r.Layer.Set("loadgen.late_p99_ms", "ms", ms(Percentile(run.load.Late, 0.99)))
	if !o.Trace {
		return nil
	}
	r.tracer = NewTracer()
	trun, err := servePhase(r, o, r.tracer)
	if err != nil {
		return err
	}
	var traced Metrics
	trun.metrics(r, &traced)
	r.overheads(&traced)
	c0, c1 := trun.c1, trun.cEnd
	d := func(name string) float64 { return c0.Delta(c1, name) }
	spans := r.tracer.Spans()
	meanMS := func(name string) float64 {
		t, n := SpanStats(spans, name)
		return ratio(ms(t), float64(n))
	}
	tq := float64(len(trun.load.Queries))
	r.Layer.Set("ingest.fsyncs", "count", d("loggrep_ingest_fsyncs_total"))
	r.Layer.Set("ingest.fsync_ms_mean", "ms", ratio(d("loggrep_ingest_fsync_ns.sum")/1e6, d("loggrep_ingest_fsync_ns.count")))
	r.Layer.Set("ingest.seals", "count", d("loggrep_ingest_seals_total"))
	r.Layer.Set("ingest.seal_ms_mean", "ms", ratio(d("loggrep_ingest_seal_ns.sum")/1e6, d("loggrep_ingest_seal_ns.count")))
	r.Layer.Set("ingest.stream_query_ms", "ms", meanMS("ingest.stream_query"))
	hits, misses := d("loggrep_ingest_sealed_cache_hits_total"), d("loggrep_ingest_sealed_cache_misses_total")
	r.Layer.Set("ingest.sealed_cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	r.Layer.Set("server.query_overhead_ms", "ms", meanMS("server.query")-meanMS("ingest.stream_query"))
	r.Layer.Set("server.rejected", "count", float64(trun.load.Rejected+run.load.Rejected))
	r.Layer.Set("core.decompressions_per_query", "count", ratio(d("loggrep_query_decompressions_total"), tq))
	r.Layer.Set("core.scanned_bytes_per_query", "bytes", ratio(d("loggrep_query_scanned_bytes_total"), tq))
	r.Layer.Set("core.query_cache_hit_ratio", "ratio", ratio(d("loggrep_query_cache_hits_total"), d("loggrep_queries_total")))
	skipped := d("loggrep_archive_blocks_skipped_total") + d("loggrep_archive_blocks_skipped_postings_total") + d("loggrep_archive_blocks_skipped_blooms_total")
	searched := d("loggrep_archive_blocks_searched_total")
	r.Layer.Set("blockindex.skip_ratio", "ratio", ratio(skipped, skipped+searched))
	r.Layer.Set("query.total_matches", "count", float64(trun.load.Matches))
	r.Layer.Set("query.count", "count", tq)
	stageSums(r, trun.c0, trun.cEnd)

	// The sealed segments are the archives the layer probes run on.
	var archives [][]byte
	var segCorpus []*TypeData
	var keywords [][]string
	for _, sg := range trun.sealed {
		a, err := archive.Open(sg.data)
		if err != nil {
			return fmt.Errorf("sealed segment %s: %w", sg.path, err)
		}
		lines, err := a.ReconstructAll()
		if err != nil {
			return fmt.Errorf("sealed segment %s: %w", sg.path, err)
		}
		td := newTypeData(sg.typ, len(segCorpus), lines)
		archives = append(archives, sg.data)
		segCorpus = append(segCorpus, td)
		keywords = append(keywords, queryWords(sg.typ.Query))
		var again []byte
		r.tracer.Do("archive.write", 0, r.tracer.NewReq(), func() { again, err = archive.Compress(td.Raw, ingestConfig("", o.Size.Serve).Archive) })
		r.Check(err == nil && bytes.Equal(again, sg.data), "sealed segment %s does not equal a fresh archive.Compress of its lines", sg.path)
	}
	probeLayers(r, r.tracer, archives, keywords)
	probeArchiveQueries(r, r.tracer, segCorpus, archives)
	return nil
}

// metrics records the serve run's end-to-end metrics into m. Compression
// figures cover every seal of the run, the prefill's included.
func (run *serveRun) metrics(r *Report, m *Metrics) {
	m.Set("setup_s", "s", run.setup.Seconds())
	sealedRaw := run.c0.Delta(run.cEnd, "loggrep_ingest_sealed_raw_bytes_total")
	m.Set("compress_mb_per_s", "MB/s", ratio(sealedRaw/1e6, run.c0.Delta(run.cEnd, "loggrep_ingest_seal_ns.sum")/1e9))
	m.Set("cpu_s_per_mb", "s/MB", run.cpu.Seconds()/mb(run.ingestedRaw))
	m.Set("compression_ratio", "ratio", ratio(sealedRaw, run.c0.Delta(run.cEnd, "loggrep_ingest_sealed_compressed_bytes_total")))
	m.Set("live_heap_mb", "MB", run.heapMB)
	r.writeLatency(m, run.load.AckLat)
	r.readLatency(m, run.load.QueryLat)
}

// servePhase sets up a fresh server, prefills it, runs the load process
// (open-loop ingest generator beside one closed-loop query client) for
// the measured phase, then checks every stream's acknowledged line count
// before and after a close and replay. The server runs in this process
// and the load in a child, so this process's CPU time and heap during
// the measured phase are the server's. With tr set, the load's ingest
// calls become server.ingest spans, and once the load has stopped every
// query it sent is replayed over HTTP and directly on ingest.Stream.Query,
// and quiescent server allocations are measured.
func servePhase(r *Report, o RunOptions, tr *Tracer) (*serveRun, error) {
	run := &serveRun{}
	settle()
	run.c0 = ReadCounters()
	t0 := time.Now()
	plan, err := planServe(o.Size, o.Seed, o.Duration)
	if err != nil {
		return nil, err
	}
	// The server's heap is the program's: the baseline is the plan alone.
	heapBase := heapBaseline()
	dir, err := os.MkdirTemp(o.StateDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env, err := startServe(dir, o.Size.Serve)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			env.stop()
		}
	}()
	cfg := loadConfig{Base: env.base, Seed: o.Seed, Duration: o.Duration, Serve: o.Size.Serve}
	for _, lt := range o.Size.Types {
		cfg.Types = append(cfg.Types, lt.Name)
	}
	load, err := startLoad(cfg)
	if err != nil {
		return nil, err
	}
	defer load.kill()
	// Prefill, closed-loop: one stream per body, 1000 lines each, so the
	// first seal cuts within a few dozen kilobytes of SealBytes.
	for k, td := range plan.streams {
		for off := 0; off < plan.prefillLines[k]; off += 1000 {
			status, _, err := env.client.post(ndjson(plan.names[k], td.LinesRange(off, min(off+1000, plan.prefillLines[k]))))
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("serve prefill: status %d: %v", status, err)
			}
		}
	}
	if err := env.waitSealed(len(plan.streams), 60*time.Second); err != nil {
		return nil, err
	}
	if err := load.ready(); err != nil {
		return nil, err
	}
	run.setup = time.Since(t0)

	// The Table-1 query of each stream over its whole planned content,
	// for the replayed queries.
	table1 := make([][]int, len(plan.streams))
	for k, td := range plan.streams {
		if table1[k], err = td.Oracle(td.Type.Query); err != nil {
			return nil, err
		}
	}

	settle()
	run.c1 = ReadCounters()
	rt0 := ReadRuntime()
	heap := StartHeapSampler(heapBase)
	defer heap.Stop() // on error paths; StopMeanMB stops it otherwise
	cpu0 := cpuTime()
	res, err := load.run()
	if err != nil {
		return nil, err
	}
	run.cpu = cpuTime() - cpu0
	run.heapMB = heap.StopMeanMB()
	run.rt = ReadRuntime().Sub(rt0)
	run.cEnd = ReadCounters()
	run.load = res
	r.Attempted += res.Attempted
	for _, f := range res.Failures {
		r.Fail("%s", f)
	}
	for k := range plan.streams {
		run.ingestedRaw += int64(len(plan.streams[k].Raw) - plan.streams[k].lineStart[plan.prefillLines[k]])
	}
	checkBacklog(r, res.Late, plan.interval)
	if tr != nil {
		for i, d := range res.IngestDur {
			tr.Add("server.ingest", 0, tr.NewReq(), time.Unix(0, res.IngestAt[i]).Sub(tr.t0), d)
		}
	}
	// Seals are size-triggered, so once the last one finishes the sealed
	// segments are the same bytes on every run at this seed.
	if err := env.waitSealed(len(plan.streams), 60*time.Second); err != nil {
		return nil, err
	}
	var sealedSegs, sealedBytes int64
	for _, info := range env.mgr.Snapshot() {
		sealedSegs += int64(info.SealedSegs)
		sealedBytes += info.SealedSize
	}
	r.count(tr, "serve.sealed_segments", sealedSegs)
	r.count(tr, "serve.sealed_bytes", sealedBytes)

	if tr != nil {
		replayQueries(r, tr, env, plan, res, table1)
		needles := absentNeedles(plan.streams, o.Size.Serve.AllocQueries, o.Seed)
		serverAllocs(r, tr, env.sv.Handler(), serveTenant+"/"+plan.names[0], needles)
	}
	// Every acknowledged line is in its stream, before and after a clean
	// close and replay, and a replayed stream answers like the oracle.
	for k, name := range plan.names {
		st := env.mgr.Lookup(serveTenant + "/" + name)
		r.Check(st != nil && int64(st.NumLines()) == res.Acked[k], "stream %s holds %d lines, %d acknowledged", name, numLines(st), res.Acked[k])
	}
	stopped = true
	if err := env.stop(); err != nil {
		r.Check(false, "serve shutdown: %v", err)
	}
	if tr != nil {
		for k, name := range plan.names {
			files, _ := filepath.Glob(filepath.Join(dir, "ingest", serveTenant, name, "seg-*.lgrep"))
			sort.Strings(files)
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					return nil, err
				}
				run.sealed = append(run.sealed, sealedSeg{path: f, typ: plan.streams[k].Type, data: data})
			}
		}
	}
	mgr, _, err := ingest.Open(env.cfg)
	if err != nil {
		r.Check(false, "replay: %v", err)
		return run, nil
	}
	for k, name := range plan.names {
		st := mgr.Lookup(serveTenant + "/" + name)
		n := res.Acked[k]
		r.Check(st != nil && int64(st.NumLines()) == n, "after replay stream %s holds %d lines, %d acknowledged", name, numLines(st), n)
		if st == nil {
			continue
		}
		qr, err := st.Query(context.Background(), plan.streams[k].Type.Query, Workers, core.Budget{})
		r.Check(err == nil && prefixConsistent(qr.Lines, table1[k], n, n), "after replay stream %s query does not match the oracle (%v)", name, err)
	}
	r.Check(mgr.Close() == nil, "closing the replayed ingest manager failed")
	return run, nil
}

// replayQueries sends every query of the measured phase again once the
// load has stopped: first over HTTP (a server.query span), then directly
// on ingest.Stream.Query (an ingest.stream_query span). Both run on the
// same quiescent data, so their difference is the server's share of a
// query, and neither adds work to the measured phase. Every answer must
// be the oracle's over the stream's acknowledged lines.
func replayQueries(r *Report, tr *Tracer, env *serveEnv, plan *servePlan, res *loadResult, table1 [][]int) {
	for _, q := range res.Queries {
		name := plan.names[q.Stream]
		n := res.Acked[q.Stream]
		var want []int
		if q.Cmd == plan.streams[q.Stream].Type.Query {
			want = table1[q.Stream]
		}
		req := tr.NewReq()
		var status int
		var hr *queryResp
		var err error
		tr.Do("server.query", 0, req, func() { status, hr, err = env.client.query(name, q.Cmd) })
		r.Check(err == nil && status == http.StatusOK && !hr.Partial && prefixConsistent(hr.Lines, want, n, n),
			"replayed query %q on %s: status %d, %v", q.Cmd, name, status, err)
		st := env.mgr.Lookup(serveTenant + "/" + name)
		var dr *ingest.Result
		tr.Do("ingest.stream_query", 0, req, func() { dr, err = st.Query(context.Background(), q.Cmd, Workers, core.Budget{}) })
		r.Check(err == nil && prefixConsistent(dr.Lines, want, n, n), "direct stream query %q on %s: %v", q.Cmd, name, err)
	}
}

func numLines(st *ingest.Stream) int {
	if st == nil {
		return -1
	}
	return st.NumLines()
}

// prefixConsistent reports whether got is the oracle's answer over the
// stream's first n lines for some n in [lo, hi]: every acknowledged line
// before the query was searched, and nothing not yet sent matched.
func prefixConsistent(got, oracle []int, lo, hi int64) bool {
	if len(got) > len(oracle) {
		return false
	}
	for i, l := range got {
		if oracle[i] != l || int64(l) >= hi {
			return false
		}
	}
	return len(got) == len(oracle) || int64(oracle[len(got)]) >= lo
}

// checkBacklog flags a run whose open-loop generator fell behind: if the
// last tenth of batches went out more than ten send intervals late on
// median, the backlog was growing and the latencies do not describe the
// intended rate.
func checkBacklog(r *Report, late []time.Duration, interval time.Duration) {
	if len(late) < 10 {
		return
	}
	tail := late[len(late)-len(late)/10:]
	s := append([]time.Duration(nil), tail...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if med := s[len(s)/2]; med > 10*interval {
		r.Invalid = fmt.Sprintf("open-loop generator fell behind: last tenth of batches sent %v late on median", med)
	}
}
