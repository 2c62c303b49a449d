package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"loggrep"
	"loggrep/internal/archive"
	"loggrep/internal/obsv"
)

// Query classes of the query workload's mix, in equal shares.
const (
	classTable1   = "table1"   // the type's Table-1 query
	classWildcard = "wildcard" // hex-prefix wildcard the block index cannot filter
	classAbsent   = "absent"   // a keyword in no line, which the index skips
)

var queryClasses = []string{classTable1, classWildcard, classAbsent}

// QueryCmd is one command of the mix.
type QueryCmd struct {
	Type  int
	Class string
	Cmd   string
}

// QueryMix generates the seeded query sequence: query i has class
// i mod 3 and a seeded random type, and wildcard and absent commands come
// from per-type pools of PoolPerType distinct commands.
type QueryMix struct {
	rng   *rand.Rand
	pools map[string][][]string // class -> type -> commands
	n     int
}

// NewQueryMix builds the pools from the corpus.
func NewQueryMix(corpus []*TypeData, sz Size, seed int64) *QueryMix {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0001))
	m := &QueryMix{rng: rng, pools: map[string][][]string{}}
	for _, td := range corpus {
		wild := make([]string, 0, sz.PoolPerType)
		absent := make([]string, 0, sz.PoolPerType)
		for len(wild) < sz.PoolPerType {
			wild = appendUnique(wild, WildcardCommand(rng, td))
		}
		for len(absent) < sz.PoolPerType {
			absent = appendUnique(absent, AbsentNeedle(rng, td.Raw))
		}
		m.pools[classTable1] = append(m.pools[classTable1], []string{td.Type.Query})
		m.pools[classWildcard] = append(m.pools[classWildcard], wild)
		m.pools[classAbsent] = append(m.pools[classAbsent], absent)
	}
	return m
}

func appendUnique(xs []string, x string) []string {
	for _, y := range xs {
		if y == x {
			return xs
		}
	}
	return append(xs, x)
}

// Next returns the next command of the sequence.
func (m *QueryMix) Next() QueryCmd {
	class := queryClasses[m.n%len(queryClasses)]
	m.n++
	typ := m.rng.Intn(len(m.pools[class]))
	pool := m.pools[class][typ]
	return QueryCmd{Type: typ, Class: class, Cmd: pool[m.rng.Intn(len(pool))]}
}

// Distinct returns every command the mix can produce.
func (m *QueryMix) Distinct() []QueryCmd {
	var out []QueryCmd
	for _, class := range queryClasses {
		for typ, pool := range m.pools[class] {
			for _, c := range pool {
				out = append(out, QueryCmd{Type: typ, Class: class, Cmd: c})
			}
		}
	}
	return out
}

// oracles computes the expected line numbers of every distinct command,
// on two goroutines.
func oracles(corpus []*TypeData, cmds []QueryCmd) (map[QueryCmd][]int, error) {
	out := make(map[QueryCmd][]int, len(cmds))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan QueryCmd)
	for w := 0; w < Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				lines, err := corpus[q.Type].Oracle(q.Cmd)
				mu.Lock()
				out[q] = lines
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle %q: %w", q.Cmd, err)
				}
				mu.Unlock()
			}
		}()
	}
	for _, q := range cmds {
		next <- q
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// queryCounters are the program's query-path counters, read directly so
// a per-query reading costs a few atomic loads.
var queryCounters = struct {
	decompressions, scanned, cacheHits, queries *obsv.Counter
}{
	loggrep.Metrics().Counter("loggrep_query_decompressions_total", ""),
	loggrep.Metrics().Counter("loggrep_query_scanned_bytes_total", ""),
	loggrep.Metrics().Counter("loggrep_query_cache_hits_total", ""),
	loggrep.Metrics().Counter("loggrep_queries_total", ""),
}

// queryTally accumulates exact per-query work counts.
type queryTally struct {
	n                                                 int
	decompressions, scanned, matches, skipped, blocks int64
	cacheHits, engineQueries                          int64
	mallocs                                           uint64
}

type tallyMark struct {
	decompressions, scanned, cacheHits, queries int64
	rt                                          RuntimeSample
}

func (t *queryTally) start() tallyMark {
	c := queryCounters
	m := tallyMark{decompressions: c.decompressions.Value(), scanned: c.scanned.Value(),
		cacheHits: c.cacheHits.Value(), queries: c.queries.Value()}
	m.rt = ReadRuntime()
	return m
}

// add counts one archive query that started at mark m.
func (t *queryTally) add(m tallyMark, a *archive.Archive, res *archive.Result) (decompressions, scanned int64) {
	rt := ReadRuntime()
	c := queryCounters
	decompressions = c.decompressions.Value() - m.decompressions
	scanned = c.scanned.Value() - m.scanned
	t.n++
	t.decompressions += decompressions
	t.scanned += scanned
	t.cacheHits += c.cacheHits.Value() - m.cacheHits
	t.engineQueries += c.queries.Value() - m.queries
	t.matches += int64(len(res.Lines))
	t.skipped += int64(skippedBlocks(a))
	t.blocks += int64(a.NumBlocks())
	t.mallocs += rt.Sub(m.rt).Mallocs
	return decompressions, scanned
}

// skippedBlocks counts the blocks an archive's queries have not searched:
// those its index ruled out (postings, then blooms) and those its block
// stamps ruled out.
func skippedBlocks(a *archive.Archive) int {
	postings, blooms := a.IndexSkipped()
	return postings + blooms + a.SkippedBlocks()
}

// report records the per-query layer metrics.
func (t *queryTally) report(r *Report) {
	n := float64(t.n)
	r.Layer.Set("core.decompressions_per_query", "count", ratio(float64(t.decompressions), n))
	r.Layer.Set("core.scanned_bytes_per_query", "bytes", ratio(float64(t.scanned), n))
	r.Layer.Set("core.query_cache_hit_ratio", "ratio", ratio(float64(t.cacheHits), float64(t.engineQueries)))
	r.Layer.Set("blockindex.skip_ratio", "ratio", ratio(float64(t.skipped), float64(t.blocks)))
	r.Layer.Set("runtime.allocs_per_query", "count", ratio(float64(t.mallocs), n))
	r.Layer.Set("query.total_matches", "count", float64(t.matches))
	r.Layer.Set("query.count", "count", n)
}

// runQuery is the query workload: set-up compresses the corpus; then one
// closed-loop client sends seeded queries, each against a freshly opened
// archive so no program cache holds any of the data.
func runQuery(r *Report, o RunOptions) error {
	st, err := queryRun(r, o, nil, &r.E2E, nil)
	if err != nil || !o.Trace {
		return err
	}
	// Only the oracle answers outlive the untraced run, so the traced run
	// starts from the same heap size (and garbage-collector pacing).
	want := st.want
	st = nil
	r.tracer = NewTracer()
	var traced Metrics
	tst, err := queryRun(r, o, r.tracer, &traced, want)
	if err != nil {
		return err
	}
	r.overheads(&traced)
	tst.tally.report(r)
	queryStageMetrics(r, r.tracer.Spans())
	// The archive writer's time and the compressor's stage split come
	// from the set-up compression.
	stageSums(r, tst.c0, tst.c1)
	probeLayers(r, r.tracer, tst.archives, corpusKeywords(tst.corpus))
	sv, err := archiveServer(tst.archives)
	if err != nil {
		return err
	}
	serverAllocs(r, r.tracer, sv.Handler(), sourceName(0), absentNeedles(tst.corpus, o.Size.Serve.AllocQueries, o.Seed))
	noIngestLayers(r)
	return nil
}

// queryState is what a query run leaves for the traced run and probes.
type queryState struct {
	corpus   []*TypeData
	archives [][]byte
	want     map[QueryCmd][]int
	tally    queryTally
	c0, c1   ProgramCounters // around the set-up compression
}

// queryRun sets up, measures and checks the query workload once,
// recording its end-to-end metrics into m. want, when non-nil, holds the
// oracle answers an earlier run at the same seed computed.
func queryRun(r *Report, o RunOptions, tr *Tracer, m *Metrics, want map[QueryCmd][]int) (*queryState, error) {
	st := &queryState{want: want}
	settle()
	st.c0 = ReadCounters()
	t0 := time.Now()
	st.corpus = GenCorpus(o.Size, o.Seed)
	archives, writeLat, err := CompressPass(st.corpus, tr)
	if err != nil {
		return nil, err
	}
	m.Set("setup_s", "s", time.Since(t0).Seconds())
	st.c1 = ReadCounters()
	st.archives = archives
	var raw, arcBytes int64
	var writeTime time.Duration
	for i, td := range st.corpus {
		raw += int64(len(td.Raw))
		arcBytes += int64(len(archives[i]))
		writeTime += writeLat[i]
		checkBlocks(r, td, archives[i], o.Size.MinBlockLines)
	}
	m.Set("compress_mb_per_s", "MB/s", mb(raw)/writeTime.Seconds())
	m.Set("compression_ratio", "ratio", float64(raw)/float64(arcBytes))
	r.writeLatency(m, writeLat)

	mix := NewQueryMix(st.corpus, o.Size, o.Seed)
	if st.want == nil {
		if st.want, err = oracles(st.corpus, mix.Distinct()); err != nil {
			return nil, err
		}
	}

	base := heapBaseline()
	rt0 := ReadRuntime()
	heap := StartHeapSampler(base)
	defer heap.Stop() // on error paths; StopMeanMB stops it otherwise
	type work struct{ decompressions, scanned, skipped int64 }
	seen := map[QueryCmd]work{}
	var lat []time.Duration
	var rawSearched int64
	start := time.Now()
	cpu0 := cpuTime()
	// Until the measured phase is over and at least MinQueries were sent.
	// Each answer must equal the oracle, and each repeated command must
	// repeat its first run's work counts exactly.
	for st.tally.n < o.Size.MinQueries || time.Since(start) < o.Duration {
		q := mix.Next()
		req := tr.NewReq()
		mark := st.tally.start()
		t0 := time.Now()
		var a *archive.Archive
		var res *archive.Result
		var err error
		if tr == nil {
			if a, err = archive.Open(archives[q.Type]); err == nil {
				res, err = a.Query(q.Cmd, Workers)
			}
		} else {
			tr.Do("archive.open", 0, req, func() { a, err = archive.Open(archives[q.Type]) })
			if err == nil {
				res, err = tracedQuery(tr, req, a, q.Cmd)
			}
		}
		d := time.Since(t0)
		r.Attempted++
		if err != nil {
			r.Fail("query %q on %s: %v", q.Cmd, st.corpus[q.Type].Type.Name, err)
			continue
		}
		lat = append(lat, d)
		rawSearched += int64(len(st.corpus[q.Type].Raw))
		dec, scanned := st.tally.add(mark, a, res)
		if !equalInts(res.Lines, st.want[q]) || res.Partial || len(res.Damaged) > 0 {
			r.Fail("query %q on %s: %d matches, oracle %d (partial %v)", q.Cmd, st.corpus[q.Type].Type.Name, len(res.Lines), len(st.want[q]), res.Partial)
		}
		w := work{dec, scanned, int64(skippedBlocks(a))}
		if prev, ok := seen[q]; ok && prev != w {
			r.Fail("query %q: work counts %+v differ from its first run %+v", q.Cmd, w, prev)
		} else if !ok && tr != nil {
			coreStages(r, tr, req, a, q.Cmd, st.want[q])
		}
		seen[q] = w
		if st.tally.n == o.Size.MinQueries {
			r.count(tr, "query.prefix_decompressions", st.tally.decompressions)
			r.count(tr, "query.prefix_scanned_bytes", st.tally.scanned)
			r.count(tr, "query.prefix_matches", st.tally.matches)
			r.count(tr, "query.prefix_skipped_blocks", st.tally.skipped)
		}
	}
	cpu := cpuTime() - cpu0
	m.Set("live_heap_mb", "MB", heap.StopMeanMB())
	rt := ReadRuntime().Sub(rt0)
	m.Set("cpu_s_per_mb", "s/MB", cpu.Seconds()/mb(rawSearched))
	r.readLatency(m, lat)
	if tr == nil {
		r.Layer.Set("runtime.gc_cpu_fraction", "ratio", rt.GCFraction())
		r.Layer.Set("runtime.alloc_bytes_per_raw_byte", "ratio", float64(rt.AllocBytes)/float64(rawSearched))
	}
	r.count(tr, "query.archive_bytes", arcBytes)
	return st, nil
}

// absentNeedles returns n distinct keywords in none of the corpus.
func absentNeedles(corpus []*TypeData, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0002))
	raws := make([][]byte, len(corpus))
	for i, td := range corpus {
		raws[i] = td.Raw
	}
	var out []string
	for len(out) < n {
		out = appendUnique(out, AbsentNeedle(rng, raws...))
	}
	return out
}
