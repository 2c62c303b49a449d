package main

import (
	"bytes"
	"math"
	"strings"
	"time"

	"loggrep/internal/archive"
)

// runCompress is the compress workload: every production log type at
// paper-sized blocks, streamed through ArchiveWriter with 2 workers. It
// runs the whole write path and no query work.
func runCompress(r *Report, o RunOptions) error {
	st, err := compressRun(r, o, nil, &r.E2E)
	if err != nil || !o.Trace {
		return err
	}
	// Only the archives outlive the untraced run, so the traced run starts
	// from the same heap size (and garbage-collector pacing) it did.
	untracedArchives := st.archives
	st = nil
	r.tracer = NewTracer()
	var traced Metrics
	tst, err := compressRun(r, o, r.tracer, &traced)
	if err != nil {
		return err
	}
	r.overheads(&traced)
	for i, td := range tst.corpus {
		r.Check(bytes.Equal(tst.archives[i], untracedArchives[i]), "%s archive differs between the traced and untraced runs", td.Type.Name)
	}
	stageSums(r, tst.c0, tst.c1)
	probeLayers(r, r.tracer, tst.archives, corpusKeywords(tst.corpus))
	probeArchiveQueries(r, r.tracer, tst.corpus, tst.archives).report(r)
	sv, err := archiveServer(tst.archives)
	if err != nil {
		return err
	}
	serverAllocs(r, r.tracer, sv.Handler(), sourceName(0), absentNeedles(tst.corpus, o.Size.Serve.AllocQueries, o.Seed))
	noIngestLayers(r)
	return nil
}

// compressState is what a compress run leaves for the layer probes.
type compressState struct {
	corpus   []*TypeData
	archives [][]byte
	c0, c1   ProgramCounters // around the measured phase
}

// compressRun sets up, measures and checks the compress workload once,
// recording its end-to-end metrics into m.
func compressRun(r *Report, o RunOptions, tr *Tracer, m *Metrics) (*compressState, error) {
	st := &compressState{}
	var setups []float64
	for i := 0; i < max(o.Size.SetupReps, 1); i++ {
		st.corpus = nil
		settle()
		t0 := time.Now()
		st.corpus = GenCorpus(o.Size, o.Seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.Set("setup_s", "s", Median(setups))

	base := heapBaseline()
	st.c0 = ReadCounters()
	rt0 := ReadRuntime()
	heap := StartHeapSampler(base)
	defer heap.Stop() // on error paths; StopMeanMB stops it otherwise
	var writeLat []time.Duration
	var writeTime time.Duration
	var rawBytes, arcBytes int64
	// One pass over the corpus takes about 10 s on the 2-core machine the
	// workload is sized for, so the measured phase is a fixed number of
	// whole passes: a pass count that depended on the clock would make runs
	// near the boundary measure different work. Later passes must
	// reproduce the first pass's archives byte for byte.
	passes := max(1, int(math.Round(o.Duration.Seconds()/10)))
	cpu0 := cpuTime()
	for p := 0; p < passes; p++ {
		arcs, lat, err := CompressPass(st.corpus, tr)
		if err != nil {
			return nil, err
		}
		for i, td := range st.corpus {
			writeLat = append(writeLat, lat[i])
			writeTime += lat[i]
			rawBytes += int64(len(td.Raw))
			if p == 0 {
				arcBytes += int64(len(arcs[i]))
				r.Attempted++
			} else {
				r.Check(bytes.Equal(arcs[i], st.archives[i]), "%s archive differs between passes", td.Type.Name)
			}
		}
		if p == 0 {
			st.archives = arcs
		}
	}
	cpu := cpuTime() - cpu0
	m.Set("live_heap_mb", "MB", heap.StopMeanMB())
	rt := ReadRuntime().Sub(rt0)
	st.c1 = ReadCounters()
	m.Set("compress_mb_per_s", "MB/s", mb(rawBytes)/writeTime.Seconds())
	m.Set("cpu_s_per_mb", "s/MB", cpu.Seconds()/mb(rawBytes))
	m.Set("compression_ratio", "ratio", float64(rawBytes/int64(passes))/float64(arcBytes))
	r.writeLatency(m, writeLat)
	if tr == nil {
		r.Layer.Set("runtime.gc_cpu_fraction", "ratio", rt.GCFraction())
		r.Layer.Set("runtime.alloc_bytes_per_raw_byte", "ratio", float64(rt.AllocBytes)/float64(rawBytes))
	}
	// Exact counts must repeat within one invocation: later passes and the
	// traced run compress every type again and must reproduce its archive.
	// A single untraced pass repeats every seventh type, starting at one
	// the seed picks, outside the timed region.
	if passes == 1 && !o.Trace {
		step := min(7, len(st.corpus))
		for i := int((o.Seed%int64(step) + int64(step)) % int64(step)); i < len(st.corpus); i += step {
			again, err := CompressType(st.corpus[i])
			r.Check(err == nil && bytes.Equal(again, st.archives[i]), "%s archive differs when compressed again (err %v)", st.corpus[i].Type.Name, err)
		}
	}
	r.count(tr, "compress.archive_bytes", arcBytes)
	r.count(tr, "compress.raw_bytes", rawBytes/int64(passes))

	// Outside the timed region: every archive must hold two paper-sized
	// blocks and reconstruct byte-identical to its input. Each archive's
	// reconstruct, from a fresh open, is the workload's read latency; four
	// rounds give 84 samples spread over about 10 s, so a short burst of
	// machine noise moves few of them.
	var readLat []time.Duration
	for round := 0; round < 4; round++ {
		for i, td := range st.corpus {
			if round == 0 {
				checkBlocks(r, td, st.archives[i], o.Size.MinBlockLines)
			}
			var lines []string
			var err error
			d := tr.Do("archive.reconstruct", 0, tr.NewReq(), func() {
				var a *archive.Archive
				if a, err = archive.Open(st.archives[i]); err == nil {
					lines, err = a.ReconstructAll()
				}
			})
			readLat = append(readLat, d)
			r.Check(err == nil && len(lines) == td.NumLines() && bytes.Equal([]byte(strings.Join(lines, "\n")+"\n"), td.Raw),
				"%s archive does not reconstruct its input (err %v)", td.Type.Name, err)
		}
	}
	r.readLatency(m, readLat)
	return st, nil
}

// stageSums reports the compressor's own per-stage histogram sums over a
// phase: the parse / extract / assemble / pack split the program already
// exports as loggrep_compress_*_ns.
func stageSums(r *Report, before, after ProgramCounters) {
	for _, st := range []string{"parse", "extract", "assemble", "pack"} {
		r.Layer.Set("core."+st+"_s", "s", before.Delta(after, "loggrep_compress_"+st+"_ns.sum")/1e9)
	}
}

// corpusKeywords returns, per type, the words of its Table-1 query: the
// parts the strmatch probe scans capsules for.
func corpusKeywords(corpus []*TypeData) [][]string {
	out := make([][]string, len(corpus))
	for i, td := range corpus {
		out[i] = queryWords(td.Type.Query)
	}
	return out
}

// queryWords splits a query command into its search strings.
func queryWords(cmd string) []string {
	var out []string
	for _, w := range strings.Fields(cmd) {
		w = strings.Trim(w, "()")
		switch w {
		case "", "AND", "OR", "NOT":
			continue
		}
		out = append(out, strings.ReplaceAll(w, "*", ""))
	}
	return out
}
