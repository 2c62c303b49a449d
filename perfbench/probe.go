package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/blockindex"
	"loggrep/internal/capsule"
	"loggrep/internal/core"
	"loggrep/internal/logparse"
	"loggrep/internal/lzma"
	"loggrep/internal/rtpattern"
	"loggrep/internal/server"
	"loggrep/internal/strmatch"
)

// probeLayers runs, inside spans, the public entry point of each layer
// that only runs inside another call, on the blocks of the workload's own
// archives: logparse.Parse, rtpattern Categorize/ExtractReal/
// ExtractNominal on the parsed variable vectors, core.Compress,
// blockindex.ScanBlock, capsule.ReadBox + Box.Payload, lzma.Compress and
// Decompress on those payloads, and strmatch FixedWidth.ScanRows over the
// fixed-width capsules for each archive's keywords. keywords[i] belongs
// to archives[i]. The archive writer's parallel efficiency compares the
// serial core.Compress time with the run's archive.write spans.
func probeLayers(r *Report, tr *Tracer, archives [][]byte, keywords [][]string) {
	opts := core.DefaultOptions()
	var groups, outliers, realV, nominalV, capsules, payloadBytes, metaBytes, scanBytes int64
	var encBytes, indexBytes, arcBytes int64
	var compressS float64
	for ai, data := range archives {
		arcBytes += int64(len(data))
		a, err := archive.Open(data)
		if err != nil {
			r.Check(false, "probe: open archive %d: %v", ai, err)
			continue
		}
		indexBytes += int64(a.IndexStats().TotalBytes())
		lines, err := a.ReconstructAll()
		if err != nil {
			r.Check(false, "probe: reconstruct archive %d: %v", ai, err)
			continue
		}
		for _, bi := range a.BlockInfos() {
			req := tr.NewReq()
			block := []byte(strings.Join(lines[bi.FirstLine:bi.FirstLine+bi.NumLines], "\n") + "\n")

			var parsed *logparse.Parsed
			tr.Do("logparse.parse", 0, req, func() { parsed = logparse.Parse(block, opts.Parse) })
			groups += int64(len(parsed.Groups))
			outliers += int64(len(parsed.OutlierLines))
			for _, g := range parsed.Groups {
				for _, values := range g.Vars {
					var cat rtpattern.Category
					tr.Do("rtpattern.categorize", 0, req, func() { cat = rtpattern.Categorize(values, opts.Extract) })
					if cat == rtpattern.Real {
						realV++
						tr.Do("rtpattern.extract_real", 0, req, func() { rtpattern.ExtractReal(values, opts.Extract) })
					} else {
						nominalV++
						tr.Do("rtpattern.extract_nominal", 0, req, func() { rtpattern.ExtractNominal(values) })
					}
				}
			}
			var box []byte
			compressS += tr.Do("core.compress", 0, req, func() { box = core.Compress(block, opts) }).Seconds()
			r.Check(bytes.Equal(box, bi.Box), "probe: core.Compress of block %d of archive %d differs from the archive's box", bi.Index, ai)
			tr.Do("blockindex.scan", 0, req, func() { blockindex.ScanBlock(block) })

			var b *capsule.Box
			tr.Do("capsule.read_box", 0, req, func() { b, err = capsule.ReadBox(bi.Box) })
			if err != nil {
				r.Check(false, "probe: read box: %v", err)
				continue
			}
			comp, _ := b.MetaSizes()
			metaBytes += int64(comp)
			capsules += int64(len(b.Meta.Capsules))
			for id, info := range b.Meta.Capsules {
				var payload []byte
				tr.Do("capsule.payload", 0, req, func() { payload, err = b.Payload(id) })
				if err != nil {
					r.Check(false, "probe: capsule payload: %v", err)
					continue
				}
				payloadBytes += int64(len(payload))
				var enc, dec []byte
				tr.Do("lzma.compress", 0, req, func() { enc = lzma.Compress(payload) })
				tr.Do("lzma.decompress", 0, req, func() { dec, err = lzma.Decompress(enc) })
				encBytes += int64(len(payload))
				r.Check(err == nil && bytes.Equal(dec, payload), "probe: lzma round trip of a capsule payload failed (%v)", err)
				if info.Width > 0 && info.ChunkRows == 0 {
					fw := strmatch.NewFixedWidth(payload, info.Width)
					for _, kw := range keywords[ai] {
						tr.Do("strmatch.scan", 0, req, func() { fw.ScanRows(kw, strmatch.Substr, func(int) bool { return true }) })
						scanBytes += int64(fw.Bytes())
					}
				}
			}
		}
	}
	spans := tr.Spans()
	sum := func(names ...string) float64 {
		var t time.Duration
		for _, n := range names {
			d, _ := SpanStats(spans, n)
			t += d
		}
		return t.Seconds()
	}
	r.Layer.Set("logparse.parse_s", "s", sum("logparse.parse"))
	r.Layer.Set("logparse.groups", "count", float64(groups))
	r.Layer.Set("logparse.outlier_lines", "count", float64(outliers))
	r.Layer.Set("rtpattern.extract_s", "s", sum("rtpattern.categorize", "rtpattern.extract_real", "rtpattern.extract_nominal"))
	r.Layer.Set("rtpattern.real_vectors", "count", float64(realV))
	r.Layer.Set("rtpattern.nominal_vectors", "count", float64(nominalV))
	r.Layer.Set("core.compress_s", "s", compressS)
	writeS, _ := SpanStats(spans, "archive.write")
	r.Layer.Set("archive.write_s", "s", writeS.Seconds())
	r.Layer.Set("archive.parallel_efficiency", "ratio", ratio(compressS, float64(Workers)*writeS.Seconds()))
	r.Layer.Set("capsule.count", "count", float64(capsules))
	r.Layer.Set("capsule.payload_bytes", "bytes", float64(payloadBytes))
	r.Layer.Set("capsule.meta_bytes", "bytes", float64(metaBytes))
	r.Layer.Set("lzma.encode_mb_per_s", "MB/s", ratio(mb(encBytes), sum("lzma.compress")))
	r.Layer.Set("lzma.decode_mb_per_s", "MB/s", ratio(mb(encBytes), sum("lzma.decompress")))
	r.Layer.Set("strmatch.scan_mb_per_s", "MB/s", ratio(mb(scanBytes), sum("strmatch.scan")))
	r.Layer.Set("blockindex.scan_s", "s", sum("blockindex.scan"))
	r.Layer.Set("blockindex.overhead_ratio", "ratio", ratio(float64(indexBytes), float64(arcBytes)))
	for k, v := range map[string]int64{
		"capsule.count": capsules, "capsule.payload_bytes": payloadBytes, "capsule.meta_bytes": metaBytes,
		"logparse.groups": groups, "logparse.outlier_lines": outliers,
		"rtpattern.real_vectors": realV, "rtpattern.nominal_vectors": nominalV,
		"blockindex.index_bytes": indexBytes,
	} {
		r.Counts[k] = v
	}
}

// probeArchiveQueries opens each archive and runs its type's Table-1
// query once through QueryTraced, recording archive.open / archive.query
// spans with the engine's own parse / filter / verify stage spans as
// children, and returns the queries' work counts. The query workload gets
// these from its measured loop instead.
func probeArchiveQueries(r *Report, tr *Tracer, corpus []*TypeData, archives [][]byte) *queryTally {
	var tally queryTally
	for i, data := range archives {
		req := tr.NewReq()
		var a *archive.Archive
		var err error
		c0 := tally.start()
		tr.Do("archive.open", 0, req, func() { a, err = archive.Open(data) })
		if err != nil {
			r.Check(false, "probe: open archive %d: %v", i, err)
			continue
		}
		cmd := corpus[i].Type.Query
		res, err := tracedQuery(tr, req, a, cmd)
		if err != nil {
			r.Check(false, "probe: query %q: %v", cmd, err)
			continue
		}
		tally.add(c0, a, res)
		want, err := corpus[i].Oracle(cmd)
		r.Check(err == nil && equalInts(res.Lines, want), "probe: %s query %q: %d matches, oracle %d", corpus[i].Type.Name, cmd, len(res.Lines), len(want))
		coreStages(r, tr, req, a, cmd, want)
	}
	queryStageMetrics(r, tr.Spans())
	return &tally
}

// tracedQuery runs one archive query through QueryTraced inside an
// archive.query span, attaching the trace's per-block spans (each block's
// store open and engine query) as core.block children, so the archive's
// self time is its planning, dispatch and merging.
func tracedQuery(tr *Tracer, req int64, a *archive.Archive, cmd string) (*archive.Result, error) {
	id := tr.Begin("archive.query", 0, req)
	res, qt, err := a.QueryTraced(cmd, Workers)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	for _, sp := range qt.Data().Spans {
		if sp.Name == "block" {
			tr.Add("core.block", id, req, time.Duration(sp.StartNS), time.Duration(sp.DurNS))
		}
	}
	return res, nil
}

// coreStages reruns an archive query block by block through the engine's
// own entry point, core.Open + Store.QueryTraced, recording its parse /
// filter / verify stage spans (the archive-level trace keeps only block
// spans). The blocks' matches, shifted to archive line numbers, must be
// the archive's answer.
func coreStages(r *Report, tr *Tracer, req int64, a *archive.Archive, cmd string, want []int) {
	var got []int
	for _, bi := range a.BlockInfos() {
		var st *core.Store
		var err error
		tr.Do("core.open", 0, req, func() { st, err = core.Open(bi.Box, core.QueryOptions{}) })
		if err != nil {
			r.Check(false, "core.Open of block %d: %v", bi.Index, err)
			return
		}
		id := tr.Begin("core.query", 0, req)
		res, qt, err := st.QueryTraced(cmd)
		tr.End(id)
		if err != nil {
			r.Check(false, "core query %q on block %d: %v", cmd, bi.Index, err)
			return
		}
		for _, sp := range qt.Data().Spans {
			switch sp.Name {
			case "parse", "filter", "verify":
				tr.Add("core.query."+sp.Name, id, req, time.Duration(sp.StartNS), time.Duration(sp.DurNS))
			}
		}
		for _, l := range res.Lines {
			got = append(got, bi.FirstLine+l)
		}
	}
	r.Check(equalInts(got, want), "block-by-block engine query %q: %d matches, archive %d", cmd, len(got), len(want))
}

// queryStageMetrics reports mean per-query seconds of the archive query
// spans, and of the engine stages per query rerun by coreStages.
func queryStageMetrics(r *Report, spans []Span) {
	mean := func(name string) float64 {
		t, n := SpanStats(spans, name)
		return ratio(t.Seconds(), float64(n))
	}
	r.Layer.Set("archive.open_s", "s", mean("archive.open"))
	r.Layer.Set("archive.query_s", "s", mean("archive.query"))
	reruns := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "core.query" {
			reruns[s.Req] = true
		}
	}
	for _, st := range []string{"parse", "filter", "verify"} {
		t, _ := SpanStats(spans, "core.query."+st)
		r.Layer.Set("core.query."+st+"_s", "s", ratio(t.Seconds(), float64(len(reruns))))
	}
}

// serverAllocs measures the heap allocations of quiescent, sequential
// needle-miss queries through the HTTP handler (no network), averaged
// over n queries, each recorded in a server.query span.
func serverAllocs(r *Report, tr *Tracer, h http.Handler, source string, needles []string) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, nd := range needles {
		req := httptest.NewRequest(http.MethodGet, "/v1/query?source="+url.QueryEscape(source)+"&q="+url.QueryEscape(nd), nil)
		rec := httptest.NewRecorder()
		tr.Do("server.query_quiescent", 0, tr.NewReq(), func() { h.ServeHTTP(rec, req) })
		r.Check(rec.Code == http.StatusOK && strings.Contains(rec.Body.String(), `"matches":0`),
			"quiescent needle query %q: status %d", nd, rec.Code)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(needles))
	r.Layer.Set("server.allocs_per_query", "count", ratio(float64(after.Mallocs-before.Mallocs), n))
	r.Layer.Set("server.bytes_per_query", "bytes", ratio(float64(after.TotalAlloc-before.TotalAlloc), n))
}

// archiveServer loads archives into a server with loggrepd's query
// defaults, as sources "t<i>".
func archiveServer(archives [][]byte) (*server.Server, error) {
	sv := server.New()
	sv.QueryTimeout = 30 * time.Second
	sv.MaxTimeout = 5 * time.Minute
	for i, a := range archives {
		if err := sv.Load(sourceName(i), a); err != nil {
			return nil, err
		}
	}
	return sv, nil
}

func sourceName(i int) string { return fmt.Sprintf("t%d", i) }

// noIngestLayers records the ingest, server-load and open-loop metrics as
// zero on workloads that do not run the ingest path: nothing was fsynced,
// sealed or refused there.
func noIngestLayers(r *Report) {
	for _, n := range []string{"ingest.fsyncs", "ingest.seals", "server.rejected"} {
		r.Layer.Set(n, "count", 0)
	}
	for _, n := range []string{"ingest.fsync_ms_mean", "ingest.seal_ms_mean", "ingest.stream_query_ms", "server.query_overhead_ms", "loadgen.late_p99_ms"} {
		r.Layer.Set(n, "ms", 0)
	}
	r.Layer.Set("ingest.sealed_cache_hit_ratio", "ratio", 0)
}
