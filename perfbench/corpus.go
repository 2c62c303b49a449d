package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"loggrep"
	"loggrep/internal/archive"
	"loggrep/internal/blockindex"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// Size fixes how much data a workload generates. PaperSize is what the
// benchmark command runs; the self-tests run a small one.
type Size struct {
	Name string
	// Types are the production log types (A–U) in the corpus.
	Types []loggen.LogType
	// LinesPerType is generated per type. Each type is cut into exactly
	// two archive blocks of at least MinBlockLines lines each.
	LinesPerType  int
	MinBlockLines int
	// SetupReps repeats the compress workload's set-up (input
	// generation); setup_s is their median.
	SetupReps int
	// MinQueries is the fewest queries the query workload sends, however
	// short the measured phase; counts over this prefix repeat exactly.
	MinQueries int
	// PoolPerType is the number of distinct wildcard and absent-keyword
	// commands generated per log type.
	PoolPerType int
	Serve       ServeSize
}

// ServeSize sizes the serve workload.
type ServeSize struct {
	Streams          int     // ingest streams, one log type each
	LinesPerBatch    int     // lines in each POSTed batch
	BatchesPerSecond float64 // open-loop ingest rate
	// ThinkTime is the query client's pause between an answer and its
	// next query.
	ThinkTime time.Duration
	SealBytes int64 // raw segment size that triggers a seal (loggrepd default 4 MB)
	// MaxSealedBytes is the sealed-archive cache (loggrepd default
	// 256 MB); every sealed segment of the run fits in it.
	MaxSealedBytes int64
	// AllocQueries is the number of quiescent sequential needle-miss
	// queries over which server allocations per query are averaged.
	AllocQueries int
}

// PaperSize is the benchmark's size: every production log type at
// paper-sized blocks (2 blocks of >= 20k lines per type, ~65 MB raw).
func PaperSize() Size {
	return Size{
		Name:          "paper",
		Types:         loggen.Production(),
		LinesPerType:  40800,
		MinBlockLines: 20000,
		SetupReps:     3,
		MinQueries:    1000,
		PoolPerType:   8,
		Serve: ServeSize{
			Streams:          3,
			LinesPerBatch:    60,
			BatchesPerSecond: 100,
			ThinkTime:        40 * time.Millisecond,
			SealBytes:        4 << 20,
			MaxSealedBytes:   256 << 20,
			AllocQueries:     200,
		},
	}
}

// TypeData is one log type's generated input. Only the raw text and its
// line offsets stay resident, so the benchmark's own inputs weigh little
// beside the program's memory.
type TypeData struct {
	Type  loggen.LogType
	Index int
	Raw   []byte
	// BlockBytes makes the archive writer cut Raw into exactly two
	// blocks (see blockBytesForTwo).
	BlockBytes int
	lineStart  []int // byte offset of each line in Raw
}

// NumLines is the number of lines in Raw.
func (td *TypeData) NumLines() int { return len(td.lineStart) }

// Line returns line i of Raw, without its newline.
func (td *TypeData) Line(i int) string {
	return string(td.Raw[td.lineStart[i] : td.lineEnd(i)-1])
}

// LinesRange returns lines [from, to).
func (td *TypeData) LinesRange(from, to int) []string {
	out := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, td.Line(i))
	}
	return out
}

// lineEnd is the byte offset just past line i's newline.
func (td *TypeData) lineEnd(i int) int {
	if i+1 < len(td.lineStart) {
		return td.lineStart[i+1]
	}
	return len(td.Raw)
}

// typeSeed derives a per-type generator seed from the workload seed.
func typeSeed(seed int64, index int) int64 { return seed*1000 + int64(index) + 1 }

// GenCorpus generates every type's input from the seed.
func GenCorpus(sz Size, seed int64) []*TypeData {
	out := make([]*TypeData, len(sz.Types))
	for i, lt := range sz.Types {
		lines := lt.Lines(typeSeed(seed, i), sz.LinesPerType)
		out[i] = newTypeData(lt, i, lines)
	}
	return out
}

func newTypeData(lt loggen.LogType, index int, lines []string) *TypeData {
	td := &TypeData{Type: lt, Index: index}
	var b bytes.Buffer
	td.lineStart = make([]int, len(lines))
	longest := 0
	for i, l := range lines {
		td.lineStart[i] = b.Len()
		b.WriteString(l)
		b.WriteByte('\n')
		longest = max(longest, len(l)+1)
	}
	td.Raw = b.Bytes()
	td.BlockBytes = blockBytesForTwo(len(td.Raw), longest)
	return td
}

// blockBytesForTwo returns the archive block threshold that cuts a stream
// of n bytes, whose lines are at most longest bytes, into exactly two
// blocks. The writer cuts at the last newline within the threshold B, so
// the first block holds more than B-longest bytes; the remainder is
// below B, and so is never cut again, when B > (n+longest)/2.
func blockBytesForTwo(n, longest int) int { return (n+longest)/2 + 1 }

// CompressType streams one type through an ArchiveWriter with the
// benchmark's worker count, the way a log shipper would, in 1 MiB writes.
func CompressType(td *TypeData) ([]byte, error) {
	opts := archive.DefaultOptions()
	opts.Workers = Workers
	opts.BlockBytes = td.BlockBytes
	var out bytes.Buffer
	w, err := archive.NewWriter(&out, opts)
	if err != nil {
		return nil, err
	}
	for off := 0; off < len(td.Raw); off += 1 << 20 {
		if _, err := w.Write(td.Raw[off:min(off+1<<20, len(td.Raw))]); err != nil {
			w.Close()
			return nil, fmt.Errorf("archive write %s: %w", td.Type.Name, err)
		}
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("archive close %s: %w", td.Type.Name, err)
	}
	return out.Bytes(), nil
}

// CompressPass compresses every type in order, returning the archives and
// each type's write latency.
func CompressPass(corpus []*TypeData, tr *Tracer) ([][]byte, []time.Duration, error) {
	arcs := make([][]byte, len(corpus))
	lat := make([]time.Duration, len(corpus))
	for i, td := range corpus {
		var err error
		lat[i] = tr.Do("archive.write", 0, tr.NewReq(), func() { arcs[i], err = CompressType(td) })
		if err != nil {
			return nil, nil, err
		}
	}
	return arcs, lat, nil
}

// checkBlocks verifies an archive holds exactly two blocks of at least
// minLines lines: the paper-sized block regime the workload promises.
func checkBlocks(r *Report, td *TypeData, arc []byte, minLines int) {
	a, err := archive.Open(arc)
	if err != nil {
		r.Check(false, "open %s archive: %v", td.Type.Name, err)
		return
	}
	infos := a.BlockInfos()
	ok := len(infos) == 2
	for _, bi := range infos {
		ok = ok && bi.NumLines >= minLines
	}
	r.Check(ok, "%s archive has blocks %+v, want 2 blocks of >= %d lines", td.Type.Name, infos, minLines)
}

// Oracle returns the line numbers loggrep.RawQuery reports for cmd on the
// type's raw input. A single plain keyword can only match lines that
// contain it verbatim, so for those RawQuery runs on just the lines that
// contain the keyword (the same answer, without scanning every line).
func (td *TypeData) Oracle(cmd string) ([]int, error) {
	if !plainKeyword(cmd) {
		lines, _, err := loggrep.RawQuery(td.Raw, cmd)
		return lines, err
	}
	var cand []int
	needle := []byte(cmd)
	for off := 0; off < len(td.Raw); {
		i := bytes.Index(td.Raw[off:], needle)
		if i < 0 {
			break
		}
		line := sort.SearchInts(td.lineStart, off+i+1) - 1
		cand = append(cand, line)
		off = td.lineEnd(line)
	}
	if len(cand) == 0 {
		return nil, nil
	}
	var sub bytes.Buffer
	for _, l := range cand {
		sub.Write(td.Raw[td.lineStart[l]:td.lineEnd(l)])
	}
	hits, _, err := loggrep.RawQuery(sub.Bytes(), cmd)
	if err != nil {
		return nil, err
	}
	for i, h := range hits {
		hits[i] = cand[h]
	}
	return hits, nil
}

// plainKeyword reports whether cmd is one search string with no
// wildcard, operator, quoting or grouping.
func plainKeyword(cmd string) bool {
	return cmd != "" && !strings.ContainsAny(cmd, " \t*()\"'\\")
}

// absentLetters spell needles after needlePrefix: no hex digits, so the
// block index's normalisation keeps them whole and can rule them out.
const (
	needlePrefix  = "zq"
	absentLetters = "ghijklmnopqrstuvwxyz"
)

// needleInputs returns the inputs a needle must be checked against: none
// when the input does not even contain the needle prefix.
func needleInputs(raw []byte) [][]byte {
	if bytes.Contains(raw, []byte(needlePrefix)) {
		return [][]byte{raw}
	}
	return nil
}

// AbsentNeedle returns a keyword that occurs in none of the given inputs.
func AbsentNeedle(rng *rand.Rand, inputs ...[]byte) string {
	for {
		b := []byte(needlePrefix)
		for i := 0; i < 10; i++ {
			b = append(b, absentLetters[rng.Intn(len(absentLetters))])
		}
		present := false
		for _, in := range inputs {
			present = present || bytes.Contains(in, b)
		}
		if !present {
			return string(b)
		}
	}
}

// WildcardCommand picks a hex/numeric token from a random line and
// returns its prefix followed by '*'. Such a fragment normalises to pure
// marker bytes, which the block index cannot filter, so every block is
// searched; it matches at least the line it came from.
func WildcardCommand(rng *rand.Rand, td *TypeData) string {
	for {
		line := td.Line(rng.Intn(td.NumLines()))
		var toks []string
		start := -1
		for i := 0; i <= len(line); i++ {
			if i == len(line) || logparse.IsDelim(line[i]) {
				if start >= 0 && i-start >= 8 && allHex(line[start:i]) {
					toks = append(toks, line[start:i])
				}
				start = -1
			} else if start < 0 {
				start = i
			}
		}
		if len(toks) == 0 {
			continue
		}
		tok := toks[rng.Intn(len(toks))]
		frag := tok[:len(tok)-3]
		if blockindex.Filterable(blockindex.Normalize(frag)) {
			continue
		}
		return frag + "*"
	}
}

func allHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}

// equalInts reports whether two line lists are identical.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
