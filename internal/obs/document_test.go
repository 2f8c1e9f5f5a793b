package obs

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The trace document's contract. testdata/ holds two documents written by
// the binaries of the commit before ReadTrace became the format's only
// reader — blackbox.jsonl, the black-box dump of `make obssmoke`'s
// 3-worker `-straggle 1:25ms` run with the since-retired health engine's
// -blackbox-dir added, and tuned.jsonl, the same run's -trace-out with
// the since-retired live auto-tuner choosing its plan (so its tune_meta
// line also carries that run's chosen plan and fitted parameters, keys
// tune.Meta no longer has and ignores) — each beside what that commit's three readers
// (obs.ReadTrace, health.ReadDump, tune.ParseTrace) returned for it
// (*.parsed.json), and golden_spans.jsonl, that commit's WriteSpansJSONL
// output for goldenSpans. None of them may be regenerated from the current
// code: they are the other side of the comparison. internal/tune checks
// its own reader and writer against the same files; an old black-box dump
// stays readable by every span report, its incident and metric lines kept
// verbatim under their first key.

// goldenSpans is the fixed writer input: every phase, an iteration-less
// span, zero and large offsets.
func goldenSpans() (TraceMeta, []Span) {
	meta := TraceMeta{Version: 1, Node: 2, EpochUnixNs: 1700000000123456789, Source: "run"}
	spans := []Span{{Node: 3, Iter: -1, Phase: PhaseDecompress, Start: 0, Dur: 0}}
	for p := Phase(0); p < NumPhases; p++ {
		spans = append(spans, Span{Node: int(p) % 3, Iter: int(p), Phase: p, Start: int64(p) * 1_000_000_007, Dur: 12345 + int64(p)})
	}
	return meta, spans
}

func readTestdata(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestWriteSpansJSONLGolden(t *testing.T) {
	meta, spans := goldenSpans()
	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, meta, spans); err != nil {
		t.Fatal(err)
	}
	if want := readTestdata(t, "golden_spans.jsonl"); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteSpansJSONL bytes changed:\n got %s\nwant %s", buf.Bytes(), want)
	}
	doc, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Spans, spans) || !reflect.DeepEqual(doc.Metas, []TraceMeta{meta}) || len(doc.Other) != 0 {
		t.Fatalf("golden spans do not read back: %+v", doc)
	}
}

// TestReadTraceGoldenDocuments: the one reader returns, for documents the
// previous readers' commit wrote, the spans and headers those readers
// returned, and sets every other line aside under its first key.
func TestReadTraceGoldenDocuments(t *testing.T) {
	for _, tc := range []struct {
		doc   string
		other map[string]int // first key → lines
	}{
		{"blackbox", map[string]int{"blackbox": 2}}, // the incident and one metric snapshot
		{"tuned", map[string]int{"tune_meta": 1}},
	} {
		var want struct {
			Spans   []Span
			Metas   []TraceMeta // health.Dump's name for the headers
			Headers []TraceMeta // tune.ParseTrace's
		}
		if err := json.Unmarshal(readTestdata(t, tc.doc+".parsed.json"), &want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTrace(bytes.NewReader(readTestdata(t, tc.doc+".jsonl")))
		if err != nil {
			t.Fatalf("%s: %v", tc.doc, err)
		}
		if len(got.Spans) == 0 || !reflect.DeepEqual(got.Spans, want.Spans) {
			t.Errorf("%s: %d spans differ from the previous reader's %d", tc.doc, len(got.Spans), len(want.Spans))
		}
		if headers := append(want.Metas, want.Headers...); !reflect.DeepEqual(got.Metas, headers) {
			t.Errorf("%s: headers %+v, previous reader's %+v", tc.doc, got.Metas, headers)
		}
		other := make(map[string]int)
		for i, l := range got.Other {
			other[l.Key]++
			if !json.Valid(l.JSON) || (i > 0 && l.Num <= got.Other[i-1].Num) {
				t.Errorf("%s: other line %d (%s) is not verbatim JSON in file order", tc.doc, l.Num, l.Key)
			}
		}
		if !reflect.DeepEqual(other, tc.other) {
			t.Errorf("%s: other lines by key = %v, want %v", tc.doc, other, tc.other)
		}
	}
}

// TestEverySpanKeyClassifiesAsSpan ties ReadTrace's first-key switch to
// Span's JSON tags: whichever key a writer puts first, the line is a span.
func TestEverySpanKeyClassifiesAsSpan(t *testing.T) {
	want := Span{Node: 1, Iter: 2, Phase: PhaseSend, Start: 3, Dur: 4}
	fields := map[string]string{"node": "1", "iter": "2", "phase": `"send"`, "start_ns": "3", "dur_ns": "4"}
	typ := reflect.TypeOf(Span{})
	if typ.NumField() != len(fields) {
		t.Fatalf("Span has %d fields, this test knows %d", typ.NumField(), len(fields))
	}
	for i := 0; i < typ.NumField(); i++ {
		first := typ.Field(i).Tag.Get("json")
		line := `{"` + first + `":` + fields[first]
		for k, v := range fields {
			if k != first {
				line += `,"` + k + `":` + v
			}
		}
		doc, err := ReadTrace(strings.NewReader(line + "}\n"))
		if err != nil || len(doc.Spans) != 1 || doc.Spans[0] != want {
			t.Errorf("line opening with %q: %+v, %v", first, doc, err)
		}
	}
}

// traceSeeds are the edge documents of the reader's contract (SNIPPETS.md
// 1's shape: empty, one byte, degenerate, one of each line kind, hostile).
var traceSeeds = []string{
	"",
	"{",
	"\n\n  \n\t\n",
	`{"trace_meta":1,"node":-1,"epoch_unix_ns":5,"source":"run"}` + "\n",
	`{"node":0,"iter":0,"phase":"compute","start_ns":0,"dur_ns":10}` + "\n",
	`{"dur_ns":10,"phase":"recv","iter":7,"start_ns":3,"node":2}` + "\n",
	`{"blackbox":1,"kind":"incident","unix_ns":9,"incident":{"id":1,"detector":"straggler","severity":"warn","node":1,"phase":"compute","iter_lo":5,"iter_hi":7,"opened_unix_ns":9,"cause":"x"}}` + "\n",
	`{"tune_meta":1,"workload":{"workers":4,"model_bytes":1024,"strategy":"ring"}}` + "\n",
	`{"node":0,"iter":0,"phase":"comp`,
	"[]\n",
	`{"trace_meta":1,"node":0,"epoch_unix_ns":1}` + "\n\n" + `{"node":0,"iter":1,"phase":"send","start_ns":1,"dur_ns":2}` + "\r\n" + `{"future_kind":{"node":3}}`,
}

// checkTraceContract is the invariant every successful read satisfies:
// each non-blank line lands in exactly one of spans, headers or other, and
// the spans survive a write and a second read unchanged.
func checkTraceContract(t *testing.T, in []byte) {
	t.Helper()
	doc, err := ReadTrace(bytes.NewReader(in))
	if err != nil {
		return
	}
	nonBlank := 0
	for _, line := range bytes.Split(in, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			nonBlank++
		}
	}
	if got := len(doc.Spans) + len(doc.Metas) + len(doc.Other); got != nonBlank {
		t.Fatalf("%d spans + %d headers + %d other = %d, but %d non-blank lines in %q",
			len(doc.Spans), len(doc.Metas), len(doc.Other), got, nonBlank, in)
	}
	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, TraceMeta{}, doc.Spans); err != nil {
		t.Fatal(err)
	}
	again, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("re-encoded spans do not read: %v", err)
	}
	if len(again.Spans) != len(doc.Spans) || len(again.Metas)+len(again.Other) != 0 {
		t.Fatalf("round trip: %d spans became %+v", len(doc.Spans), again)
	}
	for i := range doc.Spans {
		if again.Spans[i] != doc.Spans[i] {
			t.Fatalf("round trip: span %d %+v became %+v", i, doc.Spans[i], again.Spans[i])
		}
	}
}

// TestReadTraceEdges pins what each seed reads as, plus the one input too
// large to be a corpus entry: a line over the scanner's 1 MiB limit.
func TestReadTraceEdges(t *testing.T) {
	huge := `{"node":0,"iter":0,"phase":"send","start_ns":0,"dur_ns":1,"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	for i, tc := range []struct {
		in                  string
		spans, metas, other int
		errHas              string // non-empty: the read must fail mentioning this
	}{
		{traceSeeds[0], 0, 0, 0, ""},
		{traceSeeds[1], 0, 0, 0, "line 1"},
		{traceSeeds[2], 0, 0, 0, ""},
		{traceSeeds[3], 0, 1, 0, ""},
		{traceSeeds[4], 1, 0, 0, ""},
		{traceSeeds[5], 1, 0, 0, ""},
		{traceSeeds[6], 0, 0, 1, ""}, // the nested "phase" and "node" do not make it a span
		{traceSeeds[7], 0, 0, 1, ""},
		{traceSeeds[8], 0, 0, 0, "line 1"},
		{traceSeeds[9], 0, 0, 0, "line 1"},
		{traceSeeds[10], 1, 1, 1, ""}, // an unknown producer's line is kept, not mis-read as a span
		{`{"node":0,"iter":0,"phase":"warp","start_ns":0,"dur_ns":1}`, 0, 0, 0, "unknown phase"},
		{`{"future_kind":1,"x":}`, 0, 0, 0, "line 1"},
		{"\n" + huge, 0, 0, 0, "token too long"},
	} {
		doc, err := ReadTrace(strings.NewReader(tc.in))
		if tc.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("case %d: err = %v, want one mentioning %q", i, err, tc.errHas)
			}
			continue
		}
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if len(doc.Spans) != tc.spans || len(doc.Metas) != tc.metas || len(doc.Other) != tc.other {
			t.Errorf("case %d: %d spans %d headers %d other, want %d/%d/%d",
				i, len(doc.Spans), len(doc.Metas), len(doc.Other), tc.spans, tc.metas, tc.other)
		}
		checkTraceContract(t, []byte(tc.in))
	}
}

func FuzzReadTrace(f *testing.F) {
	for _, s := range traceSeeds {
		f.Add([]byte(s))
	}
	f.Add(readTestdata(f, "tuned.jsonl")[:2048])
	f.Fuzz(func(t *testing.T, in []byte) { checkTraceContract(t, in) })
}

// TestObsIsALeaf holds the package doc's promise — obs imports nothing
// else from this repository — which is also what keeps every trace line
// kind's owner above obs calling down into it, never the reverse.
func TestObsIsALeaf(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if path == "inceptionn" || strings.HasPrefix(path, "inceptionn/") {
				t.Errorf("%s imports %s: obs must stay a leaf of this module", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test source files found")
	}
}
