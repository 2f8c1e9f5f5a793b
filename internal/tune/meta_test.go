package tune

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"inceptionn/internal/obs"
)

func TestMetaRoundTrip(t *testing.T) {
	m := Meta{Workload: Workload{Workers: 4, ModelBytes: 4 << 20, Strategy: "ring", Iters: 8}}

	var buf bytes.Buffer
	if err := obs.WriteSpansJSONL(&buf, obs.TraceMeta{Version: 1, Node: -1, Source: "run"}, []obs.Span{
		{Node: 0, Iter: 0, Phase: obs.PhaseSend, Start: 0, Dur: 1000},
		{Node: 0, Iter: 0, Phase: obs.PhaseReduce, Start: 1000, Dur: 500},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(&buf); err != nil {
		t.Fatal(err)
	}

	spans, headers, got, err := ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2 (tune_meta line must not parse as a span)", len(spans))
	}
	if len(headers) != 1 {
		t.Fatalf("headers = %d, want 1", len(headers))
	}
	if got == nil {
		t.Fatal("tune meta line not found")
	}
	if got.Version != 1 {
		t.Fatalf("Version = %d, want 1 (defaulted by Append)", got.Version)
	}
	if got.Workload != m.Workload {
		t.Fatalf("workload = %+v, want %+v", got.Workload, m.Workload)
	}

	// The same bytes must replay through plain obs readers unchanged.
	doc, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("obs.ReadTrace on a tuned trace: %v", err)
	}
	if oSpans := doc.Spans; len(oSpans) != 2 {
		t.Fatalf("obs spans = %d, want 2", len(oSpans))
	}
}

func TestParseTraceWithoutMeta(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WriteSpansJSONL(&buf, obs.TraceMeta{}, []obs.Span{{Node: 0, Iter: 0, Phase: obs.PhaseSend, Dur: 1}}); err != nil {
		t.Fatal(err)
	}
	spans, _, meta, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta != nil {
		t.Fatal("meta invented on a plain trace")
	}
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
}

func TestReadTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	var buf bytes.Buffer
	if err := obs.WriteSpansJSONL(&buf, obs.TraceMeta{Version: 1, Node: -1}, []obs.Span{{Node: 0, Iter: 0, Phase: obs.PhaseSend, Dur: 1}}); err != nil {
		t.Fatal(err)
	}
	m := Meta{Workload: Workload{Workers: 8, ModelBytes: 1 << 20, Strategy: "ring"}}
	if err := m.Append(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	fallback := Workload{Workers: 2, ModelBytes: 1, Strategy: "ring"}
	s, meta, err := ReadTraceFile(path, fallback)
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil || s.Workload.Workers != 8 {
		t.Fatalf("meta workload not used: %+v", s.Workload)
	}

	// Without a meta line the fallback applies.
	plainPath := filepath.Join(dir, "plain.jsonl")
	var buf2 bytes.Buffer
	_ = obs.WriteSpansJSONL(&buf2, obs.TraceMeta{Version: 1, Node: -1}, []obs.Span{{Node: 0, Iter: 0, Phase: obs.PhaseSend, Dur: 1}})
	if err := os.WriteFile(plainPath, buf2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, meta2, err := ReadTraceFile(plainPath, fallback)
	if err != nil {
		t.Fatal(err)
	}
	if meta2 != nil || s2.Workload != fallback {
		t.Fatalf("fallback workload not applied: %+v", s2.Workload)
	}
}

// This package's half of the trace document's contract (see
// internal/obs/document_test.go for where the files come from).

// goldenMetas is the fixed writer input: a compressed run's line, and a
// plain run's, whose zero Version Append fills in.
func goldenMetas() []Meta {
	return []Meta{
		{
			Version:  1,
			Workload: Workload{Workers: 4, ModelBytes: 605224, Strategy: "worker-aggregator", Compress: true, Ratio: 4.758729565123167, Iters: 20},
		},
		{Workload: Workload{Workers: 3, ModelBytes: 605224, Strategy: "ring", ChunkFloats: 4096, Iters: 20}},
	}
}

func TestMetaAppendGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, m := range goldenMetas() {
		if err := m.Append(&buf); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_meta.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Meta.Append bytes changed:\n got %s\nwant %s", buf.Bytes(), want)
	}
}

// TestParseTraceGolden: ParseTrace returns, for a tuned trace the commit
// before the one-reader change wrote, what that commit's ParseTrace did.
func TestParseTraceGolden(t *testing.T) {
	dir := filepath.Join("..", "obs", "testdata")
	parsed, err := os.ReadFile(filepath.Join(dir, "tuned.parsed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Spans   []obs.Span
		Headers []obs.TraceMeta
		Meta    *Meta
	}
	if err := json.Unmarshal(parsed, &want); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "tuned.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, headers, meta, err := ParseTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil || len(spans) == 0 {
		t.Fatalf("tuned trace read as %d spans, meta %+v", len(spans), meta)
	}
	if !reflect.DeepEqual(spans, want.Spans) || !reflect.DeepEqual(headers, want.Headers) || !reflect.DeepEqual(meta, want.Meta) {
		t.Fatalf("ParseTrace differs from what the trace's own commit read:\n got %+v %+v\nwant %+v %+v", headers, meta, want.Headers, want.Meta)
	}
}
