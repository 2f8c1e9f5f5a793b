package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"inceptionn/internal/obs"
)

// writeTrace writes what write emits to a file under t's temp dir.
func writeTrace(t *testing.T, name string, write func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGatherFilesShareTimeline: two per-node files whose timebases start
// 777µs apart land on one timeline, placed by their meta epochs to the
// nanosecond.
func TestGatherFilesShareTimeline(t *testing.T) {
	tr := obs.NewTracer(16)
	instant := time.Now().UnixNano()
	tr.RecordRaw(0, 0, obs.PhaseCompute, instant-tr.EpochUnixNs(), 1000)
	path0 := writeTrace(t, "trace_node0.jsonl", func(w io.Writer) error { return tr.WriteNodeJSONL(w, 0) })
	meta1 := obs.TraceMeta{Version: 1, Node: 1, EpochUnixNs: tr.EpochUnixNs() + 777_000, Source: "run"}
	spans1 := []obs.Span{{Node: 1, Iter: 0, Phase: obs.PhaseCompute, Start: instant + 5000 - meta1.EpochUnixNs, Dur: 1000}}
	path1 := writeTrace(t, "trace_node1.jsonl", func(w io.Writer) error { return obs.WriteSpansJSONL(w, meta1, spans1) })

	m, err := gather([]string{path0, path1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Sources {
		if !s.Aligned {
			t.Fatalf("source %s not aligned: %+v", s.Name, m.Sources)
		}
	}
	want := []obs.Span{
		{Node: 0, Iter: 0, Phase: obs.PhaseCompute, Start: 0, Dur: 1000},
		{Node: 1, Iter: 0, Phase: obs.PhaseCompute, Start: 5000, Dur: 1000},
	}
	if !reflect.DeepEqual(m.Spans, want) || m.BaseUnixNs != instant {
		t.Fatalf("merged %+v (base %d), want %+v (base %d)", m.Spans, m.BaseUnixNs, want, instant)
	}
}

// TestBlameReplaysOldBlackboxDump: a black-box dump written by the retired
// health engine (the obs package's golden document, from a run whose node
// 1 was slowed by 25ms per iteration) still replays through the file path
// `inctrace blame` takes, and the post-mortem verdict names the straggler
// the dump's own incident line named online.
func TestBlameReplaysOldBlackboxDump(t *testing.T) {
	m, err := gather([]string{filepath.Join("..", "..", "internal", "obs", "testdata", "blackbox.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	r := obs.AttributeCriticalPath(m.Spans, 2*time.Millisecond)
	if node, share := r.Gating(); node != 1 || share < 0.9 {
		t.Fatalf("blame on the old dump gates node %d share %.2f, want node 1 ≥ 0.90", node, share)
	}
	if p := r.DominantPhase(1); p != obs.PhaseCompute {
		t.Fatalf("dominant phase %s, want compute (the dump's incident named compute)", p)
	}
}
