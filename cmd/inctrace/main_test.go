package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"inceptionn/internal/obs"
)

// serveTracer serves tr through the real obs handler and returns the
// endpoint address plus a log of the request paths it received.
func serveTracer(t *testing.T, tr *obs.Tracer) (string, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var paths []string
	h := obs.NewHTTPHandler(obs.NewRegistry(), tr)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.Method+" "+r.URL.Path)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://"), func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), paths...)
	}
}

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

// TestGatherLiveIsOneTraceGET: the -addr path reads a live run with one
// GET of /trace and merges exactly what the same tracer writes to a file.
func TestGatherLiveIsOneTraceGET(t *testing.T) {
	tr := obs.NewTracer(64)
	for i := 0; i < 6; i++ {
		tr.RecordRaw(i%3, i/3, obs.PhaseCompute, int64(1000-100*i), 50)
	}
	addr, requests := serveTracer(t, tr)

	live, err := gather(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := requests(), []string{"GET /trace"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("gather -addr requested %v, want %v", got, want)
	}

	path := writeTrace(t, "trace.jsonl", tr.WriteJSONL)
	file, err := gather("", []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Spans) != 6 || !reflect.DeepEqual(live.Spans, file.Spans) || live.BaseUnixNs != file.BaseUnixNs {
		t.Fatalf("live merge %+v (base %d)\nfile merge %+v (base %d)", live.Spans, live.BaseUnixNs, file.Spans, file.BaseUnixNs)
	}
	if !live.Sources[0].Aligned {
		t.Fatalf("live source not aligned on its meta epoch: %+v", live.Sources)
	}
}

// TestGatherFileAndLiveShareTimeline: a per-node file and a live endpoint
// whose timebases start 777µs apart land on one timeline, placed by their
// meta epochs to the nanosecond.
func TestGatherFileAndLiveShareTimeline(t *testing.T) {
	liveTr := obs.NewTracer(16)
	instant := time.Now().UnixNano()
	liveTr.RecordRaw(0, 0, obs.PhaseCompute, instant-liveTr.EpochUnixNs(), 1000)
	addr, _ := serveTracer(t, liveTr)
	fileMeta := obs.TraceMeta{Version: 1, Node: 1, EpochUnixNs: liveTr.EpochUnixNs() + 777_000, Source: "run"}
	fileSpans := []obs.Span{{Node: 1, Iter: 0, Phase: obs.PhaseCompute, Start: instant + 5000 - fileMeta.EpochUnixNs, Dur: 1000}}
	path := writeTrace(t, "trace_node1.jsonl", func(w io.Writer) error { return obs.WriteSpansJSONL(w, fileMeta, fileSpans) })

	m, err := gather(addr, []string{path})
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
	m, err := gather("", []string{filepath.Join("..", "..", "internal", "obs", "testdata", "blackbox.jsonl")})
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
