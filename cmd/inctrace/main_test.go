package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"inceptionn/internal/obs"
)

// TestMain lets the test binary double as the command: run with "inctrace"
// as its first argument, it is inctrace on the arguments after that.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "inctrace" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
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

// TestTuneRejectsOutOfRangeScale: `inctrace tune`'s -workers, -model-bytes
// and -what-if re-plan a fitted trace at another scale, so they take the
// bounds a trace's own workload gets (2..2^20 workers, 1..2^40 model
// bytes). Outside them the planner overflowed into a panic, ran for
// minutes, or planned a one-worker "ring"; now each is a usage error.
func TestTuneRejectsOutOfRangeScale(t *testing.T) {
	trace := filepath.Join("..", "..", "internal", "tune", "testdata", "probe_ring.jsonl")
	run := func(args ...string) (string, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, os.Args[0], append(append([]string{"inctrace", "tune"}, args...), trace)...).CombinedOutput()
		return string(out), err
	}
	for _, args := range [][]string{
		{"-workers", "1"},
		{"-workers", "-4"},
		{"-workers", "3000000000"},
		{"-model-bytes", "9223372036854775807"},
		{"-model-bytes", "2000000000000"},
		{"-model-bytes", "-1"},
		{"-what-if", "64,5000000000"},
		{"-what-if", "1"},
	} {
		out, err := run(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("tune %v: err = %v, want exit status 2\n%s", args, err, out)
		}
	}
	if out, err := run("-workers", "8", "-model-bytes", "4000000", "-what-if", "16,1024"); err != nil {
		t.Fatalf("in-range overrides: %v\n%s", err, out)
	}
}
