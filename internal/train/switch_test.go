package train

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/obs"
)

func TestSwitchTrainingConverges(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.Algo = SwitchReduce
	o.SwitchChunk = 4096
	res, err := Run(models.NewHDCSmall, trainDS, testDS, 150, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc < 0.9 {
		t.Fatalf("switch training accuracy = %.3f, want > 0.9 (loss %.3f)", res.FinalAcc, res.FinalLoss)
	}
	if res.RawBytes == 0 || res.WireBytes == 0 {
		t.Error("no traffic recorded")
	}
}

// switchTCPOptions is 4 workers + the switch at node 4 on the TCP plane
// (the wire chaos faults), with whole-gradient chunks: one up and one down
// frame per worker per iteration, so chaos frame schedules are easy to aim.
func switchTCPOptions(stepTimeout time.Duration) Options {
	o := digitsOptions()
	o.Algo = SwitchReduce
	o.StepTimeout = stepTimeout
	o.EvalEvery = 4
	return o.onTCP(fpcodec.MustBound(10))
}

// TestSwitchCrashFailsClosed: a switch that dies mid-multicast fails the
// run with the causal error, not a bare cancellation, and does not hang it.
func TestSwitchCrashFailsClosed(t *testing.T) {
	trainDS, testDS := digitsData()
	o := switchTCPOptions(500 * time.Millisecond)
	// Dying after 10 down-frames kills the switch partway through
	// iteration 2's multicast.
	o.Chaos = &fault.Config{Seed: 5, CrashAfter: map[int]uint64{o.Workers: 10}}
	_, err := Run(models.NewHDCSmall, trainDS, testDS, 10, o)
	if err == nil {
		t.Fatal("run with a dead switch reported success")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("causal error is a bare cancellation: %v", err)
	}
	t.Logf("failed closed: %v", err)
}

// TestSwitchWorkerCrashFailsClosed: a worker casualty on a switch run
// surfaces the crash itself as the run's error.
func TestSwitchWorkerCrashFailsClosed(t *testing.T) {
	trainDS, testDS := digitsData()
	o := switchTCPOptions(time.Second)
	o.Chaos = &fault.Config{Seed: 7, CrashAfter: map[int]uint64{1: 3}}
	_, err := Run(models.NewHDCSmall, trainDS, testDS, 10, o)
	if err == nil {
		t.Fatal("run with a dead worker reported success")
	}
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("causal error should be the worker crash, got: %v", err)
	}
}

// TestSwitchTCPTraceMetaAligns pins the trace-header contract on the
// socket path: a TCP switch run writes a trace whose trace_meta line
// carries a real epoch, so obs.Merge aligns it on that epoch and keeps
// every span.
func TestSwitchTCPTraceMetaAligns(t *testing.T) {
	trainDS, testDS := digitsData()
	o := switchTCPOptions(5 * time.Second)
	tracer := obs.NewTracer(1 << 15)
	o.Obs = obs.NewRecorder(obs.NewRegistry(), tracer)
	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 8, o); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "switch_tcp.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := obs.FileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.Merge(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sources) != 1 || !m.Sources[0].Aligned {
		t.Fatalf("merge sources = %+v, want the trace aligned on its meta epoch", m.Sources)
	}
	n := len(tracer.Snapshot())
	if n == 0 {
		t.Fatal("the run recorded no spans")
	}
	if len(m.Spans) != n {
		t.Fatalf("merged %d spans, trace held %d", len(m.Spans), n)
	}
}
