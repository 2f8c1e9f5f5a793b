package train

import (
	"testing"
	"time"

	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/obs"
)

// TestBlameFindsInjectedStraggler is the PR's acceptance run: a 4-node
// TCP ring with one artificially delayed node must have the critical-path
// attribution point at that node in at least 90% of attributed
// iterations. This post-mortem verdict over the run's own trace is how a
// straggler is named; there is no online detector.
func TestBlameFindsInjectedStraggler(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 15)
	o.Obs = obs.NewRecorder(reg, tracer)
	o.StepTimeout = 30 * time.Second
	const slow = 2
	// 60ms per iteration: on a quiet box a few ms of GC and scheduler
	// jitter is all there is to dwarf, but `go test ./...` overlaps this
	// package with internal/experiments, and with both cores taken another
	// node out-waited a 25ms injection in 12 of 40 runs (0 of 40 at 60ms).
	// This widens the margin, it does not remove the wall clock; the
	// deterministic fix, an injectable clock (ROADMAP item 5), is still
	// open.
	o.Straggler = map[int]time.Duration{slow: 60 * time.Millisecond}

	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 20, o.onTCP(fpcodec.MustBound(10))); err != nil {
		t.Fatal(err)
	}

	// 2ms balance threshold: scheduling jitter stays below it, the
	// injected 60ms does not.
	r := obs.AttributeCriticalPath(tracer.Snapshot(), 2*time.Millisecond)
	if len(r.Nodes) != o.Workers {
		t.Fatalf("attribution covers nodes %v, want %d nodes", r.Nodes, o.Workers)
	}
	if r.Attributed == 0 {
		t.Fatal("no iterations attributed despite a 60ms/iter straggler")
	}
	node, share := r.Gating()
	if node != slow || share < 0.9 {
		t.Fatalf("gating node %d with share %.2f, want node %d with ≥0.90 (counts: %v)",
			node, share, slow, r.GatingCount)
	}
	// The blame matrix must charge the straggler's right neighbour's
	// excess wait to the straggler itself (its direct upstream).
	pos := map[int]int{}
	for i, n := range r.Nodes {
		pos[n] = i
	}
	right := (slow + 1) % o.Workers
	if r.Blame[pos[right]][pos[slow]] <= 0 {
		t.Fatalf("node %d shows no blamed wait on straggler %d: %v", right, slow, r.Blame)
	}
}
