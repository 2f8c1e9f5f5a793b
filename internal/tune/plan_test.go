package tune

import (
	"strings"
	"testing"

	"inceptionn/internal/netsim"
)

// testFit returns a hand-built fitted model with round numbers.
func testFit() *Fitted {
	f := &Fitted{Params: netsim.Default10GbE()}
	f.Params.Latency = 25e-6
	f.Params.PerPacketTime = 0
	f.Params.SumRate = 4e8
	f.Params.SwitchSumRate = 4e8
	f.ComputeSec = 2e-3
	f.CodecRate = 150e6
	f.Ratio = 3.0
	for p := range f.Scale {
		f.Scale[p] = 1
	}
	return f
}

func TestCandidatesSearchSpace(t *testing.T) {
	pl := &Planner{Fit: testFit(), Workers: 4, ModelBytes: 4 << 20}
	opts := pl.Candidates()
	// Per compression setting: 4 ring chunkings + 1 worker-aggregator +
	// 2 switch chunkings + 2 hierarchical (g=2, tree+ring) = 9.
	if len(opts) != 18 {
		t.Fatalf("candidates = %d, want 18", len(opts))
	}
	seen := make(map[string]bool)
	for _, o := range opts {
		if seen[o.String()] {
			t.Fatalf("duplicate candidate %s", o)
		}
		seen[o.String()] = true
	}
	if !seen["ring/chunk4096/comp"] || !seen["switch/whole/plain"] || !seen["hierarchical-tree/g2/whole/comp"] {
		t.Fatalf("expected candidates missing: %v", seen)
	}

	pl.NoCompress = true
	if got := len(pl.Candidates()); got != 9 {
		t.Fatalf("NoCompress candidates = %d, want 9", got)
	}
}

func TestGroupSizes(t *testing.T) {
	if got := groupSizes(8); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("groupSizes(8) = %v, want [2 4]", got)
	}
	if got := groupSizes(7); got != nil {
		t.Fatalf("groupSizes(7) = %v, want nil (prime)", got)
	}
	if got := groupSizes(4); len(got) != 1 || got[0] != 2 {
		t.Fatalf("groupSizes(4) = %v, want [2]", got)
	}
}

func TestPredictRingMatchesNetsim(t *testing.T) {
	f := testFit()
	pl := &Planner{Fit: f, Workers: 4, ModelBytes: 4 << 20}
	plan := pl.Predict(PlanOption{Strategy: "ring"})
	ex := f.Params.Ring(4, 4<<20, netsim.Plain(netsim.RingBlockBytes(4<<20, 4)))
	want := f.ComputeSec + ex.Transfer + 6*2*f.Params.Latency + ex.Sum
	if e := plan.PredIterSec - want; e > 1e-12 || e < -1e-12 {
		t.Fatalf("ring whole/plain pred = %v, want %v", plan.PredIterSec, want)
	}
	if plan.PredCodecSec != 0 {
		t.Fatalf("plain plan has codec cost %v", plan.PredCodecSec)
	}
}

func TestPredictChunkingTradesAlphaForOverlap(t *testing.T) {
	f := testFit()
	pl := &Planner{Fit: f, Workers: 4, ModelBytes: 4 << 20}
	whole := pl.Predict(PlanOption{Strategy: "ring"})
	chunked := pl.Predict(PlanOption{Strategy: "ring", ChunkFloats: 1 << 14})
	// Chunking pays more α but overlaps the reduction: with γ slow
	// relative to the wire it must win here.
	if chunked.PredIterSec >= whole.PredIterSec {
		t.Fatalf("chunked %v !< whole %v", chunked.PredIterSec, whole.PredIterSec)
	}
	// Absurdly fine chunking must eventually lose to the α bill.
	tiny := pl.Predict(PlanOption{Strategy: "ring", ChunkFloats: 16})
	if tiny.PredIterSec <= chunked.PredIterSec {
		t.Fatalf("16-float chunks %v did not pay for their messages (chunk16384 %v)", tiny.PredIterSec, chunked.PredIterSec)
	}
}

func TestPredictCompressionTradeoff(t *testing.T) {
	f := testFit()
	pl := &Planner{Fit: f, Workers: 4, ModelBytes: 4 << 20}
	// Slow codec on a fast fabric: compression must lose.
	f.CodecRate = 20e6
	if c, p := pl.Predict(PlanOption{Strategy: "ring", Compress: true}), pl.Predict(PlanOption{Strategy: "ring"}); c.PredIterSec <= p.PredIterSec {
		t.Fatalf("slow codec: compressed %v !> plain %v", c.PredIterSec, p.PredIterSec)
	}
	// Fast (NIC-offloaded) codec on a slow link: compression must win.
	f.CodecRate = 100e9
	f.Params.LineRate = 1.25e8 // 1GbE
	if c, p := pl.Predict(PlanOption{Strategy: "ring", Compress: true}), pl.Predict(PlanOption{Strategy: "ring"}); c.PredIterSec >= p.PredIterSec {
		t.Fatalf("fast codec, slow link: compressed %v !< plain %v", c.PredIterSec, p.PredIterSec)
	}
}

func TestPredictInvalidOptions(t *testing.T) {
	pl := &Planner{Fit: testFit(), Workers: 4, ModelBytes: 4 << 20}
	if p := pl.Predict(PlanOption{Strategy: "hierarchical-tree", GroupSize: 3}); p.PredIterSec != inf {
		t.Fatalf("non-divisor group size must predict inf, got %v", p.PredIterSec)
	}
	if p := pl.Predict(PlanOption{Strategy: "carrier-pigeon"}); p.PredIterSec != inf {
		t.Fatalf("unknown strategy must predict inf, got %v", p.PredIterSec)
	}
}

func TestOverlap(t *testing.T) {
	if got := overlap(10, 4, 1); got != 14 {
		t.Fatalf("serial overlap = %v, want 14", got)
	}
	if got := overlap(10, 4, 4); got != 11 {
		t.Fatalf("overlap(10,4,4) = %v, want 11", got)
	}
	if got := overlap(4, 10, 5); got != 10.8 {
		t.Fatalf("overlap(4,10,5) = %v, want 10.8 (cpu side dominates)", got)
	}
}

func TestRankOrderAndCrossCheck(t *testing.T) {
	pl := &Planner{Fit: testFit(), Workers: 4, ModelBytes: 4 << 20}
	plans := pl.Rank(pl.Candidates())
	if len(plans) != 18 {
		t.Fatalf("ranked %d plans, want 18", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].PredIterSec < plans[i-1].PredIterSec {
			t.Fatalf("rank order violated at %d: %v < %v", i, plans[i].PredIterSec, plans[i-1].PredIterSec)
		}
	}
	// The top plans that have an event model must carry a cross-check in
	// the same order of magnitude as the closed-form prediction.
	for i := 0; i < crossCheckTop; i++ {
		p := plans[i]
		if p.Strategy != "ring" && p.Strategy != "switch" {
			continue
		}
		if p.CrossCheckSec <= 0 {
			t.Fatalf("top plan %s has no cross-check", p.PlanOption)
		}
		if p.CrossCheckSec > 10*p.PredIterSec || p.CrossCheckSec < p.PredIterSec/10 {
			t.Fatalf("cross-check %v wildly off prediction %v for %s", p.CrossCheckSec, p.PredIterSec, p.PlanOption)
		}
	}
}

func TestWhatIfScaling(t *testing.T) {
	pl := &Planner{Fit: testFit(), Workers: 4, ModelBytes: 4 << 20}
	rows := pl.WhatIf(nil)
	if len(rows) != len(DefaultWhatIfNodes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(DefaultWhatIfNodes))
	}
	for i, r := range rows {
		if r.Nodes != DefaultWhatIfNodes[i] {
			t.Fatalf("row %d nodes = %d, want %d", i, r.Nodes, DefaultWhatIfNodes[i])
		}
		if r.Best.PredIterSec <= 0 || r.Best.PredIterSec >= inf {
			t.Fatalf("scale %d: best pred %v not finite", r.Nodes, r.Best.PredIterSec)
		}
		if r.RingSec >= inf || r.SwitchSec >= inf {
			t.Fatalf("scale %d: missing per-strategy bests", r.Nodes)
		}
		if r.Best.PredIterSec > r.RingSec || r.Best.PredIterSec > r.SwitchSec {
			t.Fatalf("scale %d: best %v worse than a per-strategy best", r.Nodes, r.Best.PredIterSec)
		}
	}
	// Weak scaling on a flat ring degrades with node count; the ring best
	// at 1024 nodes must be worse than at 8.
	if rows[len(rows)-1].RingSec <= rows[0].RingSec {
		t.Fatalf("flat ring did not degrade with scale: %v at %d vs %v at %d",
			rows[len(rows)-1].RingSec, rows[len(rows)-1].Nodes, rows[0].RingSec, rows[0].Nodes)
	}
}

func TestRenders(t *testing.T) {
	pl := &Planner{Fit: testFit(), Workers: 4, ModelBytes: 4 << 20}
	plans := pl.Rank(pl.Candidates())
	var sb strings.Builder
	RenderPlans(&sb, plans, 5)
	if !strings.Contains(sb.String(), "> ") {
		t.Fatal("RenderPlans missing winner marker")
	}
	sb.Reset()
	RenderWhatIf(&sb, pl.WhatIf([]int{8, 32}))
	if !strings.Contains(sb.String(), "32") {
		t.Fatal("RenderWhatIf missing scale row")
	}
}

// TestCrossCheckBoundedByFlows: a switch plan whose replay would move more
// than crossCheckMaxFlows flows (workers × on-switch chunks) is ranked
// without a cross-check, and one within the bound keeps it, as the ring
// does at any model size.
func TestCrossCheckBoundedByFlows(t *testing.T) {
	opts := []PlanOption{{Strategy: "switch", ChunkFloats: 1 << 14}, {Strategy: "switch"}, {Strategy: "ring"}}
	for _, c := range []struct {
		modelBytes int64
		over       bool
	}{{4 << 20, false}, {1_000_000_000, true}} {
		pl := &Planner{Fit: testFit(), Workers: 4, ModelBytes: c.modelBytes}
		for _, p := range pl.Rank(opts) {
			w := pl.workload(p.PlanOption)
			flows := w.Workers * pl.Fit.switchChunks(w)
			over := flows > crossCheckMaxFlows
			if over != (c.over && p.Strategy == "switch") {
				t.Fatalf("%d bytes, %s: %d flows, over the bound %v", c.modelBytes, p.PlanOption, flows, over)
			}
			if checked := p.CrossCheckSec > 0; checked == over {
				t.Fatalf("%d bytes, %s: %d flows (bound %d), cross-check %v",
					c.modelBytes, p.PlanOption, flows, crossCheckMaxFlows, p.CrossCheckSec)
			}
		}
	}
}
