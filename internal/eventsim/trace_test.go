package eventsim

import (
	"math"
	"testing"

	"inceptionn/internal/netsim"
	"inceptionn/internal/obs"
)

func TestRingTraceDelaysSchema(t *testing.T) {
	np := netsim.Default10GbE()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(4096)
	rec := obs.NewRecorder(reg, tr)

	// 1 MB blocks, node 2 straggles 5ms per iteration.
	it := Iteration{Strategy: "ring", Workers: 4, ModelBytes: 4e6, SumDelayPerStep: 1e-4,
		Compute: 2e-3, NodeDelay: []float64{0, 0, 5e-3, 0}}
	total, err := Replay(np, it, 5, rec)
	if err != nil || total <= 0 {
		t.Fatalf("Replay = %g, %v; want a positive exchange time", total, err)
	}
	// Replay chains iterations on one timeline and sums what each returns.
	if one := RingTraceDelays(FromNet(np), 4, 1e6, 1e-4, 2e-3, it.NodeDelay, nil, 0, 0); math.Abs(total-5*one) > 1e-12 {
		t.Fatalf("Replay total %g, want 5 x %g", total, one)
	}
	it.Strategy = "worker-aggregator"
	if _, err := Replay(np, it, 1, nil); err == nil {
		t.Fatal("Replay accepted a strategy with no span-emitting model")
	}

	spans := tr.Snapshot()
	var havePhase [obs.NumPhases]bool
	for _, s := range spans {
		havePhase[s.Phase] = true
	}
	for _, ph := range []obs.Phase{obs.PhaseCompute, obs.PhaseSend, obs.PhaseRecv, obs.PhaseReduce} {
		if !havePhase[ph] {
			t.Fatalf("sim trace missing %s spans", ph)
		}
	}

	// The virtual-time trace must feed the same critical-path attribution
	// as a measured one — and name the injected straggler.
	r := obs.AttributeCriticalPath(spans, 0)
	if node, share := r.Gating(); node != 2 || share < 0.9 {
		t.Fatalf("sim blame: gating node %d share %.2f, want node 2 ≥0.90", node, share)
	}

	snap := reg.Snapshot()
	for _, name := range []string{"eventsim_flows", "eventsim_events", "eventsim_rate_changes"} {
		if v, ok := snap[name].(int64); !ok || v <= 0 {
			t.Fatalf("%s = %v, want > 0", name, snap[name])
		}
	}
}
