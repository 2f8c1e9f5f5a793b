package tune

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"inceptionn/internal/netsim"
)

// The probe traces under testdata/ were recorded once, by train.Run on
// the in-process plane: HDC-small, 4 workers, batch 8 per node, seed 42,
// 12 iterations, ring exchange. Three are the probe set a fit needs — a
// plain whole-block ring (β, γ and compute), the same ring chunked at
// modelFloats/(4·workers) floats (its extra messages pin α by paired
// contrast) and a compressed whole-block ring at error bound 2^-10 (codec
// rate and ratio) — and the fourth is a second plain whole-block run held
// out of the fit. Each file ends in the tune_meta line a -trace-out run
// writes. Never regenerate them: the values below are pinned to them.
var probeFiles = []string{"probe_ring.jsonl", "probe_ring_chunked.jsonl", "probe_ring_compressed.jsonl"}

const holdoutFile = "holdout_ring.jsonl"

// probeWarmup is how many leading iterations of each recorded probe the
// fit drops (cold caches, first-touch allocation).
const probeWarmup = 2

// readProbe reads one recorded probe trace through ReadTraceFile, which
// must find its tune_meta line.
func readProbe(t *testing.T, name string) Sample {
	t.Helper()
	s, meta, err := ReadTraceFile(filepath.Join("testdata", name), Workload{})
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil {
		t.Fatalf("%s: no tune_meta line", name)
	}
	s.WarmupIters = probeWarmup
	return s
}

// TestFitRecordedProbes is the model's deterministic gate: Fit over the
// recorded probes must observe every parameter the probe set is designed
// to pin, plan every candidate finitely, and reproduce its recorded fit
// and holdout residual to 1e-9 — a changed digit is a changed model.
func TestFitRecordedProbes(t *testing.T) {
	var samples []Sample
	for _, name := range probeFiles {
		samples = append(samples, readProbe(t, name))
	}
	fit, err := Fit(samples, netsim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cov := strings.Join(fit.Coverage, "\n")
	if !strings.Contains(cov, "two-workload contrast") {
		t.Fatalf("α not fitted from the paired contrast of two message mixes:\n%s", cov)
	}
	if fit.CodecRate <= 0 || fit.Ratio <= 1 {
		t.Fatalf("compressed probe not fitted: codec rate %v, ratio %v", fit.CodecRate, fit.Ratio)
	}

	w := samples[0].Workload
	pl := &Planner{Fit: fit, Workers: w.Workers, ModelBytes: w.ModelBytes}
	compressed := 0
	for _, p := range pl.Rank(pl.Candidates()) {
		for name, v := range map[string]float64{"iter": p.PredIterSec, "exchange": p.PredExchangeSec} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("%s: predicted %s seconds %v, want finite and positive", p.PlanOption, name, v)
			}
		}
		if p.Compress {
			compressed++
		}
	}
	if compressed == 0 {
		t.Fatal("no compressed candidate ranked")
	}

	// The recorded values: a fit or replay change that moves any of them
	// past float64 summation-order noise is a changed model.
	cal, holdoutErr := fit.Validate(readProbe(t, holdoutFile))
	if cal == nil {
		t.Fatal("Validate returned no calibration for the holdout")
	}
	const tol = 1e-9
	close10(t, "α (s per message)", 2*fit.Params.Latency, 1.9194907407407412e-06, tol)
	close10(t, "β (B/s per stream)", fit.Params.StreamEfficiency*fit.Params.LineRate, 4473214814.5574188, tol)
	close10(t, "γ (B/s)", fit.Params.SumRate, 2618838062.0975785, tol)
	close10(t, "codec rate (B/s)", fit.CodecRate, 392248679.02706069, tol)
	close10(t, "holdout max comm rel err", holdoutErr, 0.18675277191125966, tol)
}
