package tune

import (
	"math"
	"strings"
	"testing"

	"inceptionn/internal/netsim"
	"inceptionn/internal/obs"
)

// close10 asserts |got−want|/want <= tol.
func close10(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s = %v, want 0", name, got)
		}
		return
	}
	if e := math.Abs(got-want) / math.Abs(want); e > tol {
		t.Fatalf("%s = %v, want %v (rel err %.3f > %.3f)", name, got, want, e, tol)
	}
}

func TestFitAlphaBetaTwoParam(t *testing.T) {
	// Two distinct (messages, bytes) mixes: the 2×2 system is well
	// conditioned and the noise-free fit recovers α and β exactly.
	const alpha, beta = 50e-6, 1e9
	var cells []cell
	for _, mix := range []struct{ m, b float64 }{{6, 6e6}, {24, 6e6}, {6, 24e6}} {
		for i := 0; i < 4; i++ {
			cells = append(cells, cell{t: alpha*mix.m + mix.b/beta, m: mix.m, b: mix.b})
		}
	}
	a, b, how := fitAlphaBeta(cells, 1e-3, 1e6)
	if how != "two-workload contrast (α from the marginal messages)" {
		t.Fatalf("how = %q", how)
	}
	close10(t, "alpha", a, alpha, 1e-6)
	close10(t, "beta", b, beta, 1e-6)
}

func TestFitAlphaBetaSingleWorkloadHoldsPrior(t *testing.T) {
	// Every cell carries the same (m, b): one workload cannot separate
	// per-message from per-byte cost, so α is held at the prior and β
	// absorbs the remainder exactly.
	const alphaPrior, beta = 40e-6, 2e9
	m, bb := 6.0, 6e6
	tt := alphaPrior*m + bb/beta
	cells := []cell{{t: tt, m: m, b: bb}, {t: tt, m: m, b: bb}}
	a, b, how := fitAlphaBeta(cells, alphaPrior, 1e6)
	if !strings.Contains(how, "held at prior") {
		t.Fatalf("how = %q, want single-workload fallback", how)
	}
	if a != alphaPrior {
		t.Fatalf("alpha = %v, want prior %v", a, alphaPrior)
	}
	close10(t, "beta", b, beta, 1e-6)
}

func TestFitAlphaBetaDegenerate(t *testing.T) {
	// Cells slower than the α·m floor alone would need a negative 1/β;
	// the fit falls back to the β prior rather than inventing one.
	_, b, how := fitAlphaBeta([]cell{{t: 1e-6, m: 1, b: 1e6}}, 1e-3, 7e8)
	if !strings.Contains(how, "β held at prior") {
		t.Fatalf("how = %q, want full fallback", how)
	}
	if b != 7e8 {
		t.Fatalf("beta = %v, want prior", b)
	}
}

// syntheticSample builds a noise-free measured ring trace whose span
// durations follow the fitted model's structure exactly: sends bill the
// workload's wire bytes (after packetization/compression, the same
// traffic model Fit credits the cells with), reduces bill raw block
// bytes.
func syntheticSample(w Workload, alpha, beta, gamma, computeSec float64) Sample {
	workers, iters := w.Workers, w.Iters
	steps := float64(2 * (workers - 1))
	wirePerStep := float64(w.traffic(w.blockBytes()).WireBytes)
	sendSec := steps*alpha*float64(w.chunksPerBlock()) + steps*wirePerStep/beta
	reduceSec := float64(workers-1) * float64(w.blockBytes()) / gamma
	var spans []obs.Span
	for iter := 0; iter < iters; iter++ {
		for node := 0; node < workers; node++ {
			base := int64(iter) * int64(20e6)
			spans = append(spans,
				obs.Span{Node: node, Iter: iter, Phase: obs.PhaseCompute, Start: base, Dur: int64(computeSec * 1e9)},
				obs.Span{Node: node, Iter: iter, Phase: obs.PhaseSend, Start: base, Dur: int64(sendSec * 1e9)},
				obs.Span{Node: node, Iter: iter, Phase: obs.PhaseReduce, Start: base, Dur: int64(reduceSec * 1e9)},
			)
		}
	}
	return Sample{Workload: w, Spans: spans}
}

func TestFitRecoversSyntheticParams(t *testing.T) {
	const (
		alpha      = 60e-6
		beta       = 1.2e9
		gamma      = 4e8
		computeSec = 2e-3
	)
	// Two workloads with different chunk counts give the α-β fit two
	// directions to separate per-message from per-byte cost.
	whole := syntheticSample(Workload{Workers: 4, ModelBytes: 4 << 20, Strategy: "ring", Iters: 3}, alpha, beta, gamma, computeSec)
	chunked := syntheticSample(Workload{Workers: 4, ModelBytes: 4 << 20, Strategy: "ring", ChunkFloats: 1 << 16, Iters: 3}, alpha, beta, gamma, computeSec)
	f, err := Fit([]Sample{whole, chunked}, netsim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	close10(t, "Latency (α/2)", f.Params.Latency, alpha/2, 1e-3)
	close10(t, "stream bandwidth", f.Params.StreamEfficiency*f.Params.LineRate, beta, 1e-3)
	close10(t, "SumRate (γ)", f.Params.SumRate, gamma, 1e-3)
	close10(t, "SwitchSumRate fallback", f.Params.SwitchSumRate, gamma, 1e-3)
	close10(t, "ComputeSec", f.ComputeSec, computeSec, 1e-3)
	if f.Params.PerPacketTime != 0 {
		t.Fatalf("PerPacketTime = %v, want 0 (unobservable)", f.Params.PerPacketTime)
	}
	if f.Cells != 2*3*4*3 {
		t.Fatalf("Cells = %d, want 72", f.Cells)
	}
	if len(f.Coverage) == 0 {
		t.Fatal("no coverage report")
	}
	if f.Residuals == nil {
		t.Fatal("no replay residuals")
	}
	var sb strings.Builder
	f.RenderFit(&sb)
	if !strings.Contains(sb.String(), "coverage:") {
		t.Fatal("RenderFit missing coverage section")
	}
}

func TestFitCodecFromCompressedSample(t *testing.T) {
	const codecRate = 150e6
	plain := syntheticSample(Workload{Workers: 4, ModelBytes: 4 << 20, Strategy: "ring", Iters: 2}, 50e-6, 1e9, 4e8, 1e-3)
	comp := syntheticSample(Workload{Workers: 4, ModelBytes: 4 << 20, Strategy: "ring", Iters: 2, Compress: true, Ratio: 3.2}, 50e-6, 1e9, 4e8, 1e-3)
	// Codec spans ride the transport with iter −1 (they are not part of
	// an iteration's phase cells); total seconds sized to the rate.
	raw := float64(comp.Workload.Workers) * codecBytes(comp.Workload, 0) * float64(comp.Workload.Iters)
	comp.Spans = append(comp.Spans,
		obs.Span{Node: 0, Iter: -1, Phase: obs.PhaseCompress, Start: 0, Dur: int64(raw / codecRate * 0.6 * 1e9)},
		obs.Span{Node: 0, Iter: -1, Phase: obs.PhaseDecompress, Start: 0, Dur: int64(raw / codecRate * 0.4 * 1e9)},
	)
	// A Workload records no group size, so a hierarchical sample cannot
	// size its codec input: its codec spans must not move the rate.
	hier := Sample{
		Workload: Workload{Workers: 4, ModelBytes: 4 << 20, Strategy: "hierarchical-ring", Iters: 2, Compress: true, Ratio: 2},
		Spans:    []obs.Span{{Node: 0, Iter: -1, Phase: obs.PhaseCompress, Dur: 1e9}},
	}
	f, err := Fit([]Sample{plain, comp, hier}, netsim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	close10(t, "CodecRate", f.CodecRate, codecRate, 1e-3)
	close10(t, "Ratio", f.Ratio, 3.2, 1e-9)
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, netsim.Params{}); err == nil {
		t.Fatal("Fit(nil) must error")
	}
	bad := Sample{Workload: Workload{Workers: 1, ModelBytes: 1, Strategy: "ring"}}
	if _, err := Fit([]Sample{bad}, netsim.Params{}); err == nil {
		t.Fatal("Fit with invalid workload must error")
	}
	// A switch-only trace has no ring send cells to anchor α-β.
	sw := Sample{Workload: Workload{Workers: 4, ModelBytes: 1 << 20, Strategy: "switch"}}
	if _, err := Fit([]Sample{sw}, netsim.Params{}); err == nil {
		t.Fatal("Fit without ring send cells must error")
	}
	ring := syntheticSample(Workload{Workers: 3, ModelBytes: 1 << 20, Strategy: "ring", Iters: 2}, 50e-6, 1e9, 4e8, 1e-3)
	ring.Spans[0].Dur = -1
	if _, err := Fit([]Sample{ring}, netsim.Params{}); err == nil {
		t.Fatal("Fit with a negative span duration must error")
	}
	huge := Sample{Workload: Workload{Workers: maxWorkers + 1, ModelBytes: 1 << 20, Strategy: "ring"}}
	if _, err := Fit([]Sample{huge}, netsim.Params{}); err == nil {
		t.Fatal("Fit with more than maxWorkers workers must error")
	}
}

// TestFitSkipsReplayPastTestbedScale: the calibration replay is
// superlinear in workers, so a fit stops replaying where the cross-check
// does; the closed-form fit still runs.
func TestFitSkipsReplayPastTestbedScale(t *testing.T) {
	s := syntheticSample(Workload{Workers: 4096, ModelBytes: 1 << 20, Strategy: "ring", Iters: 1}, 50e-6, 1e9, 4e8, 1e-3)
	f, err := Fit([]Sample{s}, netsim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Residuals != nil {
		t.Fatal("replayed a 4096-worker sample")
	}
	close10(t, "ComputeSec", f.ComputeSec, 1e-3, 1e-3)
}

func TestWorkloadHelpers(t *testing.T) {
	w := Workload{Workers: 4, ModelBytes: 4 << 20, Strategy: "ring"}
	if got := w.blockBytes(); got != 1<<20 {
		t.Fatalf("blockBytes = %d, want %d", got, 1<<20)
	}
	if got := w.chunksPerBlock(); got != 1 {
		t.Fatalf("chunksPerBlock (whole) = %d, want 1", got)
	}
	w.ChunkFloats = 1 << 16
	if got := w.chunksPerBlock(); got != 4 {
		t.Fatalf("chunksPerBlock = %d, want 4", got)
	}
	if w.ratio() != 1 {
		t.Fatal("uncompressed ratio must be 1")
	}
	w.Compress, w.Ratio = true, 3.5
	if w.ratio() != 3.5 {
		t.Fatal("compressed ratio not honoured")
	}
	if err := (Workload{Workers: 4, ModelBytes: 1, Strategy: "nope"}).Validate(); err == nil {
		t.Fatal("unknown strategy must fail validation")
	}
}

func TestValidateCrossValidation(t *testing.T) {
	// Fit on one synthetic trace, validate on a second one drawn from the
	// same ground truth: the replayed sim should track the held-out
	// sample's send/reduce means closely.
	fitS := syntheticSample(Workload{Workers: 4, ModelBytes: 4 << 20, Strategy: "ring", Iters: 3}, 50e-6, 1e9, 4e8, 1e-3)
	f, err := Fit([]Sample{fitS}, netsim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	holdout := syntheticSample(Workload{Workers: 4, ModelBytes: 4 << 20, Strategy: "ring", Iters: 3}, 50e-6, 1e9, 4e8, 1e-3)
	cal, maxErr := f.Validate(holdout)
	if cal == nil {
		t.Fatal("Validate returned no calibration")
	}
	if maxErr > 0.15 {
		t.Fatalf("comm max |rel err| = %.3f on noise-free holdout, want <= 0.15", maxErr)
	}
}
