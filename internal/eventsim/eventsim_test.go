package eventsim

import (
	"math"
	"testing"

	"inceptionn/internal/models"
	"inceptionn/internal/netsim"
)

func testParams() Params { return FromNet(netsim.Default10GbE()) }

func TestSingleFlow(t *testing.T) {
	p := testParams()
	s := New(p, 2)
	id := s.AddFlow(0, 1, 1e9, nil, 0)
	times := s.Run()
	// One stream: capped at StreamCap.
	want := 1e9/p.StreamCap + p.Latency
	if math.Abs(times[id]-want) > 1e-9*want {
		t.Fatalf("single flow time %g, want %g", times[id], want)
	}
}

func TestIncastSharesLineRate(t *testing.T) {
	p := testParams()
	s := New(p, 5)
	// Four flows into node 4: each gets LineRate/4 < StreamCap.
	var ids []FlowID
	for w := 0; w < 4; w++ {
		ids = append(ids, s.AddFlow(w, 4, 1e9, nil, 0))
	}
	times := s.Run()
	want := 1e9/(p.LineRate/4) + p.Latency
	for _, id := range ids {
		if math.Abs(times[id]-want) > 1e-6*want {
			t.Fatalf("incast flow time %g, want %g", times[id], want)
		}
	}
}

func TestTwoFlowsHitStreamCap(t *testing.T) {
	p := testParams()
	s := New(p, 3)
	// Two flows into node 2: fair share LineRate/2 = 0.625 GB/s exceeds the
	// 0.5625 GB/s stream cap, so the cap binds.
	a := s.AddFlow(0, 2, 1e9, nil, 0)
	b := s.AddFlow(1, 2, 1e9, nil, 0)
	times := s.Run()
	want := 1e9/p.StreamCap + p.Latency
	for _, id := range []FlowID{a, b} {
		if math.Abs(times[id]-want) > 1e-6*want {
			t.Fatalf("flow time %g, want %g (stream cap)", times[id], want)
		}
	}
}

func TestDependencyChainAndDelay(t *testing.T) {
	p := testParams()
	s := New(p, 2)
	first := s.AddFlow(0, 1, 1e8, nil, 0)
	second := s.AddFlow(1, 0, 1e8, []FlowID{first}, 0.5)
	times := s.Run()
	tFirst := 1e8/p.StreamCap + p.Latency
	want := tFirst + 0.5 + 1e8/p.StreamCap + p.Latency
	if math.Abs(times[second]-want) > 1e-6*want {
		t.Fatalf("chained flow time %g, want %g", times[second], want)
	}
}

func TestZeroByteFlowIsSyncPoint(t *testing.T) {
	p := testParams()
	s := New(p, 2)
	a := s.AddFlow(0, 1, 1e8, nil, 0)
	sync := s.AddFlow(0, 1, 0, []FlowID{a}, 0.25)
	times := s.Run()
	if times[sync] < times[a]+0.25 {
		t.Fatalf("sync fired at %g before %g+0.25", times[sync], times[a])
	}
}

func TestRateRecomputedOnCompletion(t *testing.T) {
	p := testParams()
	p.StreamCap = p.LineRate // disable the cap to isolate sharing
	s := New(p, 3)
	// Short and long flow share node 2's downlink; when the short one
	// finishes, the long one speeds up to full line rate.
	long := s.AddFlow(0, 2, 2e9, nil, 0)
	short := s.AddFlow(1, 2, 0.5e9, nil, 0)
	times := s.Run()
	// Phase 1: both at 0.625 GB/s until short is done at t=0.8 (long has
	// moved 0.5e9). Phase 2: long alone at 1.25 GB/s for 1.5e9 -> 1.2s.
	wantShort := 0.8 + p.Latency
	wantLong := 0.8 + 1.2 + p.Latency
	if math.Abs(times[short]-wantShort) > 1e-6 {
		t.Fatalf("short = %g, want %g", times[short], wantShort)
	}
	if math.Abs(times[long]-wantLong) > 1e-6 {
		t.Fatalf("long = %g, want %g", times[long], wantLong)
	}
}

// TestWAMatchesClosedForm: the event simulation of the worker-aggregator
// exchange must agree with netsim's closed form when the per-packet cost
// is disabled there.
func TestWAMatchesClosedForm(t *testing.T) {
	ep := testParams()
	np := netsim.Default10GbE()
	np.PerPacketTime = 0
	for _, spec := range []models.Spec{models.AlexNet, models.HDC} {
		n := float64(spec.ParamBytes)
		sum := 3 * n / np.SumRate
		ev := WorkerAggregatorTimeDelays(ep, 4, n, n, sum, nil)
		cf := np.WorkerAggregator(4, spec.ParamBytes,
			netsim.Plain(spec.ParamBytes), netsim.Plain(spec.ParamBytes)).Total()
		// The closed form adds packet headers (+~4%) and fixed latency;
		// agreement within 10% validates the structure.
		if rel := math.Abs(ev-cf) / cf; rel > 0.10 {
			t.Errorf("%s: event %gs vs closed-form %gs (%.1f%% apart)",
				spec.Name, ev, cf, 100*rel)
		}
	}
}

// TestRingMatchesClosedForm: same validation for the ring exchange.
func TestRingMatchesClosedForm(t *testing.T) {
	ep := testParams()
	np := netsim.Default10GbE()
	np.PerPacketTime = 0
	for _, spec := range []models.Spec{models.AlexNet, models.ResNet50} {
		workers := 4
		block := float64(spec.ParamBytes) / float64(workers)
		sumPerStep := block / np.SumRate
		ev := RingTimeDelays(ep, workers, block, sumPerStep, nil)
		cf := np.Ring(workers, spec.ParamBytes, netsim.Plain(spec.ParamBytes/int64(workers))).Total()
		if rel := math.Abs(ev-cf) / cf; rel > 0.12 {
			t.Errorf("%s: event %gs vs closed-form %gs (%.1f%% apart)",
				spec.Name, ev, cf, 100*rel)
		}
	}
}

// TestRingBeatsWAInEventSim: the headline comparison holds in the
// fully dynamic simulation too.
func TestRingBeatsWAInEventSim(t *testing.T) {
	ep := testParams()
	for _, workers := range []int{2, 4, 8} {
		n := float64(models.ResNet50.ParamBytes)
		wa := WorkerAggregatorTimeDelays(ep, workers, n, n, 3*n/8e9, nil)
		ringT := RingTimeDelays(ep, workers, n/float64(workers), n/float64(workers)/8e9, nil)
		if ringT >= wa {
			t.Errorf("workers=%d: ring %g >= WA %g", workers, ringT, wa)
		}
	}
}

// TestScalabilityShapeInEventSim reproduces the Fig. 15 shape dynamically.
func TestScalabilityShapeInEventSim(t *testing.T) {
	ep := testParams()
	n := float64(models.AlexNet.ParamBytes)
	wa4 := WorkerAggregatorTimeDelays(ep, 4, n, n, 0, nil)
	wa8 := WorkerAggregatorTimeDelays(ep, 8, n, n, 0, nil)
	ring4 := RingTimeDelays(ep, 4, n/4, 0, nil)
	ring8 := RingTimeDelays(ep, 8, n/8, 0, nil)
	if wa8 < 1.6*wa4 {
		t.Errorf("WA 4→8: %g → %g, expected ~2x", wa4, wa8)
	}
	if ring8 > 1.2*ring4 {
		t.Errorf("ring 4→8: %g → %g, expected near-flat", ring4, ring8)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	p := testParams()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad node", func() { New(p, 2).AddFlow(0, 5, 1, nil, 0) })
	mustPanic("negative bytes", func() { New(p, 2).AddFlow(0, 1, -1, nil, 0) })
	mustPanic("forward dep", func() {
		s := New(p, 2)
		s.AddFlow(0, 1, 1, []FlowID{1}, 0)
		s.Run()
	})
	mustPanic("zero nodes", func() { New(p, 0) })
}

// TestStragglerSensitivity quantifies the trade-off of ablation G: one
// slow worker (delay d before every send). The incast's work-conserving
// link absorbs most of the delay in the WA exchange (the other streams use
// the idle capacity, penalty well under d), while the ring's critical
// chain crosses the straggler once per phase (penalty ≈ 2d) — the
// synchronous ring is several times more straggler-sensitive.
func TestStragglerSensitivity(t *testing.T) {
	p := testParams()
	workers := 4
	n := 50e6
	const d = 0.1
	delays := make([]float64, workers)
	delays[2] = d

	waBase := WorkerAggregatorTimeDelays(p, workers, n, n, 0, nil)
	waSlow := WorkerAggregatorTimeDelays(p, workers, n, n, 0, delays)
	waPenalty := waSlow - waBase
	if waPenalty <= 0 || waPenalty > d {
		t.Errorf("WA straggler penalty %g, want in (0, %g): incast absorbs the delay", waPenalty, d)
	}

	ringBase := RingTimeDelays(p, workers, n/float64(workers), 0, nil)
	ringSlow := RingTimeDelays(p, workers, n/float64(workers), 0, delays)
	ringPenalty := ringSlow - ringBase
	if ringPenalty < 1.8*d || ringPenalty > 2.2*d {
		t.Errorf("ring straggler penalty %g, want ~%g (one crossing per phase)", ringPenalty, 2*d)
	}
	if ringPenalty <= 2*waPenalty {
		t.Errorf("ring (%g) should be much more sensitive than WA (%g)", ringPenalty, waPenalty)
	}
}

// BenchmarkEventSim measures the discrete-event simulator on the Fig. 15
// workload (it backs the validation tests).
func BenchmarkEventSim(b *testing.B) {
	p := testParams()
	n := float64(models.AlexNet.ParamBytes)
	for i := 0; i < b.N; i++ {
		WorkerAggregatorTimeDelays(p, 8, n, n, 0.01, nil)
		RingTimeDelays(p, 8, n/8, 0.001, nil)
	}
}
