package eventsim

import (
	"math"
	"testing"

	"inceptionn/internal/models"
	"inceptionn/internal/netsim"
	"inceptionn/internal/obs"
)

// TestSendSpanEndMatchesFlowDone is the secNs rounding satellite: for a
// known flow set, every emitted send span must end exactly on
// secNs(done − Latency) — truncation used to leave spans a nanosecond
// short of the float timeline whenever sec*1e9 fell below the
// representable integer.
func TestSendSpanEndMatchesFlowDone(t *testing.T) {
	p := testParams()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	rec := obs.NewRecorder(reg, tr)
	s := New(p, 4)
	s.SetObs(rec, 0)
	// Sizes chosen so transfer times are not representable exactly in ns:
	// 1e7/StreamCap = 17777.77…µs, the old truncation dropped the final ns.
	a := s.AddFlow(0, 1, 1e7, nil, 0)
	b := s.AddFlow(1, 2, 3333333, []FlowID{a}, 1.5e-6)
	c := s.AddFlow(2, 3, 7, []FlowID{b}, 0)
	times := s.Run()

	spans := tr.Snapshot()
	ids := []FlowID{a, b, c}
	if len(spans) != len(ids) {
		t.Fatalf("%d spans for %d payload flows", len(spans), len(ids))
	}
	for i, id := range ids {
		ready, done := s.Timing(id)
		if done != times[id] {
			t.Fatalf("flow %d: Timing done %g != Run result %g", id, done, times[id])
		}
		sp := spans[i]
		if sp.Start != secNs(ready) {
			t.Errorf("flow %d: span start %dns, want secNs(ready)=%dns", id, sp.Start, secNs(ready))
		}
		if end := sp.Start + sp.Dur; end != secNs(done-p.Latency) {
			t.Errorf("flow %d: span end %dns, want secNs(done-latency)=%dns (done=%.12gs)",
				id, end, secNs(done-p.Latency), done)
		}
	}
}

// TestSwitchMatchesClosedForm: the event simulation of the in-network
// switch all-reduce must agree with netsim's closed-form pipeline model
// when the per-packet cost is disabled there.
func TestSwitchMatchesClosedForm(t *testing.T) {
	ep := testParams()
	np := netsim.Default10GbE()
	np.PerPacketTime = 0
	np.SwitchMemBytes = 8 << 20
	combinePerByte := 1 / np.SwitchSumRate
	for _, spec := range []models.Spec{models.AlexNet, models.HDC} {
		for _, workers := range []int{4, 8} {
			n := float64(spec.ParamBytes)
			ev := switchTime(ep, workers, n, float64(np.SwitchMemBytes), combinePerByte)
			cf := np.SwitchAllReduce(workers, spec.ParamBytes, nil).Total()
			if rel := math.Abs(ev-cf) / cf; rel > 0.10 {
				t.Errorf("%s workers=%d: event %gs vs closed-form %gs (%.1f%% apart)",
					spec.Name, workers, ev, cf, 100*rel)
			}
		}
	}
}

// TestSwitchBeatsWAInEventSim: the dedicated-port reduction avoids WA's
// incast in the dynamic simulation too, increasingly so at scale.
func TestSwitchBeatsWAInEventSim(t *testing.T) {
	ep := testParams()
	n := float64(models.AlexNet.ParamBytes)
	sumRate := 8e9
	for _, workers := range []int{8, 16} {
		wa := WorkerAggregatorTimeDelays(ep, workers, n, n, float64(workers-1)*n/sumRate, nil)
		sw := switchTime(ep, workers, n, 8<<20, 1/sumRate)
		if sw >= wa {
			t.Errorf("workers=%d: switch %gs >= WA %gs", workers, sw, wa)
		}
	}
}

func TestSwitchTimeDegenerate(t *testing.T) {
	ep := testParams()
	if got := switchTime(ep, 0, 1e6, 1e5, 1e-10); got != 0 {
		t.Errorf("workers=0: %g, want 0", got)
	}
	if got := switchTime(ep, 4, 0, 1e5, 1e-10); got != 0 {
		t.Errorf("bytes=0: %g, want 0", got)
	}
	// One worker still round-trips its own gradient through the switch.
	if got := switchTime(ep, 1, 1e6, 1e5, 1e-10); got <= 0 {
		t.Errorf("workers=1: %g, want > 0", got)
	}
}

// TestSwitchTraceBlameNamesThrottledSwitch is the tentpole observability
// acceptance: a sim trace of the switch strategy with the combine engine
// throttled below link rate must attribute the gating phase to the
// logical switch node (id == workers) — its recv waits collapse while
// every worker queues on the downlink — with the stall visible as switch
// reduce spans.
func TestSwitchTraceBlameNamesThrottledSwitch(t *testing.T) {
	np := netsim.Default10GbE()
	np.SwitchMemBytes = 1e5
	np.SwitchSumRate = np.LineRate / 10 // combine 10x slower than the link
	reg := obs.NewRegistry()
	tr := obs.NewTracer(8192)
	rec := obs.NewRecorder(reg, tr)

	const workers = 4
	it := Iteration{Strategy: "switch", Workers: workers, ModelBytes: 1e6, Compute: 2e-3}
	if total, err := Replay(np, it, 3, rec); err != nil || total <= 0 {
		t.Fatalf("Replay = %g, %v; want a positive exchange time", total, err)
	}

	spans := tr.Snapshot()
	var switchReduce, switchSend, workerRecv int
	for _, s := range spans {
		switch {
		case s.Node == workers && s.Phase == obs.PhaseReduce:
			switchReduce++
		case s.Node == workers && s.Phase == obs.PhaseSend:
			switchSend++
		case s.Node < workers && s.Phase == obs.PhaseRecv:
			workerRecv++
		}
	}
	if switchReduce == 0 || switchSend == 0 || workerRecv == 0 {
		t.Fatalf("span schema incomplete: %d switch reduce, %d switch send, %d worker recv",
			switchReduce, switchSend, workerRecv)
	}

	r := obs.AttributeCriticalPath(spans, 0)
	if node, share := r.Gating(); node != workers || share < 0.9 {
		t.Fatalf("blame: gating node %d share %.2f, want switch node %d >= 0.90", node, share, workers)
	}
}

// switchTime is the switch all-reduce DAG's finish time with no compute
// phase, straggler delay or recorder.
func switchTime(p Params, workers int, modelBytes, chunkBytes, combinePerByte float64) float64 {
	return SwitchTraceDelays(p, workers, modelBytes, chunkBytes, combinePerByte, 0, nil, nil, 0, 0)
}
