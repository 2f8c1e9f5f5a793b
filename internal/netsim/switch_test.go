package netsim

import (
	"math"
	"testing"

	"inceptionn/internal/models"
)

// TestSwitchAllReduceBeatsWAIncast: with aggregation at the port there is
// no incast leg, so the in-network reduction must beat the
// worker-aggregator exchange, and the gap must widen with the worker
// count (WA's incast and serial summation both scale with p; the switch
// pipeline does not).
func TestSwitchAllReduceBeatsWAIncast(t *testing.T) {
	p := Default10GbE()
	n := models.AlexNet.ParamBytes
	prevGap := 0.0
	for _, w := range []int{4, 8, 16} {
		sw := p.SwitchAllReduce(w, n, nil).Total()
		wa := p.WorkerAggregator(w, n, Plain(n), Plain(n)).Total()
		if sw >= wa {
			t.Errorf("workers=%d: switch %gs >= WA %gs", w, sw, wa)
		}
		if gap := wa - sw; gap <= prevGap {
			t.Errorf("workers=%d: switch advantage %gs did not grow (prev %gs)", w, gap, prevGap)
		} else {
			prevGap = gap
		}
	}
}

// TestSwitchAllReduceSingleChunk: with on-switch memory covering the whole
// gradient there is no pipelining — the exchange is exactly one upload,
// one combine, one multicast, one round trip.
func TestSwitchAllReduceSingleChunk(t *testing.T) {
	p := Default10GbE()
	n := int64(10 << 20)
	p.SwitchMemBytes = n
	ex := p.SwitchAllReduce(8, n, nil)
	u := p.StreamTime(Plain(n), 1)
	if math.Abs(ex.Transfer-2*u) > 1e-12 {
		t.Errorf("Transfer = %g, want up+down = %g", ex.Transfer, 2*u)
	}
	if want := float64(n) / p.SwitchSumRate; math.Abs(ex.Sum-want) > 1e-12 {
		t.Errorf("Sum = %g, want %g", ex.Sum, want)
	}
	if ex.Latency != 2*p.Latency {
		t.Errorf("Latency = %g, want %g", ex.Latency, 2*p.Latency)
	}
}

// TestSwitchAllReduceThrottledSumRate: a combine engine slower than the
// link must surface in the Sum term and gate the steady state.
func TestSwitchAllReduceThrottledSumRate(t *testing.T) {
	p := Default10GbE()
	n := models.AlexNet.ParamBytes
	base := p.SwitchAllReduce(16, n, nil)
	p.SwitchSumRate = p.LineRate / 20
	slow := p.SwitchAllReduce(16, n, nil)
	if slow.Total() <= base.Total() {
		t.Errorf("throttled switch %gs not slower than default %gs", slow.Total(), base.Total())
	}
	if slow.Sum <= slow.Transfer {
		t.Errorf("throttled switch not combine-bound: Sum %gs vs Transfer %gs", slow.Sum, slow.Transfer)
	}
	// The combine engine touches every byte once, serially (tolerance for
	// per-chunk float accumulation).
	if want := float64(n) / p.SwitchSumRate; slow.Sum < want*(1-1e-9) {
		t.Errorf("Sum = %gs, below the serial combine floor %gs", slow.Sum, want)
	}
}

// TestSwitchAllReduceChunkingBounds: memory-bounded chunking pipelines the
// stages, so a chunked exchange can never beat the slowest single stage
// run over the full gradient, and never exceed the unpipelined sum of all
// three stages.
func TestSwitchAllReduceChunkingBounds(t *testing.T) {
	p := Default10GbE()
	n := models.AlexNet.ParamBytes
	for _, mem := range []int64{1 << 18, 1 << 20, 8 << 20} {
		p.SwitchMemBytes = mem
		total := p.SwitchAllReduce(8, n, nil).Total()
		chunks := (n + mem - 1) / mem
		// Stage floors computed chunk-by-chunk (per-chunk packetization
		// overhead counts against the pipeline too).
		var uAll float64
		for rem := n; rem > 0; rem -= mem {
			c := mem
			if rem < mem {
				c = rem
			}
			uAll += p.StreamTime(Plain(c), 1)
		}
		sAll := float64(n) / p.SwitchSumRate
		floor := math.Max(uAll, sAll)
		ceil := 2*uAll + sAll + 2*p.Latency
		if total < floor {
			t.Errorf("mem=%d (%d chunks): total %gs below slowest-stage floor %gs", mem, chunks, total, floor)
		}
		if total > ceil+1e-12 {
			t.Errorf("mem=%d (%d chunks): total %gs above unpipelined ceiling %gs", mem, chunks, total, ceil)
		}
	}
}

// TestSwitchParamDefaultsAndValidation: zero switch params fall back to
// the link rate / 1 MiB defaults; negatives are rejected.
func TestSwitchParamDefaultsAndValidation(t *testing.T) {
	p := Default10GbE()
	p.SwitchSumRate = 0
	zeroRate := p.SwitchAllReduce(8, 1<<24, nil)
	p.SwitchSumRate = p.LineRate
	explicit := p.SwitchAllReduce(8, 1<<24, nil)
	if zeroRate != explicit {
		t.Errorf("SwitchSumRate=0 (%+v) does not default to LineRate (%+v)", zeroRate, explicit)
	}
	for _, mutate := range []func(*Params){
		func(p *Params) { p.SwitchSumRate = -1 },
		func(p *Params) { p.SwitchMemBytes = -1 },
	} {
		bad := Default10GbE()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}

// TestRingNonDivisibleSumRegression is the satellite bugfix lock-in: when
// the model size does not divide by the worker count, the summation term
// must carry the largest block of the real partition (ceil), not the
// truncated quotient — cross-checked against a brute-force walk of the
// per-block sizes the collective actually uses.
func TestRingNonDivisibleSumRegression(t *testing.T) {
	p := Default10GbE()
	for _, tc := range []struct {
		workers int
		bytes   int64
	}{
		{7, 1_000_003},
		{4, 233_000_001},
		{3, 5},
	} {
		// Brute force the partition ring.BlockBounds produces:
		// block b gets per (+1 for the first rem blocks). Every
		// reduce-scatter step sums each block once somewhere on the ring,
		// so the lockstep critical path carries the largest block per step.
		per := tc.bytes / int64(tc.workers)
		rem := tc.bytes % int64(tc.workers)
		var covered, maxBlk int64
		for b := int64(0); b < int64(tc.workers); b++ {
			size := per
			if b < rem {
				size++
			}
			covered += size
			if size > maxBlk {
				maxBlk = size
			}
		}
		if covered != tc.bytes {
			t.Fatalf("partition brute force dropped bytes: %d != %d", covered, tc.bytes)
		}
		if got := RingBlockBytes(tc.bytes, tc.workers); got != maxBlk {
			t.Fatalf("RingBlockBytes(%d,%d) = %d, brute force says %d", tc.bytes, tc.workers, got, maxBlk)
		}
		ex := p.Ring(tc.workers, tc.bytes, Plain(maxBlk))
		want := float64(tc.workers-1) * p.SumTime(maxBlk)
		if math.Abs(ex.Sum-want) > 1e-15 {
			t.Errorf("workers=%d bytes=%d: Sum = %g, want %g", tc.workers, tc.bytes, ex.Sum, want)
		}
		if rem != 0 {
			truncated := float64(tc.workers-1) * p.SumTime(per)
			if ex.Sum <= truncated {
				t.Errorf("workers=%d bytes=%d: Sum %g does not exceed the truncating model's %g",
					tc.workers, tc.bytes, ex.Sum, truncated)
			}
		}
	}
}

// TestDegenerateTopologyGuards: collapsed topologies must produce
// physically sensible exchanges — finite, non-negative, no NaN — rather
// than relying on implicit behavior.
func TestDegenerateTopologyGuards(t *testing.T) {
	p := Default10GbE()
	n := int64(1 << 20)
	check := func(name string, ex Exchange) {
		t.Helper()
		for _, v := range []float64{ex.Transfer, ex.Sum, ex.Latency, ex.Total()} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: unphysical exchange %+v", name, ex)
				return
			}
		}
	}
	check("Ring workers=0", p.Ring(0, n, Plain(n)))
	check("Ring workers=1", p.Ring(1, n, Plain(n)))
	check("WA workers=0", p.WorkerAggregator(0, n, Plain(n), Plain(n)))
	check("Switch workers=0", p.SwitchAllReduce(0, n, nil))
	check("Switch bytes=0", p.SwitchAllReduce(4, 0, nil))
	check("Hierarchical groups=1 tree", p.Hierarchical(1, 4, n, true, Plain(n/4), Plain(n), Plain(n)))
	check("Hierarchical groups=1 rings", p.Hierarchical(1, 4, n, false, Plain(n/4), Plain(n/4), Plain(n)))
	check("Hierarchical groupSize=1 tree", p.Hierarchical(4, 1, n, true, Plain(n), Plain(n), Plain(n)))
	check("Hierarchical groupSize=1 rings", p.Hierarchical(4, 1, n, false, Plain(n), Plain(n/4), Plain(n)))
	if got := p.Broadcast(Plain(n), 0); got != 0 {
		t.Errorf("Broadcast fanout=0 = %g, want 0", got)
	}
	if got := p.Broadcast(Plain(n), -3); got != 0 {
		t.Errorf("Broadcast fanout=-3 = %g, want 0", got)
	}
	// Single-node "rings" move no data and the guard must say so exactly.
	if total := p.Ring(1, n, Plain(n)).Total(); total != 0 {
		t.Errorf("1-worker ring total = %g, want 0", total)
	}
}
