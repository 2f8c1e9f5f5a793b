package netsim

import (
	"math"
	"testing"
)

func TestWorkerAggregatorLinearInP(t *testing.T) {
	// The paper's point: T_WA grows (almost) linearly with cluster size.
	c := Default10GbE()
	n := int64(233 << 20)
	t4 := c.AnalyticWorkerAggregator(4, n)
	t8 := c.AnalyticWorkerAggregator(8, n)
	ratio := t8 / t4
	if ratio < 1.7 || ratio > 2.2 {
		t.Errorf("T_WA(8)/T_WA(4) = %g, expected near-linear (~2)", ratio)
	}
}

func TestRingNearlyFlatInP(t *testing.T) {
	// T_INC's p-dependence cancels: going 4→8 nodes changes it little.
	c := Default10GbE()
	n := int64(233 << 20)
	t4 := c.AnalyticRing(4, n)
	t8 := c.AnalyticRing(8, n)
	ratio := t8 / t4
	if ratio < 0.95 || ratio > 1.25 {
		t.Errorf("T_INC(8)/T_INC(4) = %g, expected nearly flat", ratio)
	}
}

func TestRingBeatsWorkerAggregator(t *testing.T) {
	c := Default10GbE()
	for _, p := range []int{2, 4, 6, 8, 16} {
		for _, n := range []int64{2 << 20, 98 << 20, 525 << 20} {
			if c.AnalyticRing(p, n) >= c.AnalyticWorkerAggregator(p, n) {
				t.Errorf("p=%d n=%d: ring %g >= WA %g", p, n,
					c.AnalyticRing(p, n), c.AnalyticWorkerAggregator(p, n))
			}
		}
	}
}

func TestSpeedupGrowsWithP(t *testing.T) {
	c := Default10GbE()
	n := int64(98 << 20)
	prev := 0.0
	for _, p := range []int{2, 4, 8, 16} {
		s := c.AnalyticWorkerAggregator(p, n) / c.AnalyticRing(p, n)
		if s <= prev {
			t.Errorf("speedup at p=%d is %g, not increasing (prev %g)", p, s, prev)
		}
		prev = s
	}
}

func TestRingApproachesAsymptote(t *testing.T) {
	c := Default10GbE()
	n := int64(233 << 20)
	asym := c.AnalyticRingAsymptote(n)
	t64 := c.AnalyticRing(64, n)
	// The bandwidth terms converge to the asymptote; latency adds 2(p-1)α.
	latency := 2 * 63 * c.Latency
	if math.Abs(t64-latency-asym) > 0.05*asym {
		t.Errorf("Ring(64) - latency = %g, asymptote %g", t64-latency, asym)
	}
}

func TestKnownFormulaValues(t *testing.T) {
	// Hand-computed check with round numbers: α=1, β=1, γ=1, n=1, p=4.
	c := Params{Latency: 1, LineRate: 1, SumRate: 1}
	wantWA := (1 + 2.0) + (4 + 2.0) + 3.0 // logp = 2
	if got := c.AnalyticWorkerAggregator(4, 1); math.Abs(got-wantWA) > 1e-12 {
		t.Errorf("WA = %g, want %g", got, wantWA)
	}
	wantINC := 2*3.0 + 2*0.75 + 0.75
	if got := c.AnalyticRing(4, 1); math.Abs(got-wantINC) > 1e-12 {
		t.Errorf("Ring = %g, want %g", got, wantINC)
	}
}
