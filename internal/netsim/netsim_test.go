package netsim

import (
	"math"
	"testing"

	"inceptionn/internal/comm"
	"inceptionn/internal/models"
)

func TestParamsValidate(t *testing.T) {
	if err := Default10GbE().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default10GbE()
	bad.StreamEfficiency = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero efficiency")
	}
	bad = Default10GbE()
	bad.LineRate = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for negative rate")
	}
}

func TestPlainTraffic(t *testing.T) {
	tr := Plain(4 * 1000)
	wantPkts := int64((4000 + comm.MSS - 1) / comm.MSS)
	if tr.Packets != wantPkts {
		t.Errorf("packets = %d, want %d", tr.Packets, wantPkts)
	}
	if tr.WireBytes != 4000+wantPkts*comm.HeaderBytes {
		t.Errorf("wire = %d", tr.WireBytes)
	}
	if zero := Plain(0); zero.Packets != 1 {
		t.Errorf("empty payload packets = %d, want 1", zero.Packets)
	}
}

func TestNICCompressedKeepsPacketCount(t *testing.T) {
	// The paper: "we do not reduce the total number of packets".
	n := int64(10 << 20)
	raw := Plain(n)
	nic := NICCompressed(n, 10)
	if nic.Packets != raw.Packets {
		t.Errorf("NIC compression changed packet count: %d vs %d", nic.Packets, raw.Packets)
	}
	if nic.WireBytes >= raw.WireBytes {
		t.Errorf("NIC compression did not shrink wire bytes")
	}
	soft := SoftwareCompressed(n, 10)
	if soft.Packets >= raw.Packets {
		t.Errorf("software compression must shrink packet count: %d vs %d", soft.Packets, raw.Packets)
	}
}

func TestCompressionRatioFloor(t *testing.T) {
	// Relaxing the bound beyond the per-packet floor buys almost nothing —
	// the paper's Fig. 12 observation.
	p := Default10GbE()
	n := int64(58 << 20) // one AlexNet ring block
	t10 := p.StreamTime(NICCompressed(n, 10), 1)
	t15 := p.StreamTime(NICCompressed(n, 15), 1)
	if (t10-t15)/t10 > 0.10 {
		t.Errorf("ratio 10→15 still gained %.1f%%; expected the per-packet floor to bind",
			100*(t10-t15)/t10)
	}
	// But compression vs none is a big win.
	tRaw := p.StreamTime(Plain(n), 1)
	if t10 > 0.6*tRaw {
		t.Errorf("compression gains too small: %g vs %g", t10, tRaw)
	}
}

func TestStreamSharing(t *testing.T) {
	p := Default10GbE()
	tr := Plain(100 << 20)
	solo := p.StreamTime(tr, 1)
	shared4 := p.StreamTime(tr, 4)
	// Four streams sharing one link each get 1/4 line rate, slower than one
	// stream's 45% goodput.
	if shared4 <= solo {
		t.Errorf("4-way shared stream (%g) should be slower than solo (%g)", shared4, solo)
	}
	// Two streams get 50% line > 45% goodput ceiling: same as solo.
	shared2 := p.StreamTime(tr, 2)
	if math.Abs(shared2-solo) > 1e-12 {
		t.Errorf("2-way shared (%g) should hit the goodput ceiling like solo (%g)", shared2, solo)
	}
}

// TestWorkerAggregatorMatchesTableII: the simulator must land close to the
// paper's measured per-iteration communication time on the 4-worker
// cluster for the large models (AlexNet, ResNet-50). This is the
// calibration anchor for every downstream figure.
func TestWorkerAggregatorMatchesTableII(t *testing.T) {
	p := Default10GbE()
	for _, m := range []models.Spec{models.AlexNet, models.ResNet50} {
		paper := m.Breakdown.Communicate / 100 // per iteration
		sim := p.WorkerAggregator(4, m.ParamBytes, Plain(m.ParamBytes), Plain(m.ParamBytes)).Total()
		if rel := math.Abs(sim-paper) / paper; rel > 0.25 {
			t.Errorf("%s: simulated %gs vs paper %gs (%.0f%% off)", m.Name, sim, paper, 100*rel)
		}
	}
}

// TestRingReductionMatchesFig12: INC must cut communication time vs WA by
// roughly the paper's 36-58% (without compression), and INC+C by ~80% vs
// WA (with compression, error bound 2^-10 → ratio ≈ 10).
func TestRingReductionMatchesFig12(t *testing.T) {
	p := Default10GbE()
	n := models.AlexNet.ParamBytes
	blk := n / 4
	wa := p.WorkerAggregator(4, n, Plain(n), Plain(n)).Total()
	inc := p.Ring(4, n, Plain(blk)).Total()
	incC := p.Ring(4, n, NICCompressed(blk, 10)).Total()
	redINC := 1 - inc/wa
	redINCC := 1 - incC/wa
	if redINC < 0.35 || redINC > 0.70 {
		t.Errorf("INC reduction = %.1f%%, paper band 36-58%%", 100*redINC)
	}
	if redINCC < 0.70 || redINCC > 0.90 {
		t.Errorf("INC+C reduction = %.1f%%, paper reports 70.9-80.7%%", 100*redINCC)
	}
	if !(incC < inc && inc < wa) {
		t.Errorf("ordering violated: WA=%g INC=%g INC+C=%g", wa, inc, incC)
	}
}

// TestScalabilityShape reproduces Fig. 15's shape: WA gradient-exchange
// time grows with node count; INC stays nearly constant.
func TestScalabilityShape(t *testing.T) {
	p := Default10GbE()
	n := models.ResNet50.ParamBytes
	wa4 := p.WorkerAggregator(4, n, Plain(n), Plain(n)).Total()
	wa8 := p.WorkerAggregator(8, n, Plain(n), Plain(n)).Total()
	inc4 := p.Ring(4, n, Plain(n/4)).Total()
	inc8 := p.Ring(8, n, Plain(n/8)).Total()
	if wa8 < 1.6*wa4 {
		t.Errorf("WA 4→8 nodes: %g → %g, expected near-linear growth", wa4, wa8)
	}
	if inc8 > 1.3*inc4 {
		t.Errorf("INC 4→8 nodes: %g → %g, expected near-flat", inc4, inc8)
	}
}

func TestWorkerAggregatorBreakdownComponents(t *testing.T) {
	p := Default10GbE()
	n := int64(100 << 20)
	ex := p.WorkerAggregator(4, n, Plain(n), Plain(n))
	if ex.Sum <= 0 || ex.Transfer <= 0 || ex.Latency <= 0 {
		t.Fatalf("breakdown has non-positive parts: %+v", ex)
	}
	if math.Abs(ex.Total()-(ex.Transfer+ex.Sum+ex.Latency)) > 1e-12 {
		t.Fatal("Total != sum of parts")
	}
	wantSum := 3 * float64(n) / p.SumRate
	if math.Abs(ex.Sum-wantSum) > 1e-12 {
		t.Errorf("Sum = %g, want %g", ex.Sum, wantSum)
	}
}

func TestRingDegenerate(t *testing.T) {
	p := Default10GbE()
	if total := p.Ring(1, 1000, Plain(1000)).Total(); total != 0 {
		t.Errorf("single-node ring time = %g, want 0", total)
	}
}

func TestBroadcast(t *testing.T) {
	p := Default10GbE()
	tr := Plain(100 << 20)
	one := p.Broadcast(tr, 1)
	three := p.Broadcast(tr, 3)
	if three <= one {
		t.Errorf("3-way broadcast (%g) not slower than 1-way (%g)", three, one)
	}
	if p.Broadcast(tr, 0) != 0 {
		t.Error("zero fanout should cost nothing")
	}
	// Aggregate-limited: 3 x wire bytes through one uplink.
	wantAgg := float64(3*tr.WireBytes) / p.LineRate
	if math.Abs(three-wantAgg) > 1e-12 {
		t.Errorf("3-way broadcast %g, want aggregate-limited %g", three, wantAgg)
	}
}

// TestHierarchicalBetweenFlatExtremes: at 16 workers, the two-level
// organizations should beat the flat worker-aggregator but the all-ring
// Fig. 1c should beat the tree-over-rings Fig. 1b.
func TestHierarchicalBetweenFlatExtremes(t *testing.T) {
	p := Default10GbE()
	n := models.ResNet50.ParamBytes
	flatWA := p.WorkerAggregator(16, n, Plain(n), Plain(n)).Total()
	tree := p.Hierarchical(4, 4, n, true, Plain(n/4), Plain(n), Plain(n)).Total()
	rings := p.Hierarchical(4, 4, n, false, Plain(n/4), Plain(n/4), Plain(n)).Total()
	if tree >= flatWA {
		t.Errorf("Fig 1b (%g) not faster than flat WA (%g) at 16 nodes", tree, flatWA)
	}
	if rings >= tree {
		t.Errorf("Fig 1c (%g) not faster than Fig 1b (%g)", rings, tree)
	}
}

// TestExchangePerStrategyLegs: Exchange is the one place that decides what
// a strategy puts on the wire — s.Gradient on the gradient legs only (the
// WA broadcast and the hierarchy's result legs stay Plain), ceil-division
// blocks per ring level — and rejects what no runner can execute.
func TestExchangePerStrategyLegs(t *testing.T) {
	p := Default10GbE()
	n := int64(98<<20) + 3 // divisible by none of the worker counts below
	comp := func(b int64) Traffic { return NICCompressed(b, 4) }
	for _, tc := range []struct {
		s    Strategy
		want Exchange
	}{
		{Strategy{Name: "worker-aggregator", Workers: 4}, p.WorkerAggregator(4, n, comp(n), Plain(n))},
		{Strategy{Name: "ring", Workers: 6}, p.Ring(6, n, comp(RingBlockBytes(n, 6)))},
		{Strategy{Name: "switch", Workers: 8}, p.SwitchAllReduce(8, n, comp)},
		{Strategy{Name: "hierarchical-tree", Workers: 16, GroupSize: 4},
			p.Hierarchical(4, 4, n, true, comp(RingBlockBytes(n, 4)), comp(n), Plain(n))},
		{Strategy{Name: "hierarchical-ring", Workers: 12, GroupSize: 4},
			p.Hierarchical(3, 4, n, false, comp(RingBlockBytes(n, 4)), comp(RingBlockBytes(n, 3)), Plain(n))},
	} {
		tc.s.ModelBytes, tc.s.Gradient = n, comp
		if got, err := p.Exchange(tc.s); err != nil || got != tc.want {
			t.Errorf("%s: Exchange = %+v, %v; want %+v", tc.s.Name, got, err, tc.want)
		}
	}
	if got, _ := p.Exchange(Strategy{Name: "ring", Workers: 6, ModelBytes: n}); got != p.Ring(6, n, Plain(RingBlockBytes(n, 6))) {
		t.Errorf("nil Gradient is not Plain: %+v", got)
	}
	for _, bad := range []Strategy{
		{Name: "carrier-pigeon", Workers: 4},
		{Name: "hierarchical-tree", Workers: 16, GroupSize: 3},
		{Name: "hierarchical-ring", Workers: 16, GroupSize: 1},
	} {
		bad.ModelBytes = n
		if _, err := p.Exchange(bad); err == nil {
			t.Errorf("Exchange accepted %+v", bad)
		}
	}
}
