package trainsim

import (
	"math"
	"testing"

	"inceptionn/internal/models"
)

func TestTableIIIRatios(t *testing.T) {
	// Sanity of the paper-derived ratios: all within the codec's possible
	// range (1, 16], monotone in the relaxation of the bound.
	for name, rows := range PaperTableIII {
		for e, row := range rows {
			r := row.Ratio()
			if r <= 1 || r > 16 {
				t.Errorf("%s E=%d: ratio %g out of range", name, e, r)
			}
		}
		if !(rows[6].Ratio() > rows[8].Ratio() && rows[8].Ratio() > rows[10].Ratio()) {
			t.Errorf("%s: ratios not monotone in bound: %g %g %g",
				name, rows[10].Ratio(), rows[8].Ratio(), rows[6].Ratio())
		}
	}
	// Spot value: AlexNet at 2^-10 has mean bits 2·0.749+10·0.039+18·0.211+34·0.001.
	want := 2*0.749 + 10*0.039 + 18*0.211 + 34*0.001
	if got := PaperTableIII["AlexNet"][10].AverageBits(); math.Abs(got-want) > 1e-9 {
		t.Errorf("AverageBits = %g, want %g", got, want)
	}
}

func TestCompressionRatioFallback(t *testing.T) {
	if r := CompressionRatio(models.ResNet152, 10); r != 8 {
		t.Errorf("fallback ratio = %g, want 8", r)
	}
	if r := CompressionRatio(models.AlexNet, 12); r != 8 {
		t.Errorf("unknown bound ratio = %g, want 8", r)
	}
}

// TestCommShareMatchesTableII: the simulated WA communication share must
// land near the paper's >70% for every evaluated model (Fig. 3b).
func TestCommShareMatchesTableII(t *testing.T) {
	c := Default()
	for _, spec := range models.Evaluated() {
		share := c.CommShare(spec)
		paper := spec.Breakdown.Communicate / spec.Breakdown.Total()
		if share < 0.55 || share > 0.95 {
			t.Errorf("%s: simulated share %.2f implausible (paper %.2f)", spec.Name, share, paper)
		}
	}
	// The large models must sit above 70% as in the paper.
	for _, spec := range []models.Spec{models.AlexNet, models.ResNet50} {
		if share := c.CommShare(spec); share < 0.70 {
			t.Errorf("%s: share %.2f < 0.70", spec.Name, share)
		}
	}
}

// TestFig12Ordering: for every model the four systems must order
// WA > WA+C > INC > INC+C in total training time, as in Fig. 12.
func TestFig12Ordering(t *testing.T) {
	c := Default()
	for _, spec := range models.Evaluated() {
		var prev float64 = math.Inf(1)
		for _, sys := range Systems() {
			total := c.IterTime(sys, spec).Total()
			if total > prev {
				t.Errorf("%s: %v (%.4f) slower than previous system (%.4f)",
					spec.Name, sys, total, prev)
			}
			prev = total
		}
	}
}

// TestFig12SpeedupBand: the full system's speedup over WA must fall in the
// paper's reported 2.2-3.1x band (±30% slack for the simulated substrate).
func TestFig12SpeedupBand(t *testing.T) {
	c := Default()
	for _, spec := range models.Evaluated() {
		s := c.Speedup(INCC, spec)
		if s < 1.6 || s > 4.5 {
			t.Errorf("%s: INC+C speedup %.2f outside the plausible band", spec.Name, s)
		}
	}
	// The communication-bound large models should exceed 2x.
	for _, spec := range []models.Spec{models.AlexNet, models.ResNet50} {
		if s := c.Speedup(INCC, spec); s < 2 {
			t.Errorf("%s: speedup %.2f < 2", spec.Name, s)
		}
	}
}

// TestCommunicationReductionBands reproduces the abstract's headline: the
// full system reduces communication time by 70.9-80.7% vs WA.
func TestCommunicationReductionBands(t *testing.T) {
	c := Default()
	for _, spec := range models.Evaluated() {
		wa := c.ExchangeTime(WA, spec)
		incc := c.ExchangeTime(INCC, spec)
		red := 1 - incc/wa
		if red < 0.65 || red > 0.92 {
			t.Errorf("%s: communication reduction %.1f%%, paper band 70.9-80.7%%",
				spec.Name, 100*red)
		}
	}
}

// TestFig13SpeedupSameAccuracy: with the measured 1-2 extra epochs the
// speedup must stay within the paper's 2.2-3.1x band (with slack).
func TestFig13SpeedupSameAccuracy(t *testing.T) {
	c := Default()
	for _, spec := range models.Evaluated() {
		s := c.SpeedupSameAccuracy(spec)
		plain := c.Speedup(INCC, spec)
		if s >= plain {
			t.Errorf("%s: same-accuracy speedup %.2f not below same-epoch %.2f",
				spec.Name, s, plain)
		}
		if s < 1.5 || s > 4.5 {
			t.Errorf("%s: same-accuracy speedup %.2f implausible", spec.Name, s)
		}
	}
}

// TestFig15Scalability: WA exchange grows near-linearly 4→8 nodes; INC
// stays nearly flat.
func TestFig15Scalability(t *testing.T) {
	for _, spec := range models.Evaluated() {
		c4 := Default()
		c8 := Default()
		c8.Workers = 8
		wa4, wa8 := c4.ExchangeTime(WA, spec), c8.ExchangeTime(WA, spec)
		inc4, inc8 := c4.ExchangeTime(INC, spec), c8.ExchangeTime(INC, spec)
		if wa8 < 1.5*wa4 {
			t.Errorf("%s: WA exchange 4→8 grew only %.2fx", spec.Name, wa8/wa4)
		}
		if inc8 > 1.35*inc4 {
			t.Errorf("%s: INC exchange 4→8 grew %.2fx, expected near-flat", spec.Name, inc8/inc4)
		}
	}
}

// TestFig7SoftwareCompressionHurts: software codecs must inflate total
// training time (the paper reports 2-4x for Snappy and SZ).
func TestFig7SoftwareCompressionHurts(t *testing.T) {
	c := Default()
	for _, spec := range []models.Spec{models.AlexNet, models.HDC} {
		for _, codec := range softwareCodecs() {
			f := c.Fig7Factor(spec, codec)
			if codec.Name == "Snappy" || codec.Name == "SZ" {
				if f < 1.05 {
					t.Errorf("%s/%s: factor %.2f, software compression should hurt",
						spec.Name, codec.Name, f)
				}
				if spec.Name == "AlexNet" && (f < 1.3 || f > 6) {
					t.Errorf("AlexNet/%s: factor %.2f outside the paper's 2-4x region",
						codec.Name, f)
				}
			}
		}
	}
}

// TestInNICCompressionDoesNotHurt: unlike Fig. 7's software codecs, the
// NIC-offloaded codec must strictly help.
func TestInNICCompressionDoesNotHurt(t *testing.T) {
	c := Default()
	for _, spec := range models.Evaluated() {
		if c.IterTime(INCC, spec).Total() >= c.IterTime(INC, spec).Total() {
			t.Errorf("%s: INC+C not faster than INC", spec.Name)
		}
		if c.IterTime(WAC, spec).Total() >= c.IterTime(WA, spec).Total() {
			t.Errorf("%s: WA+C not faster than WA", spec.Name)
		}
	}
}

// TestRelaxedBoundMarginalGains: Fig. 12's observation that going from
// 2^-10 to 2^-6 barely moves the INC+C time (the per-packet floor binds).
func TestRelaxedBoundMarginalGains(t *testing.T) {
	c10 := Default()
	c6 := Default()
	c6.BoundExp = 6
	for _, spec := range models.Evaluated() {
		t10 := c10.ExchangeTime(INCC, spec)
		t6 := c6.ExchangeTime(INCC, spec)
		if t6 > t10 {
			t.Errorf("%s: relaxing the bound increased time", spec.Name)
		}
		if (t10-t6)/t10 > 0.30 {
			t.Errorf("%s: relaxing 2^-10→2^-6 gained %.0f%%, expected marginal",
				spec.Name, 100*(t10-t6)/t10)
		}
	}
}

// TestHierarchicalExchange: the Fig. 1b/1c organizations must order
// correctly (1c < 1b < flat WA at 16 workers), and compression must help
// both.
func TestHierarchicalExchange(t *testing.T) {
	c := Default()
	flat := Default()
	flat.Workers = 16
	wa := flat.ExchangeTime(WA, models.ResNet50)
	tree := c.HierarchicalExchangeTime(models.ResNet50, 4, 4, true, false)
	rings := c.HierarchicalExchangeTime(models.ResNet50, 4, 4, false, false)
	if !(rings < tree && tree < wa) {
		t.Errorf("ordering violated: rings=%g tree=%g flatWA=%g", rings, tree, wa)
	}
	treeC := c.HierarchicalExchangeTime(models.ResNet50, 4, 4, true, true)
	ringsC := c.HierarchicalExchangeTime(models.ResNet50, 4, 4, false, true)
	if treeC >= tree || ringsC >= rings {
		t.Errorf("compression did not help: tree %g->%g rings %g->%g", tree, treeC, rings, ringsC)
	}
}

// softwareCodecs returns throughput/ratio figures measured with
// this repository's own Go implementations (the benchmarks beside
// internal/compress/lz, szlike and truncate) at the scale of the paper's
// CPUs: a Snappy-family LZ, an SZ-family predictive codec, and simple LSB
// truncation with bit packing.
func softwareCodecs() []SoftwareCodec {
	return []SoftwareCodec{
		{Name: "Snappy", CompressMBps: 250, DecompressMBps: 500, Ratio: 1.05, Lossless: true},
		{Name: "SZ", CompressMBps: 90, DecompressMBps: 140, Ratio: 3.5},
		{Name: "16b-T", CompressMBps: 400, DecompressMBps: 400, Ratio: 2},
	}
}
