package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(-1, 1, 4) // bins: [-1,-.5) [-.5,0) [0,.5) [.5,1)
	h.Observe(-0.75)
	h.Observe(-0.25)
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(0.75)
	if h.Total() != 5 {
		t.Fatalf("Total = %d", h.Total())
	}
	want := []int64{1, 1, 2, 1}
	for i, w := range want {
		if h.Bins[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Bins[i], w)
		}
	}
	if f := h.Fraction(2); math.Abs(f-0.4) > 1e-12 {
		t.Errorf("Fraction(2) = %g", f)
	}
	if c := h.BinCenter(0); math.Abs(c+0.75) > 1e-12 {
		t.Errorf("BinCenter(0) = %g", c)
	}
	if mf := h.MaxFraction(); math.Abs(mf-0.4) > 1e-12 {
		t.Errorf("MaxFraction = %g", mf)
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h := NewHistogram(-1, 1, 2)
	h.Observe(-5)
	h.Observe(5)
	if h.Bins[0] != 1 || h.Bins[1] != 1 {
		t.Fatalf("outliers not clamped: %v", h.Bins)
	}
}

func TestHistogramOutOfDomain(t *testing.T) {
	h := NewHistogram(-1, 1, 4)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(0.25)
	if h.OutOfDomain != 3 {
		t.Fatalf("OutOfDomain = %d, want 3", h.OutOfDomain)
	}
	if h.Total() != 1 {
		t.Fatalf("Total = %d, want 1 (non-finite values must not be binned)", h.Total())
	}
	var binned int64
	for _, b := range h.Bins {
		binned += b
	}
	if binned != 1 {
		t.Errorf("bins hold %d observations, want 1", binned)
	}
	if f := h.Fraction(2); f != 1 {
		t.Errorf("Fraction(2) = %g, want 1 (fractions must exclude out-of-domain mass)", f)
	}
	if s := h.String(); !strings.Contains(s, "nan/inf: 3") {
		t.Errorf("String() should report out-of-domain count:\n%s", s)
	}
	// A histogram with no out-of-domain mass must not mention it.
	h2 := NewHistogram(-1, 1, 2)
	h2.Observe(0)
	if strings.Contains(h2.String(), "nan/inf") {
		t.Error("String() mentions nan/inf with none observed")
	}
}

func TestHistogramFractionWithin(t *testing.T) {
	h := NewHistogram(-1, 1, 100)
	rng := rand.New(rand.NewSource(1))
	vs := make([]float32, 10000)
	for i := range vs {
		vs[i] = float32(rng.Float64()*2 - 1)
	}
	h.ObserveAll(vs)
	// Uniform over (-1,1): about half the mass lies in (-0.5, 0.5).
	if f := h.FractionWithin(-0.5, 0.5); math.Abs(f-0.5) > 0.05 {
		t.Errorf("FractionWithin(-0.5,0.5) = %g, want ~0.5", f)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(-1, 1, 3)
	h.Observe(0)
	s := h.String()
	if !strings.Contains(s, "#") {
		t.Error("String() contains no bars")
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 3 {
		t.Error("String() should have one line per bin")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(1, 1, 4)
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4} {
		s.Observe(v)
	}
	if s.N != 4 || s.MinV != 1 || s.MaxV != 4 {
		t.Fatalf("N=%d min=%g max=%g", s.N, s.MinV, s.MaxV)
	}
	if math.Abs(s.Mean()-2.5) > 1e-12 {
		t.Errorf("Mean = %g", s.Mean())
	}
	wantStd := math.Sqrt(1.25)
	if math.Abs(s.Std()-wantStd) > 1e-12 {
		t.Errorf("Std = %g, want %g", s.Std(), wantStd)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummaryNegativeMin(t *testing.T) {
	var s Summary
	s.ObserveAll([]float32{-3, 0.5})
	if s.MinV != -3 || s.MaxV != 0.5 {
		t.Errorf("min=%g max=%g", s.MinV, s.MaxV)
	}
}

// TestGradientShapedDistribution reproduces the Fig. 5 shape check: a
// tight-around-zero sample should put its peak bin at the center and keep
// all mass within (-1, 1).
func TestGradientShapedDistribution(t *testing.T) {
	h := NewHistogram(-1, 1, 41)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		h.Observe(rng.NormFloat64() * 0.05)
	}
	centerBin := 20 // bin containing 0
	if h.Fraction(centerBin) != h.MaxFraction() {
		t.Error("peak bin is not the center")
	}
	if f := h.FractionWithin(-0.3, 0.3); f < 0.99 {
		t.Errorf("mass within ±0.3 = %g", f)
	}
}

// Total returns the number of binned observations (OutOfDomain values
// are excluded).
func (h *Histogram) Total() int64 { return h.total }
