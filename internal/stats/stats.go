// Package stats provides the histogram and summary statistics used by the
// gradient-distribution experiments (paper Fig. 5 and Table III).
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram counts values into uniform bins over [Min, Max); finite
// values outside the range land in the edge bins (clamped), so mass is
// never silently dropped. NaN and ±Inf observations are counted
// separately in OutOfDomain: the bin-index arithmetic is undefined on
// them (float64→int conversion of NaN is platform-defined in Go), and
// attributing them to an edge bin would silently distort the
// distribution they most likely signal a bug in.
type Histogram struct {
	Min, Max float64
	Bins     []int64
	// OutOfDomain counts NaN/±Inf observations, excluded from Total and
	// every fraction.
	OutOfDomain int64
	total       int64
}

// NewHistogram returns a histogram with n uniform bins over [min, max).
func NewHistogram(min, max float64, n int) *Histogram {
	if !(max > min) || n < 1 {
		panic(fmt.Sprintf("stats: invalid histogram [%g,%g) with %d bins", min, max, n))
	}
	return &Histogram{Min: min, Max: max, Bins: make([]int64, n)}
}

// Observe adds one value. Non-finite values (NaN, ±Inf) go to
// OutOfDomain instead of a bin.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.OutOfDomain++
		return
	}
	idx := int(float64(len(h.Bins)) * (v - h.Min) / (h.Max - h.Min))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Bins) {
		idx = len(h.Bins) - 1
	}
	h.Bins[idx]++
	h.total++
}

// ObserveAll adds every element of vs.
func (h *Histogram) ObserveAll(vs []float32) {
	for _, v := range vs {
		h.Observe(float64(v))
	}
}

// Fraction returns bin i's share of the total mass.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Bins[i]) / float64(h.total)
}

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Bins))
	return h.Min + (float64(i)+0.5)*w
}

// MaxFraction returns the largest single-bin share (the peak height of the
// paper's Fig. 5 plots).
func (h *Histogram) MaxFraction() float64 {
	var m int64
	for _, b := range h.Bins {
		if b > m {
			m = b
		}
	}
	if h.total == 0 {
		return 0
	}
	return float64(m) / float64(h.total)
}

// FractionWithin returns the share of observed mass in [lo, hi), computed
// from bins fully inside the interval (approximate at the edges).
func (h *Histogram) FractionWithin(lo, hi float64) float64 {
	if h.total == 0 {
		return 0
	}
	var count int64
	for i, b := range h.Bins {
		c := h.BinCenter(i)
		if c >= lo && c < hi {
			count += b
		}
	}
	return float64(count) / float64(h.total)
}

// String renders the histogram as ASCII rows (one per bin) with
// proportional bars, in the spirit of the paper's Fig. 5 panels.
func (h *Histogram) String() string {
	var sb strings.Builder
	maxFrac := h.MaxFraction()
	for i := range h.Bins {
		frac := h.Fraction(i)
		bar := 0
		if maxFrac > 0 {
			bar = int(40 * frac / maxFrac)
		}
		fmt.Fprintf(&sb, "%+8.3f | %-40s %6.3f\n", h.BinCenter(i), strings.Repeat("#", bar), frac)
	}
	if h.OutOfDomain > 0 {
		fmt.Fprintf(&sb, "     nan/inf: %d observations out of domain\n", h.OutOfDomain)
	}
	return sb.String()
}

// Summary holds streaming moments and extrema of a value series.
type Summary struct {
	N     int64
	sum   float64
	sumSq float64
	MinV  float64
	MaxV  float64
}

// Observe adds one value.
func (s *Summary) Observe(v float64) {
	if s.N == 0 || v < s.MinV {
		s.MinV = v
	}
	if s.N == 0 || v > s.MaxV {
		s.MaxV = v
	}
	s.N++
	s.sum += v
	s.sumSq += v * v
}

// ObserveAll adds every element of vs.
func (s *Summary) ObserveAll(vs []float32) {
	for _, v := range vs {
		s.Observe(float64(v))
	}
}

// Mean returns the arithmetic mean (0 for empty summaries).
func (s *Summary) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.sum / float64(s.N)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 {
	if s.N == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.N) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
