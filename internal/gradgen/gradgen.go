// Package gradgen synthesizes gradient value streams whose codec bitwidth
// distribution matches a prescribed Table III row. It is the substitution
// for the paper's full-size AlexNet/ResNet/VGG gradient dumps (which would
// require training those models on ImageNet): given the paper's published
// class fractions, the generator emits a stream that the codec classifies
// identically — so compression-ratio measurements on full-size models can
// be validated end to end through the real encoder rather than assumed.
package gradgen

import (
	"fmt"
	"math"
	"math/rand"

	"inceptionn/internal/fpcodec"
)

// ClassFractions are target probabilities for the four codec classes.
type ClassFractions struct {
	Zero, Small, Large, NoCompress float64 // 2-, 10-, 18-, 34-bit classes
}

// Normalize scales the fractions to sum to 1.
func (c ClassFractions) Normalize() ClassFractions {
	sum := c.Zero + c.Small + c.Large + c.NoCompress
	if sum <= 0 {
		return ClassFractions{Zero: 1}
	}
	return ClassFractions{
		Zero: c.Zero / sum, Small: c.Small / sum,
		Large: c.Large / sum, NoCompress: c.NoCompress / sum,
	}
}

// Generator draws values classified by the codec (at the configured bound)
// into each class with the prescribed probability. Within a class,
// magnitudes are log-uniform over the class's interval.
type Generator struct {
	Bound fpcodec.Bound
	Frac  ClassFractions

	rng *rand.Rand
}

// New returns a generator for the bound and fractions.
func New(bound fpcodec.Bound, frac ClassFractions, seed int64) *Generator {
	return &Generator{Bound: bound, Frac: frac.Normalize(), rng: rand.New(rand.NewSource(seed))}
}

// classIntervals returns the open magnitude intervals of the four classes
// under the generator's bound.
func (g *Generator) classIntervals() (zeroHi, smallHi float64) {
	e := g.Bound.Exp()
	s8 := e - 7
	if s8 < 0 {
		s8 = 0
	}
	return math.Ldexp(1, -e), math.Ldexp(1, -s8)
}

// logUniform draws from [lo, hi) with log-uniform density.
func (g *Generator) logUniform(lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + g.rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// Next draws one value.
func (g *Generator) Next() float32 {
	zeroHi, smallHi := g.classIntervals()
	u := g.rng.Float64()
	var mag float64
	switch {
	case u < g.Frac.Zero:
		mag = g.logUniform(1e-12, zeroHi*0.999)
	case u < g.Frac.Zero+g.Frac.Small:
		mag = g.logUniform(zeroHi, smallHi*0.999)
	case u < g.Frac.Zero+g.Frac.Small+g.Frac.Large:
		if smallHi >= 1 {
			// Degenerate at coarse bounds (E ≤ 7): the 18-bit class is
			// structurally empty; fall back to the small class.
			mag = g.logUniform(zeroHi, 0.999)
		} else {
			mag = g.logUniform(smallHi, 0.999)
		}
	default:
		mag = g.logUniform(1, 4)
	}
	if g.rng.Intn(2) == 0 {
		mag = -mag
	}
	return float32(mag)
}

// Stream draws n values.
func (g *Generator) Stream(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// FromTableIII builds a generator from a paper Table III row given as the
// four class fractions (already summing to ~1).
func FromTableIII(boundExp int, f2, f10, f18, f34 float64, seed int64) (*Generator, error) {
	bound, err := fpcodec.NewBound(boundExp)
	if err != nil {
		return nil, fmt.Errorf("gradgen: %w", err)
	}
	return New(bound, ClassFractions{Zero: f2, Small: f10, Large: f18, NoCompress: f34}, seed), nil
}
